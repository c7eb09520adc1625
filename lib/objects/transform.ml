open Sim.Proc.Syntax

type split = {
  preamble :
    self:int -> meth:string -> arg:Util.Value.t -> Util.Value.t Sim.Proc.t;
  tail :
    self:int ->
    meth:string ->
    arg:Util.Value.t ->
    Util.Value.t ->
    Util.Value.t Sim.Proc.t;
}

let preamble_end_label = "preamble_end"

(* formatted once, not on every preamble iteration of every call *)
let iter_labels = Array.init 32 (fun i -> Printf.sprintf "preamble_%d_end" (i + 1))

let iter_label i =
  if i >= 1 && i <= Array.length iter_labels then iter_labels.(i - 1)
  else Printf.sprintf "preamble_%d_end" i

let chosen_label = "chosen_preamble"

let base_invoke split ~self ~meth ~arg =
  let* locals = split.preamble ~self ~meth ~arg in
  let* () = Sim.Proc.label preamble_end_label in
  split.tail ~self ~meth ~arg locals

let iterated_invoke ~k split ~self ~meth ~arg =
  if k < 1 then invalid_arg "Transform.iterated_invoke: k must be >= 1";
  let* results =
    Sim.Proc.repeat k (fun i ->
        let* locals = split.preamble ~self ~meth ~arg in
        let* () = Sim.Proc.label (iter_label (i + 1)) in
        Sim.Proc.return locals)
  in
  let* j = Sim.Proc.random ~kind:Sim.Proc.Object_random k in
  let* () = Sim.Proc.label chosen_label in
  split.tail ~self ~meth ~arg (List.nth results j)
