module Key = struct
  type t = string * int

  let compare (t1, o1) (t2, o2) =
    let c = String.compare t1 t2 in
    if c <> 0 then c else Int.compare o1 o2
end

module M = Map.Make (Key)

type t = Util.Value.t M.t

let empty = M.empty
let record t ~tag ~occurrence v = M.add (tag, occurrence) v t
let find t ~tag ~occurrence = M.find_opt (tag, occurrence) t
let find1 t tag = find t ~tag ~occurrence:0

module Rets = Hashtbl.Make (Int)

(* the next occurrence of [tag]: one past the last recorded (keys of one
   tag are contiguous in the map and counted up from 0) *)
let next_occurrence t tag =
  match M.find_last_opt (fun (tag', _) -> String.compare tag' tag <= 0) t with
  | Some ((tag', occ), _) when String.equal tag' tag -> occ + 1
  | _ -> 0

(* One pass over the actions collects the calls (newest first) and each
   return's value by invocation; the completed calls are then numbered
   per tag in call order. *)
let of_history h =
  let rets = Rets.create 16 in
  let calls =
    List.fold_left
      (fun calls (a : Action.t) ->
        match a with
        | Call c -> c :: calls
        | Ret r ->
            Rets.replace rets r.inv r.value;
            calls)
      [] h
  in
  List.fold_left
    (fun acc (c : Action.call) ->
      match Rets.find_opt rets c.inv with
      | None -> acc
      | Some v -> record acc ~tag:c.tag ~occurrence:(next_occurrence acc c.tag) v)
    empty (List.rev calls)

let bindings = M.bindings

let pp ppf t =
  let item ppf ((tag, occ), v) = Fmt.pf ppf "%s/%d = %a" tag occ Util.Value.pp v in
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") item) (bindings t)
