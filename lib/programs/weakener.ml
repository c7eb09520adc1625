open Util
open Sim
open Sim.Proc.Syntax

let tag_u1 = "p2.u1"
let tag_u2 = "p2.u2"
let tag_c = "p2.c"
let n_processes = 3
let r_random_steps = 1

let config ~(r : Obj_impl.t) ~(c : Obj_impl.t) : Runtime.config =
  let call obj ~self ~tag ~meth ~arg = Obj_impl.call obj ~self ~tag ~meth ~arg in
  let program ~self =
    match self with
    | 0 ->
        (* p0: R := 0 *)
        let* _ = call r ~self ~tag:"p0.write" ~meth:"write" ~arg:(Value.int 0) in
        Proc.return ()
    | 1 ->
        (* p1: R := 1; C := coin *)
        let* _ = call r ~self ~tag:"p1.write" ~meth:"write" ~arg:(Value.int 1) in
        let* coin = Proc.random ~kind:Proc.Program_random 2 in
        let* _ =
          call c ~self ~tag:"p1.writeC" ~meth:"write" ~arg:(Value.int coin)
        in
        Proc.return ()
    | 2 ->
        (* p2: u1 := R; u2 := R; c := C; test *)
        let* u1 = call r ~self ~tag:tag_u1 ~meth:"read" ~arg:Value.unit in
        let* u2 = call r ~self ~tag:tag_u2 ~meth:"read" ~arg:Value.unit in
        let* cv = call c ~self ~tag:tag_c ~meth:"read" ~arg:Value.unit in
        let bad =
          match cv with
          | Value.Int ci when ci = 0 || ci = 1 ->
              Value.equal u1 (Value.int ci) && Value.equal u2 (Value.int (1 - ci))
          | _ -> false
        in
        Proc.label (if bad then "loop_forever" else "terminate")
    | p -> Fmt.invalid_arg "weakener: no process %d" p
  in
  {
    n = n_processes;
    objects = [ r; c ];
    program;
    max_crashes = 0;
  }

let bad outcome =
  match History.Outcome.find1 outcome tag_c with
  | Some (Value.Int ci) when ci = 0 || ci = 1 -> (
      match
        ( History.Outcome.find1 outcome tag_u1,
          History.Outcome.find1 outcome tag_u2 )
      with
      | Some u1, Some u2 ->
          Value.equal u1 (Value.int ci) && Value.equal u2 (Value.int (1 - ci))
      | _ -> false)
  | _ -> false

let terminates outcome = not (bad outcome)

let atomic_config () =
  config
    ~r:(Objects.Atomic_register.make ~name:"R" ~init:Value.none)
    ~c:(Objects.Atomic_register.make ~name:"C" ~init:(Value.int (-1)))

let abd_config () =
  config
    ~r:(Objects.Abd.make ~name:"R" ~n:n_processes ~init:Value.none)
    ~c:(Objects.Abd.make ~name:"C" ~n:n_processes ~init:(Value.int (-1)))

let abd_k_config ~k =
  config
    ~r:(Objects.Abd.make_k ~k ~name:"R" ~n:n_processes ~init:Value.none)
    ~c:(Objects.Abd.make_k ~k ~name:"C" ~n:n_processes ~init:(Value.int (-1)))
