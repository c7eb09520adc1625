open Sim

exception Too_large

(* Replay the given schedule with the given random tape from a fresh
   runtime. Returns the runtime after the replay. *)
let replay config events tape =
  let t = Runtime.create config (Runtime.Tape (Array.of_list (List.rev tape))) in
  Runtime.run_schedule t (List.rev events);
  t

(* The children of the node that [rev_events] and [rev_tape] (reversed
   paths from the root) reach, [t] being its replay: one per enabled
   event, and one per outcome of a random step. The bound of a random
   step is recovered by probing with tape value 0 and reading the
   recorded draw. *)
let successors config t rev_events rev_tape =
  List.concat_map
    (fun ev ->
      match ev with
      | Runtime.Step p when Runtime.next_op_descr t p = "random" ->
          let probe = replay config (ev :: rev_events) (0 :: rev_tape) in
          let bound =
            match List.rev (Runtime.random_results probe) with
            | (_, bound, _) :: _ -> bound
            | [] -> 1
          in
          List.init bound (fun v -> (ev :: rev_events, v :: rev_tape))
      | _ -> [ (ev :: rev_events, rev_tape) ])
    (Runtime.enabled t)

let tree ?(max_nodes = 200_000) ~preamble_map config =
  let count = ref 0 in
  let rec build rev_events rev_tape =
    incr count;
    if !count > max_nodes then raise Too_large;
    let t = replay config rev_events rev_tape in
    let complete =
      Preamble_map.execution_complete preamble_map (Runtime.trace t)
    in
    let descr =
      Fmt.str "%a"
        (Fmt.list ~sep:(Fmt.any ",") Runtime.pp_event)
        (List.rev rev_events)
    in
    let children =
      List.map
        (fun (evs, tape) -> build evs tape)
        (successors config t rev_events rev_tape)
    in
    Tree.node ~descr ~complete (Runtime.history t) children
  in
  build [] []

let executions ?(max_nodes = 200_000) config =
  let count = ref 0 in
  let acc = ref [] in
  let rec go rev_events rev_tape =
    incr count;
    if !count > max_nodes then raise Too_large;
    let t = replay config rev_events rev_tape in
    match Runtime.enabled t with
    | [] -> acc := Runtime.trace t :: !acc
    | _ ->
        List.iter
          (fun (evs, tape) -> go evs tape)
          (successors config t rev_events rev_tape)
  in
  go [] [];
  !acc
