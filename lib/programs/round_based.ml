open Util
open Sim
open Sim.Proc.Syntax

(* Each process owns register "F<i>" holding its full vote history (a list
   of (round, coin) pairs, newest first). Votes are immutable once
   published, so if all round-r votes agree, every process that completes
   round r observes the same agreement and decides consistently. *)

let make_reg ~k ~n i =
  Core.Round_based.abd ~k ~name:(Fmt.str "F%d" i) ~n ~init:(Value.list [])

let vote_of history r =
  match history with
  | Value.List entries ->
      List.find_map
        (fun e ->
          match e with
          | Value.Pair (Value.Int r', c) when r' = r -> Some c
          | _ -> None)
        entries
  | _ -> None

let config ~n ~rounds_before_fallback ~max_rounds ~k : Runtime.config =
  let regs = List.init n (make_reg ~k ~n) in
  let meth base round =
    if round < rounds_before_fallback then base else Core.Round_based.plain base
  in
  let program ~self =
    let own = List.nth regs self in
    let rec round r history =
      if r >= max_rounds then
        Proc.label (Fmt.str "gave_up.%d" self)
      else begin
        let* coin = Proc.random ~kind:Proc.Program_random 2 in
        let history = Value.Pair (Value.int r, Value.int coin) :: history in
        let* _ =
          Obj_impl.call own ~self
            ~tag:(Fmt.str "publish.%d.%d" self r)
            ~meth:(meth "write" r)
            ~arg:(Value.list history)
        in
        (* collect everyone's round-r vote, re-reading until present *)
        let rec fetch j =
          let* v =
            Obj_impl.call (List.nth regs j) ~self
              ~tag:(Fmt.str "collect.%d.%d" self r)
              ~meth:(meth "read" r) ~arg:Value.unit
          in
          match vote_of v r with Some c -> Proc.return c | None -> fetch j
        in
        let rec collect j acc =
          if j = n then Proc.return (List.rev acc)
          else
            let* c = fetch j in
            collect (j + 1) (c :: acc)
        in
        let* votes = collect 0 [] in
        let agreed =
          match votes with
          | [] -> false
          | c :: rest -> List.for_all (Value.equal c) rest
        in
        if agreed then Proc.label (Fmt.str "agreed.%d.%d" self r)
        else round (r + 1) history
      end
    in
    round 0 []
  in
  { n; objects = regs; program; enable_crashes = false; max_crashes = 0 }

let agreed_round_of_trace trace ~n ~max_rounds =
  let labels =
    List.filter_map
      (function Trace.Labeled { name; _ } -> Some name | _ -> None)
      (Trace.entries trace)
  in
  let round_of p =
    let rec find r =
      if r >= max_rounds then None
      else if List.mem (Fmt.str "agreed.%d.%d" p r) labels then Some r
      else find (r + 1)
    in
    find 0
  in
  let rounds = List.filter_map round_of (List.init n Fun.id) in
  match rounds with
  | r :: rest when List.length rest = n - 1 -> Some (List.fold_left max r rest)
  | _ -> None
