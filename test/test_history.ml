(* Tests for the history substrate: actions, well-formedness, projections,
   sequential specifications, outcomes. *)

open Util
open History

let call ?(obj = "R") ?(proc = 0) ?(tag = "t") inv meth arg =
  Action.Call { obj_name = obj; meth; arg; inv; proc; tag }

let ret ?(obj = "R") ?(proc = 0) inv value =
  Action.Ret { inv; value; proc; obj_name = obj }

let test_well_formed_accepts () =
  let h =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      call 1 "read" Value.unit ~proc:1;
      ret 0 Value.unit ~proc:0;
      ret 1 (Value.int 1) ~proc:1;
    ]
  in
  Alcotest.(check bool) "ok" true (Hist.well_formed h)

let test_well_formed_rejects_double_call () =
  let h = [ call 0 "read" Value.unit ~proc:0; ret 0 (Value.int 0) ~proc:0; call 0 "read" Value.unit ~proc:1 ] in
  Alcotest.(check bool) "duplicate inv" false (Hist.well_formed h)

let test_well_formed_rejects_orphan_ret () =
  Alcotest.(check bool) "orphan ret" false (Hist.well_formed [ ret 5 Value.unit ])

let test_well_formed_rejects_overlap_same_proc () =
  (* a process cannot have two pending invocations *)
  let h = [ call 0 "read" Value.unit ~proc:0; call 1 "read" Value.unit ~proc:0 ] in
  Alcotest.(check bool) "per-process sequential" false (Hist.well_formed h)

let test_well_formed_rejects_ret_wrong_proc () =
  let h = [ call 0 "read" Value.unit ~proc:0; ret 0 (Value.int 0) ~proc:1 ] in
  Alcotest.(check bool) "ret by other process" false (Hist.well_formed h)

let test_ops_extraction () =
  let h =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      call 1 "read" Value.unit ~proc:1;
      ret 1 (Value.int 1) ~proc:1;
    ]
  in
  let ops = Hist.ops h in
  Alcotest.(check int) "two ops" 2 (Array.length ops);
  let pending = Hist.pending h in
  Alcotest.(check int) "one pending" 1 (List.length pending);
  Alcotest.(check int) "pending is the write" 0 (List.hd pending).call.inv

let test_complete_removes_pending () =
  let h =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      call 1 "read" Value.unit ~proc:1;
      ret 1 (Value.int 1) ~proc:1;
    ]
  in
  let c = Hist.complete h in
  Alcotest.(check int) "call removed" 2 (List.length c);
  Alcotest.(check bool) "still well-formed" true (Hist.well_formed c);
  Alcotest.(check int) "no pending" 0 (List.length (Hist.pending c))

let test_projections () =
  let h =
    [
      call 0 "write" (Value.int 1) ~obj:"R" ~proc:0;
      call 1 "read" Value.unit ~obj:"C" ~proc:1;
      ret 0 Value.unit ~obj:"R" ~proc:0;
      ret 1 (Value.int 0) ~obj:"C" ~proc:1;
    ]
  in
  Alcotest.(check int) "R actions" 2 (List.length (Hist.project_obj h "R"));
  Alcotest.(check int) "C actions" 2 (List.length (Hist.project_obj h "C"));
  Alcotest.(check int) "p0 actions" 2 (List.length (Hist.project_proc h 0));
  Alcotest.(check bool) "projection well-formed" true
    (Hist.well_formed (Hist.project_obj h "R"))

let test_is_sequential () =
  let seq =
    [ call 0 "read" Value.unit; ret 0 (Value.int 0); call 1 "read" Value.unit ~proc:1; ret 1 (Value.int 0) ~proc:1 ]
  in
  Alcotest.(check bool) "sequential" true (Hist.is_sequential seq);
  let conc = [ call 0 "read" Value.unit ~proc:0; call 1 "read" Value.unit ~proc:1 ] in
  Alcotest.(check bool) "concurrent" false (Hist.is_sequential conc)

let test_precedes () =
  let h =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      ret 0 Value.unit ~proc:0;
      call 1 "read" Value.unit ~proc:1;
      ret 1 (Value.int 1) ~proc:1;
    ]
  in
  match Hist.ops h with
  | [| w; r |] ->
      Alcotest.(check bool) "w < r" true (Hist.precedes h w r);
      Alcotest.(check bool) "not r < w" false (Hist.precedes h r w)
  | _ -> Alcotest.fail "expected two ops"

(* ---- sequential specifications ---- *)

let test_spec_run_register () =
  let spec = Spec.register ~init:(Value.int 0) in
  match Spec.run spec [ ("write", Value.int 5); ("read", Value.unit) ] with
  | Some (state, [ r1; r2 ]) ->
      Alcotest.(check bool) "final state" true (Value.equal state (Value.int 5));
      Alcotest.(check bool) "write ret" true (Value.equal r1 Value.unit);
      Alcotest.(check bool) "read ret" true (Value.equal r2 (Value.int 5))
  | _ -> Alcotest.fail "run failed"

let test_spec_run_illegal () =
  let spec = Spec.register ~init:(Value.int 0) in
  Alcotest.(check bool) "unknown method" true
    (Spec.run spec [ ("bump", Value.unit) ] = None)

let test_spec_counter () =
  match
    Spec.run Spec.counter
      [ ("inc", Value.unit); ("inc", Value.unit); ("read", Value.unit) ]
  with
  | Some (_, rets) ->
      Alcotest.(check bool) "reads 2" true
        (Value.equal (List.nth rets 2) (Value.int 2))
  | None -> Alcotest.fail "counter run failed"

let test_spec_max_register () =
  match
    Spec.run Spec.max_register
      [ ("write", Value.int 5); ("write", Value.int 3); ("read", Value.unit) ]
  with
  | Some (_, rets) ->
      Alcotest.(check bool) "max wins" true
        (Value.equal (List.nth rets 2) (Value.int 5))
  | None -> Alcotest.fail "max run failed"

let test_spec_snapshot_bad_index () =
  let spec = Spec.snapshot ~n:2 ~init:(Value.int 0) in
  Alcotest.(check bool) "component out of range" true
    (Spec.run spec [ ("update", Value.pair (Value.int 7) (Value.int 1)) ] = None)

(* ---- outcomes ---- *)

let test_outcome_occurrences () =
  let h =
    [
      call 0 "read" Value.unit ~tag:"loop" ~proc:0;
      ret 0 (Value.int 1) ~proc:0;
      call 1 "read" Value.unit ~tag:"loop" ~proc:0;
      ret 1 (Value.int 2) ~proc:0;
    ]
  in
  let o = Outcome.of_history h in
  Alcotest.(check (option int)) "first occurrence" (Some 1)
    (Option.map Value.to_int (Outcome.find o ~tag:"loop" ~occurrence:0));
  Alcotest.(check (option int)) "second occurrence" (Some 2)
    (Option.map Value.to_int (Outcome.find o ~tag:"loop" ~occurrence:1));
  Alcotest.(check (option int)) "no third" None
    (Option.map Value.to_int (Outcome.find o ~tag:"loop" ~occurrence:2))

let test_outcome_skips_pending () =
  let h = [ call 0 "read" Value.unit ~tag:"r" ] in
  let o = Outcome.of_history h in
  Alcotest.(check bool) "pending has no outcome" true (Outcome.find1 o "r" = None)

(* ---- properties ---- *)

(* Any spec-generated sequential history is linearizable w.r.t. the spec. *)
let prop_sequential_histories_linearizable =
  QCheck.Test.make ~count:100 ~name:"spec-generated sequential histories linearizable"
    QCheck.(small_list (pair bool (int_bound 5)))
    (fun script ->
      let spec = Spec.register ~init:(Value.int 0) in
      let _, h =
        List.fold_left
          (fun (i, acc) (is_read, v) ->
            let meth = if is_read then "read" else "write" in
            let arg = if is_read then Value.unit else Value.int v in
            (* compute the legal return by replaying the prefix *)
            let prior =
              List.filter_map
                (function
                  | Action.Call c -> Some (c.meth, c.arg)
                  | Action.Ret _ -> None)
                acc
            in
            let ret_v =
              match Spec.run spec (List.rev ((meth, arg) :: prior)) with
              | Some (_, rets) -> List.nth rets (List.length rets - 1)
              | None -> Value.unit
            in
            (i + 1, ret i ret_v :: call i meth arg :: acc))
          (0, []) script
      in
      let h = List.rev h in
      Hist.well_formed h && Lin.Check.check spec h)

(* Removing a pending invocation preserves linearizability. *)
let prop_dropping_pending_preserves_lin =
  QCheck.Test.make ~count:60 ~name:"dropping pending preserves linearizability"
    QCheck.(int_bound 100_000)
    (fun seed ->
      (* random ABD run truncated mid-flight produces pending ops *)
      let open Sim in
      let obj = Objects.Abd.make ~name:"R" ~n:3 ~init:(Value.int 0) in
      let open Sim.Proc.Syntax in
      let program ~self =
        let* _ =
          Obj_impl.call obj ~self ~tag:"w" ~meth:"write" ~arg:(Value.int self)
        in
        let* _ = Obj_impl.call obj ~self ~tag:"r" ~meth:"read" ~arg:Value.unit in
        Proc.return ()
      in
      let config =
        { Runtime.n = 3; objects = [ obj ]; program; max_crashes = 0 }
      in
      let rng = Rng.of_int (seed + 1) in
      let t = Runtime.create config (Runtime.Gen (Rng.split rng)) in
      let budget = 20 + Rng.int rng 60 in
      (try
         for _ = 1 to budget do
           match Runtime.enabled t with
           | [] -> raise Exit
           | evs -> Runtime.step t (Rng.pick rng evs)
         done
       with Exit -> ());
      let h = Runtime.history t in
      let spec = Spec.register ~init:(Value.int 0) in
      (* truncated ABD histories are linearizable, and so is the completed
         projection *)
      Lin.Check.check spec h && Lin.Check.check spec (Hist.complete h))

let tests =
  [
    Alcotest.test_case "well-formed accepts" `Quick test_well_formed_accepts;
    Alcotest.test_case "well-formed rejects duplicate inv" `Quick
      test_well_formed_rejects_double_call;
    Alcotest.test_case "well-formed rejects orphan ret" `Quick
      test_well_formed_rejects_orphan_ret;
    Alcotest.test_case "well-formed rejects overlapping ops per process" `Quick
      test_well_formed_rejects_overlap_same_proc;
    Alcotest.test_case "well-formed rejects foreign ret" `Quick
      test_well_formed_rejects_ret_wrong_proc;
    Alcotest.test_case "ops extraction" `Quick test_ops_extraction;
    Alcotest.test_case "complete removes pending" `Quick test_complete_removes_pending;
    Alcotest.test_case "projections" `Quick test_projections;
    Alcotest.test_case "is_sequential" `Quick test_is_sequential;
    Alcotest.test_case "precedes" `Quick test_precedes;
    Alcotest.test_case "spec: register run" `Quick test_spec_run_register;
    Alcotest.test_case "spec: illegal method" `Quick test_spec_run_illegal;
    Alcotest.test_case "spec: counter" `Quick test_spec_counter;
    Alcotest.test_case "spec: max register" `Quick test_spec_max_register;
    Alcotest.test_case "spec: snapshot bad index" `Quick test_spec_snapshot_bad_index;
    Alcotest.test_case "outcome occurrences" `Quick test_outcome_occurrences;
    Alcotest.test_case "outcome skips pending" `Quick test_outcome_skips_pending;
    QCheck_alcotest.to_alcotest prop_sequential_histories_linearizable;
    QCheck_alcotest.to_alcotest prop_dropping_pending_preserves_lin;
  ]
