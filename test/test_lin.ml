(* Tests for the linearizability checkers: the history checker, the
   strong/tail-strong tree checker, and the Theorem 5.1 ABD linearization. *)

open Util
open History
open Lin

let spec_reg = Spec.register ~init:(Value.int 0)

(* Handy history constructors. *)
let call ?(obj = "R") ?(proc = 0) ?(tag = "t") inv meth arg =
  Action.Call { obj_name = obj; meth; arg; inv; proc; tag }

let ret ?(obj = "R") ?(proc = 0) inv value = Action.Ret { inv; value; proc; obj_name = obj }

let test_sequential_ok () =
  let h =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      ret 0 Value.unit ~proc:0;
      call 1 "read" Value.unit ~proc:1;
      ret 1 (Value.int 1) ~proc:1;
    ]
  in
  Alcotest.(check bool) "linearizable" true (Check.check spec_reg h)

let test_stale_read_rejected () =
  (* W(1) completes strictly before R, yet R returns 0: not linearizable *)
  let h =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      ret 0 Value.unit ~proc:0;
      call 1 "read" Value.unit ~proc:1;
      ret 1 (Value.int 0) ~proc:1;
    ]
  in
  Alcotest.(check bool) "not linearizable" false (Check.check spec_reg h)

let test_concurrent_flexible () =
  (* W(1) concurrent with R: R may return 0 or 1 *)
  let h v =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      call 1 "read" Value.unit ~proc:1;
      ret 1 (Value.int v) ~proc:1;
      ret 0 Value.unit ~proc:0;
    ]
  in
  Alcotest.(check bool) "R=0 ok" true (Check.check spec_reg (h 0));
  Alcotest.(check bool) "R=1 ok" true (Check.check spec_reg (h 1));
  Alcotest.(check bool) "R=2 not ok" false (Check.check spec_reg (h 2))

let test_pending_can_take_effect () =
  (* a write whose return is missing may still be linearized *)
  let h =
    [
      call 0 "write" (Value.int 7) ~proc:0;
      call 1 "read" Value.unit ~proc:1;
      ret 1 (Value.int 7) ~proc:1;
    ]
  in
  Alcotest.(check bool) "pending write visible" true (Check.check spec_reg h)

let test_new_old_inversion_rejected () =
  (* two sequential reads observing a concurrent write in the wrong order *)
  let h =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      call 1 "read" Value.unit ~proc:1;
      ret 1 (Value.int 1) ~proc:1;
      call 2 "read" Value.unit ~proc:1;
      ret 2 (Value.int 0) ~proc:1;
      ret 0 Value.unit ~proc:0;
    ]
  in
  Alcotest.(check bool) "inversion rejected" false (Check.check spec_reg h)

let test_find_witness_validates () =
  let h =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      call 1 "read" Value.unit ~proc:1;
      ret 1 (Value.int 1) ~proc:1;
      ret 0 Value.unit ~proc:0;
      call 2 "write" (Value.int 2) ~proc:0;
      ret 2 Value.unit ~proc:0;
    ]
  in
  match Check.find spec_reg h with
  | None -> Alcotest.fail "expected a witness"
  | Some lin -> Alcotest.(check bool) "witness validates" true (Check.validate spec_reg h lin)

let test_validate_rejects_wrong_order () =
  let h =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      ret 0 Value.unit ~proc:0;
      call 1 "write" (Value.int 2) ~proc:0;
      ret 1 Value.unit ~proc:0;
    ]
  in
  let bad =
    [
      { Check.inv = 1; meth = "write"; arg = Value.int 2; ret = Value.unit };
      { Check.inv = 0; meth = "write"; arg = Value.int 1; ret = Value.unit };
    ]
  in
  Alcotest.(check bool) "wrong real-time order" false (Check.validate spec_reg h bad)

let test_snapshot_spec () =
  let spec = Spec.snapshot ~n:2 ~init:(Value.int 0) in
  let h =
    [
      call 0 "update" (Value.pair (Value.int 0) (Value.int 5)) ~proc:0;
      ret 0 Value.unit ~proc:0;
      call 1 "scan" Value.unit ~proc:1;
      ret 1 (Value.list [ Value.int 5; Value.int 0 ]) ~proc:1;
    ]
  in
  Alcotest.(check bool) "snapshot history ok" true (Check.check spec h);
  let h_bad =
    [
      call 0 "update" (Value.pair (Value.int 0) (Value.int 5)) ~proc:0;
      ret 0 Value.unit ~proc:0;
      call 1 "scan" Value.unit ~proc:1;
      ret 1 (Value.list [ Value.int 0; Value.int 0 ]) ~proc:1;
    ]
  in
  Alcotest.(check bool) "missed completed update" false (Check.check spec h_bad)

let test_linearizations_extending_counts () =
  (* two concurrent completed writes: two orders, each optionally visible *)
  let h =
    [
      call 0 "write" (Value.int 1) ~proc:0;
      call 1 "write" (Value.int 2) ~proc:1;
      ret 0 Value.unit ~proc:0;
      ret 1 Value.unit ~proc:1;
    ]
  in
  let all = List.of_seq (Check.linearizations_extending spec_reg h []) in
  Alcotest.(check int) "both orders enumerated" 2 (List.length all)

(* ------------------------------------------------------------------ *)
(* Strong-linearizability tree checker                                  *)

(* A "sticky" register: only the first write takes effect. Its inflexible
   write order makes forced-commitment scenarios easy to build. *)
let sticky : Spec.t =
  {
    name = "sticky";
    init = Value.int 0;
    apply =
      (fun state ~meth ~arg ->
        match meth with
        | "read" -> Some (state, state)
        | "write" ->
            if Value.equal state (Value.int 0) then Some (arg, Value.unit)
            else Some (state, Value.unit)
        | _ -> None);
  }

(* Root: R0 returns 0, then W1 and W2 both complete. Children disagree on
   which write won, so no prefix-preserving linearization function exists. *)
let violation_tree ~root_complete =
  let base =
    [
      call 0 "read" Value.unit ~proc:2;
      ret 0 (Value.int 0) ~proc:2;
      call 1 "write" (Value.int 1) ~proc:0;
      call 2 "write" (Value.int 2) ~proc:1;
      ret 1 Value.unit ~proc:0;
      ret 2 Value.unit ~proc:1;
    ]
  in
  let child v inv =
    Lin.Tree.leaf ~descr:(Fmt.str "reads %d" v) ~complete:true
      (base @ [ call inv "read" Value.unit ~proc:2; ret inv (Value.int v) ~proc:2 ])
  in
  Lin.Tree.node ~descr:"root" ~complete:root_complete base [ child 1 3; child 2 4 ]

let test_strong_violation_detected () =
  Alcotest.(check bool)
    "no prefix-preserving f" false
    (Lin.Tree.strongly_linearizable sticky (violation_tree ~root_complete:true));
  match Lin.Tree.first_violation sticky (violation_tree ~root_complete:true) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a violation report"

let test_tail_strong_unconstrained_root () =
  (* marking the root incomplete (its writes have not passed their
     preamble) removes the constraint: tail strong linearizability holds *)
  Alcotest.(check bool)
    "incomplete root unconstrained" true
    (Lin.Tree.strongly_linearizable sticky (violation_tree ~root_complete:false))

let test_strong_positive_chain () =
  (* a sequential chain of executions is trivially strongly linearizable *)
  let h1 = [ call 0 "write" (Value.int 1) ~proc:0 ] in
  let h2 = h1 @ [ ret 0 Value.unit ~proc:0 ] in
  let h3 = h2 @ [ call 1 "read" Value.unit ~proc:1; ret 1 (Value.int 1) ~proc:1 ] in
  let tree =
    Lin.Tree.node ~complete:true h1
      [ Lin.Tree.node ~complete:true h2 [ Lin.Tree.leaf ~complete:true h3 ] ]
  in
  Alcotest.(check bool) "chain ok" true (Lin.Tree.strongly_linearizable spec_reg tree)

(* ------------------------------------------------------------------ *)
(* Enumeration: the atomic register is strongly linearizable            *)

let atomic_pair_config () =
  let reg = Objects.Atomic_register.make ~name:"X" ~init:(Value.int 0) in
  let program ~self =
    let open Sim.Proc.Syntax in
    match self with
    | 0 ->
        let* _ =
          Sim.Obj_impl.call reg ~self ~tag:"w" ~meth:"write" ~arg:(Value.int 1)
        in
        Sim.Proc.return ()
    | _ ->
        let* _ = Sim.Obj_impl.call reg ~self ~tag:"r" ~meth:"read" ~arg:Value.unit in
        Sim.Proc.return ()
  in
  {
    Sim.Runtime.n = 2;
    objects = [ reg ];
    program;
    enable_crashes = false;
    max_crashes = 0;
  }

let test_atomic_strongly_linearizable () =
  let tree =
    Lin.Enumerate.tree ~preamble_map:Lin.Preamble_map.trivial (atomic_pair_config ())
  in
  Alcotest.(check bool) "tree nonempty" true (Lin.Tree.size tree > 10);
  Alcotest.(check bool)
    "atomic register strongly linearizable" true
    (Lin.Tree.strongly_linearizable spec_reg tree)

let test_enumeration_counts_executions () =
  let traces = Lin.Enumerate.executions (atomic_pair_config ()) in
  (* each process takes 4 steps (call marker, register access, return
     marker, termination): C(8,4) = 70 interleavings *)
  Alcotest.(check int) "70 maximal executions" 70 (List.length traces)

(* ------------------------------------------------------------------ *)
(* Theorem 5.1: ABD's timestamp linearization is prefix-preserving      *)

let abd_client_config ~k () =
  let n = 3 in
  let r =
    if k = 0 then Objects.Abd.make ~name:"R" ~n ~init:(Value.int 0)
    else Objects.Abd.make_k ~k ~name:"R" ~n ~init:(Value.int 0)
  in
  let program ~self =
    let open Sim.Proc.Syntax in
    let* _ =
      Sim.Obj_impl.call r ~self ~tag:"w" ~meth:"write"
        ~arg:(Value.int (self + 10))
    in
    let* _ = Sim.Obj_impl.call r ~self ~tag:"r" ~meth:"read" ~arg:Value.unit in
    Sim.Proc.return ()
  in
  {
    Sim.Runtime.n = n;
    objects = [ r ];
    program;
    enable_crashes = false;
    max_crashes = 0;
  }

let test_abd_prefix_preserving () =
  for seed = 1 to 25 do
    let t = Scheds.run_random ~seed (abd_client_config ~k:0 ()) in
    Alcotest.(check bool)
      (Fmt.str "prefix-preserving (seed %d)" seed)
      true
      (Lin.Abd_lin.prefix_preserving ~obj_name:"R" (Sim.Runtime.trace t))
  done

let test_abd_k_prefix_preserving () =
  for seed = 1 to 10 do
    let t = Scheds.run_random ~seed (abd_client_config ~k:2 ()) in
    Alcotest.(check bool)
      (Fmt.str "ABD^2 prefix-preserving (seed %d)" seed)
      true
      (Lin.Abd_lin.prefix_preserving ~obj_name:"R" (Sim.Runtime.trace t))
  done

let test_abd_linearization_validates () =
  for seed = 1 to 15 do
    let t = Scheds.run_random ~seed (abd_client_config ~k:0 ()) in
    let entries = Sim.Trace.entries (Sim.Runtime.trace t) in
    let f_e = Lin.Abd_lin.linearize ~obj_name:"R" entries in
    let h = Sim.Runtime.history t in
    Alcotest.(check bool)
      (Fmt.str "f(e) is a valid linearization (seed %d)" seed)
      true
      (Check.validate spec_reg h f_e)
  done

let tests =
  [
    Alcotest.test_case "sequential history ok" `Quick test_sequential_ok;
    Alcotest.test_case "stale read rejected" `Quick test_stale_read_rejected;
    Alcotest.test_case "concurrent reads flexible" `Quick test_concurrent_flexible;
    Alcotest.test_case "pending write can take effect" `Quick test_pending_can_take_effect;
    Alcotest.test_case "new/old inversion rejected" `Quick test_new_old_inversion_rejected;
    Alcotest.test_case "witness validates" `Quick test_find_witness_validates;
    Alcotest.test_case "validate rejects wrong order" `Quick test_validate_rejects_wrong_order;
    Alcotest.test_case "snapshot spec histories" `Quick test_snapshot_spec;
    Alcotest.test_case "linearization enumeration" `Quick test_linearizations_extending_counts;
    Alcotest.test_case "strong-lin violation detected" `Quick test_strong_violation_detected;
    Alcotest.test_case "tail strong: incomplete root unconstrained" `Quick
      test_tail_strong_unconstrained_root;
    Alcotest.test_case "strong-lin positive chain" `Quick test_strong_positive_chain;
    Alcotest.test_case "atomic register strongly linearizable (enumerated)" `Slow
      test_atomic_strongly_linearizable;
    Alcotest.test_case "enumeration counts maximal executions" `Quick
      test_enumeration_counts_executions;
    Alcotest.test_case "Thm 5.1: ABD f prefix-preserving" `Slow test_abd_prefix_preserving;
    Alcotest.test_case "Thm 5.1: ABD^2 f prefix-preserving" `Slow
      test_abd_k_prefix_preserving;
    Alcotest.test_case "Thm 5.1: f(e) validates" `Slow test_abd_linearization_validates;
  ]

(* ------------------------------------------------------------------ *)
(* Theorem 5.1-style prefix preservation for the Section 5.3/5.4 objects
   (the paper: "the proof of tail strong linearizability is similar to the
   one for the ABD register") *)

let va_client_config () =
  let n = 3 in
  let r = Objects.Vitanyi_awerbuch.make ~name:"V" ~n ~init:(Value.int 0) in
  let program ~self =
    let open Sim.Proc.Syntax in
    let* _ =
      Sim.Obj_impl.call r ~self ~tag:"w" ~meth:"write" ~arg:(Value.int (self + 10))
    in
    let* _ = Sim.Obj_impl.call r ~self ~tag:"r" ~meth:"read" ~arg:Value.unit in
    Sim.Proc.return ()
  in
  { Sim.Runtime.n; objects = [ r ]; program; enable_crashes = false; max_crashes = 0 }

let test_va_prefix_preserving () =
  for seed = 1 to 20 do
    let t = Scheds.run_random ~seed (va_client_config ()) in
    Alcotest.(check bool)
      (Fmt.str "VA prefix-preserving (seed %d)" seed)
      true
      (Lin.Abd_lin.prefix_preserving ~obj_name:"V" (Sim.Runtime.trace t))
  done

let il_client_config () =
  let n = 3 and writer = 0 in
  let r = Objects.Israeli_li.make ~name:"I" ~n ~writer ~init:(Value.int 0) in
  let program ~self =
    let open Sim.Proc.Syntax in
    if self = writer then
      let* _ = Sim.Obj_impl.call r ~self ~tag:"w1" ~meth:"write" ~arg:(Value.int 1) in
      let* _ = Sim.Obj_impl.call r ~self ~tag:"w2" ~meth:"write" ~arg:(Value.int 2) in
      Sim.Proc.return ()
    else
      let* _ = Sim.Obj_impl.call r ~self ~tag:"r1" ~meth:"read" ~arg:Value.unit in
      let* _ = Sim.Obj_impl.call r ~self ~tag:"r2" ~meth:"read" ~arg:Value.unit in
      Sim.Proc.return ()
  in
  { Sim.Runtime.n; objects = [ r ]; program; enable_crashes = false; max_crashes = 0 }

let test_il_prefix_preserving () =
  for seed = 1 to 20 do
    let t = Scheds.run_random ~seed (il_client_config ()) in
    Alcotest.(check bool)
      (Fmt.str "IL prefix-preserving (seed %d)" seed)
      true
      (Lin.Abd_lin.prefix_preserving ~obj_name:"I" (Sim.Runtime.trace t))
  done

let more_tests =
  [
    Alcotest.test_case "Sec 5.3: VA f prefix-preserving" `Slow test_va_prefix_preserving;
    Alcotest.test_case "Sec 5.4: IL f prefix-preserving" `Slow test_il_prefix_preserving;
  ]

(* ------------------------------------------------------------------ *)
(* Locality (multi-object linearizability), on real weakener histories  *)

let weakener_specs =
  [
    ("R", Spec.register ~init:Value.none);
    ("C", Spec.register ~init:(Value.int (-1)));
  ]

let test_locality_on_weakener () =
  for seed = 1 to 15 do
    let config = Programs.Weakener.abd_config () in
    let rng = Rng.of_int seed in
    let t = Sim.Runtime.create config (Sim.Runtime.Gen (Rng.split rng)) in
    (match Sim.Runtime.run t ~max_steps:1_000_000 (Adversary.Schedulers.uniform rng) with
    | Sim.Runtime.Completed -> ()
    | _ -> Alcotest.fail "weakener run incomplete");
    let h = Sim.Runtime.history t in
    let local = Multi.check_local weakener_specs h in
    let mono = Multi.check_monolithic weakener_specs h in
    Alcotest.(check bool) (Fmt.str "local ok (seed %d)" seed) true local;
    Alcotest.(check bool) (Fmt.str "locality agreement (seed %d)" seed) local mono
  done

let test_locality_rejects_cross_object_nonsense () =
  (* an inversion inside one object fails both checks *)
  let h =
    [
      call 0 "write" (Value.int 1) ~obj:"R" ~proc:0;
      ret 0 Value.unit ~proc:0 ~obj:"R";
      call 1 "read" Value.unit ~obj:"R" ~proc:1;
      ret 1 Value.none ~proc:1 ~obj:"R";
      call 2 "read" Value.unit ~obj:"C" ~proc:1;
      ret 2 (Value.int (-1)) ~proc:1 ~obj:"C";
    ]
  in
  Alcotest.(check bool) "local rejects" false (Multi.check_local weakener_specs h);
  Alcotest.(check bool) "monolithic rejects" false
    (Multi.check_monolithic weakener_specs h)

let test_locality_unknown_object () =
  let h = [ call 0 "read" Value.unit ~obj:"X" ~proc:0 ] in
  Alcotest.(check bool) "unknown object fails" false
    (Multi.check_local weakener_specs h)

let locality_tests =
  [
    Alcotest.test_case "locality agreement on weakener histories" `Slow
      test_locality_on_weakener;
    Alcotest.test_case "locality rejects bad single-object history" `Quick
      test_locality_rejects_cross_object_nonsense;
    Alcotest.test_case "locality with unknown object" `Quick test_locality_unknown_object;
  ]
