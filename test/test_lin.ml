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

(* ------------------------------------------------------------------ *)
(* The operation table: the checker against a brute-force reference,
   histories whose chosen set spans several bytes, and a pin of the
   search's node and backtrack counts. *)

(* Reference validity of a sequence of distinct operation positions:
   every completed operation occurs, no operation occurs after one that
   was called after it returned, and the sequence replays through [spec]
   with the recorded returns. Returns the specification's return values. *)
let reference_replay (spec : Spec.t) (ops : Hist.op array) seq =
  let precedes (a : Hist.op) (b : Hist.op) =
    match a.ret_index with Some r -> r < b.call_index | None -> false
  in
  let rec in_order = function
    | [] -> true
    | i :: later ->
        List.for_all (fun j -> not (precedes ops.(j) ops.(i))) later
        && in_order later
  in
  let covers =
    Array.for_all Fun.id
      (Array.mapi (fun i (o : Hist.op) -> o.ret = None || List.mem i seq) ops)
  in
  let rec replay state acc = function
    | [] -> Some (List.rev acc)
    | i :: rest -> (
        let o = ops.(i) in
        match spec.apply state ~meth:o.call.meth ~arg:o.call.arg with
        | None -> None
        | Some (state', ret) -> (
            match o.ret with
            | Some expected when not (Value.equal expected ret) -> None
            | _ -> replay state' (ret :: acc) rest))
  in
  if covers && in_order seq then replay spec.init [] seq else None

(* Brute force: some permutation of all operations has a prefix that is a
   valid sequence. *)
let reference_linearizable spec ops =
  let n = Array.length ops in
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x -> List.map (List.cons x) (permutations (List.filter (( <> ) x) xs)))
          xs
  in
  List.exists
    (fun perm ->
      List.exists
        (fun k ->
          let prefix = List.filteri (fun i _ -> i < k) perm in
          reference_replay spec ops prefix <> None)
        (List.init (n + 1) Fun.id))
    (permutations (List.init n Fun.id))

(* A witness is valid for the reference when it names distinct operations
   with their calls and the returns the reference replay computes. *)
let reference_witness_ok spec (ops : Hist.op array) (lin : Check.linearization) =
  let position (s : Check.lin_step) =
    let rec go i =
      if i >= Array.length ops then None
      else if ops.(i).call.inv = s.inv then Some i
      else go (i + 1)
    in
    go 0
  in
  let seq = List.filter_map position lin in
  List.length seq = List.length lin
  && List.length (List.sort_uniq compare seq) = List.length seq
  && List.for_all2
       (fun (s : Check.lin_step) i ->
         s.meth = ops.(i).call.meth && Value.equal s.arg ops.(i).call.arg)
       lin seq
  &&
  match reference_replay spec ops seq with
  | None -> false
  | Some rets ->
      List.for_all2 (fun (s : Check.lin_step) r -> Value.equal s.ret r) lin rets

type kind = Reg | Max | Snap

let kind_spec = function
  | Reg -> spec_reg
  | Max -> Spec.max_register
  | Snap -> Spec.snapshot ~n:2 ~init:(Value.int 0)

let random_call rng kind =
  let v () = Value.int (1 + Rng.int rng 3) in
  match (kind, Rng.bool rng) with
  | (Reg | Max), true -> ("read", Value.unit)
  | (Reg | Max), false -> ("write", v ())
  | Snap, true -> ("scan", Value.unit)
  | Snap, false -> ("update", Value.pair (Value.int (Rng.int rng 2)) (v ()))

(* A random well-formed history of at most [max_ops] operations over
   [procs] processes. Each operation takes effect on an atomic copy of
   the object at a random point between its call and its return, so the
   history is linearizable; a process may stop with its operation
   pending, before or after that point. *)
let random_history rng kind ~procs ~max_ops =
  let spec = kind_spec kind in
  let state = ref spec.init in
  (* per process: [`Idle], [`Called (inv, meth, arg)], [`Done (inv, ret)]
     after the effect, or [`Stopped] *)
  let st = Array.make procs `Idle in
  let issued = ref 0 and actions = ref [] in
  let emit a = actions := a :: !actions in
  let active p =
    match st.(p) with
    | `Idle -> !issued < max_ops
    | `Called _ | `Done _ -> true
    | `Stopped -> false
  in
  let rec loop () =
    match List.filter active (List.init procs Fun.id) with
    | [] -> ()
    | ps ->
        let p = Rng.pick rng ps in
        (match st.(p) with
        | (`Called _ | `Done _) when Rng.int rng 8 = 0 -> st.(p) <- `Stopped
        | `Idle ->
            let meth, arg = random_call rng kind in
            emit (call ~proc:p !issued meth arg);
            st.(p) <- `Called (!issued, meth, arg);
            incr issued
        | `Called (inv, meth, arg) -> (
            match spec.apply !state ~meth ~arg with
            | Some (s', r) ->
                state := s';
                st.(p) <- `Done (inv, r)
            | None -> assert false)
        | `Done (inv, r) ->
            emit (ret ~proc:p inv r);
            st.(p) <- `Idle
        | `Stopped -> ());
        loop ()
  in
  loop ();
  List.rev !actions

(* Replace one read's or scan's return with a random value, which may or
   may not keep the history linearizable. *)
let mutate_return rng kind h =
  let reads =
    List.filter_map
      (function
        | Action.Ret r when not (Value.equal r.value Value.unit) -> Some r.inv
        | _ -> None)
      h
  in
  match reads with
  | [] -> h
  | _ ->
      let target = Rng.pick rng reads in
      let v () = Value.int (Rng.int rng 4) in
      let value =
        match kind with Snap -> Value.list [ v (); v () ] | Reg | Max -> v ()
      in
      List.map
        (function
          | Action.Ret r when r.inv = target -> Action.Ret { r with value } | a -> a)
        h

let test_check_matches_brute_force () =
  let rng = Rng.of_int 2024 in
  let accepted = ref 0 and rejected = ref 0 and with_pending = ref 0 in
  List.iter
    (fun kind ->
      let spec = kind_spec kind in
      for i = 1 to 150 do
        let procs = 2 + Rng.int rng 2 and max_ops = 1 + Rng.int rng 7 in
        let h = random_history rng kind ~procs ~max_ops in
        let h = if Rng.bool rng then mutate_return rng kind h else h in
        let ops = Array.of_list (Hist.ops h) in
        if Array.exists (fun (o : Hist.op) -> o.ret = None) ops then incr with_pending;
        let expected = reference_linearizable spec ops in
        let ctx = Fmt.str "%s history %d: %a" spec.name i Hist.pp h in
        Alcotest.(check bool) (ctx ^ " check") expected (Check.check spec h);
        match Check.find spec h with
        | None ->
            Alcotest.(check bool) (ctx ^ " no witness") false expected;
            incr rejected
        | Some lin ->
            Alcotest.(check bool)
              (ctx ^ " witness validates") true (Check.validate spec h lin);
            Alcotest.(check bool)
              (ctx ^ " witness valid for the reference") true
              (reference_witness_ok spec ops lin);
            incr accepted
      done)
    [ Reg; Max; Snap ];
  (* the sample exercises both verdicts and pending calls *)
  Alcotest.(check bool) "some accepted" true (!accepted > 50);
  Alcotest.(check bool) "some rejected" true (!rejected > 50);
  Alcotest.(check bool) "some with pending calls" true (!with_pending > 50)

let test_long_sequential_history () =
  (* 72 operations: write i then read i, so the chosen set spans 9 bytes *)
  let h =
    List.concat
      (List.init 36 (fun i ->
           [
             call (2 * i) "write" (Value.int i);
             ret (2 * i) Value.unit;
             call ((2 * i) + 1) "read" Value.unit;
             ret ((2 * i) + 1) (Value.int i);
           ]))
  in
  (match Check.find spec_reg h with
  | None -> Alcotest.fail "sequential history rejected"
  | Some lin ->
      Alcotest.(check int) "every operation linearized" 72 (List.length lin);
      Alcotest.(check (list int))
        "in history order" (List.init 72 Fun.id)
        (List.map (fun (s : Check.lin_step) -> s.inv) lin);
      Alcotest.(check bool) "witness validates" true (Check.validate spec_reg h lin));
  (* the last read returning the previous write's value is stale *)
  let stale =
    List.map
      (function Action.Ret r when r.inv = 71 -> ret 71 (Value.int 34) | a -> a)
      h
  in
  Alcotest.(check bool) "stale last read rejected" false (Check.check spec_reg stale)

let test_long_concurrent_history () =
  let rng = Rng.of_int 7 in
  let rec draw attempts =
    let h = random_history rng Reg ~procs:3 ~max_ops:24 in
    let ops = Hist.ops h in
    if List.length ops >= 20 && List.exists (fun (o : Hist.op) -> o.ret = None) ops then h
    else if attempts = 0 then Alcotest.fail "no long history with pending calls drawn"
    else draw (attempts - 1)
  in
  let h = draw 100 in
  (match Check.find spec_reg h with
  | None -> Alcotest.fail "concurrent history rejected"
  | Some lin ->
      Alcotest.(check bool)
        "witness validates" true (Check.validate spec_reg h lin));
  (* a final read of a value nobody wrote, after one more completed write *)
  let n = List.length (Hist.ops h) in
  let bad =
    h
    @ [
        call ~proc:3 n "write" (Value.int 9);
        ret ~proc:3 n Value.unit;
        call ~proc:3 (n + 1) "read" Value.unit;
        ret ~proc:3 (n + 1) (Value.int 77);
      ]
  in
  Alcotest.(check bool) "unwritten value rejected" false (Check.check spec_reg bad)

(* Totals over the lin oracle of a fixed fuzz slice (seed 1, iterations
   0–999), recorded before the checker moved to the operation table: the
   same search visits the same nodes. *)
let test_fuzz_slice_counts_pinned () =
  let nodes = Obs.Metrics.counter "lin.nodes_visited" in
  let backtracks = Obs.Metrics.counter "lin.backtracks" in
  let n0 = Obs.Metrics.counter_value nodes in
  let b0 = Obs.Metrics.counter_value backtracks in
  let seed = 1 in
  for iter = 0 to 999 do
    let case =
      Fuzz.Case.generate ~planted:false (Fuzz.Oracle.case_stream ~seed ~iter)
    in
    let t, _codes = Fuzz.Oracle.run_recorded ~seed ~iter case in
    Alcotest.(check bool)
      (Fmt.str "iteration %d linearizable" iter)
      true
      (Result.is_ok (Fuzz.Oracle.lin_check case t))
  done;
  Alcotest.(check int) "nodes visited" 13_733 (Obs.Metrics.counter_value nodes - n0);
  Alcotest.(check int) "backtracks" 4_487 (Obs.Metrics.counter_value backtracks - b0)

let table_tests =
  [
    Alcotest.test_case "check and find match brute force" `Quick
      test_check_matches_brute_force;
    Alcotest.test_case "72-operation sequential history" `Quick test_long_sequential_history;
    Alcotest.test_case "long concurrent history with pending calls" `Quick
      test_long_concurrent_history;
    Alcotest.test_case "fuzz slice search counts pinned" `Quick test_fuzz_slice_counts_pinned;
  ]
