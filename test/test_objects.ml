(* Tests for the object implementations: linearizability under adversarial
   random schedules, O^k equivalence (Theorem 4.1), fault tolerance, access
   discipline, message complexity. *)

open Util
open Sim
open Sim.Proc.Syntax

let reg_spec = History.Spec.register ~init:(Value.int 0)

(* A generic concurrent client: process i writes i+10, reads, writes i+20,
   reads again. Distinct values make linearizability checking sharp. *)
let rw_client obj ~self =
  let* _ =
    Obj_impl.call obj ~self ~tag:"w1" ~meth:"write" ~arg:(Value.int (self + 10))
  in
  let* _ = Obj_impl.call obj ~self ~tag:"r1" ~meth:"read" ~arg:Value.unit in
  let* _ =
    Obj_impl.call obj ~self ~tag:"w2" ~meth:"write" ~arg:(Value.int (self + 20))
  in
  let* _ = Obj_impl.call obj ~self ~tag:"r2" ~meth:"read" ~arg:Value.unit in
  Proc.return ()

let config_of_obj ?(n = 3) obj program =
  ignore obj;
  { Runtime.n; objects = [ obj ]; program; max_crashes = 0 }

let check_linearizable ?(n = 3) ~make_obj ~seeds () =
  List.iter
    (fun seed ->
      let obj = make_obj () in
      let t = Scheds.run_random ~seed (config_of_obj ~n obj (rw_client obj)) in
      let h = Runtime.history t in
      if not (Lin.Check.check reg_spec h) then
        Alcotest.failf "seed %d: non-linearizable history:@.%a" seed
          History.Hist.pp h)
    seeds

let seeds = List.init 20 (fun i -> i * 7 + 1)

let test_abd_linearizable () =
  check_linearizable ~make_obj:(fun () -> Objects.Abd.make ~name:"R" ~n:3 ~init:(Value.int 0)) ~seeds ()

let test_abd_n5_linearizable () =
  check_linearizable ~n:5
    ~make_obj:(fun () -> Objects.Abd.make ~name:"R" ~n:5 ~init:(Value.int 0))
    ~seeds:(List.init 8 (fun i -> i + 1))
    ()

let test_abd_k_linearizable () =
  List.iter
    (fun k ->
      check_linearizable
        ~make_obj:(fun () -> Objects.Abd.make_k ~k ~name:"R" ~n:3 ~init:(Value.int 0))
        ~seeds:(List.init 8 (fun i -> (i * 3) + k))
        ())
    [ 1; 2; 3 ]

let test_abd_sw_linearizable () =
  (* only process 0 writes *)
  let make_obj () =
    Objects.Abd.make_single_writer ~name:"R" ~n:3 ~writer:0 ~init:(Value.int 0)
  in
  let client obj ~self =
    if self = 0 then rw_client obj ~self
    else
      let* _ = Obj_impl.call obj ~self ~tag:"r1" ~meth:"read" ~arg:Value.unit in
      let* _ = Obj_impl.call obj ~self ~tag:"r2" ~meth:"read" ~arg:Value.unit in
      Proc.return ()
  in
  List.iter
    (fun seed ->
      let obj = make_obj () in
      let t = Scheds.run_random ~seed (config_of_obj obj (client obj)) in
      let h = Runtime.history t in
      if not (Lin.Check.check reg_spec h) then
        Alcotest.failf "seed %d: non-linearizable SW-ABD history:@.%a" seed
          History.Hist.pp h)
    seeds

let test_va_linearizable () =
  check_linearizable
    ~make_obj:(fun () ->
      Objects.Vitanyi_awerbuch.make ~name:"R" ~n:3 ~init:(Value.int 0))
    ~seeds ()

let test_va_k_linearizable () =
  check_linearizable
    ~make_obj:(fun () ->
      Objects.Vitanyi_awerbuch.make_k ~k:2 ~name:"R" ~n:3 ~init:(Value.int 0))
    ~seeds:(List.init 10 (fun i -> i + 2))
    ()

let test_il_linearizable () =
  let writer = 0 in
  let make_obj () =
    Objects.Israeli_li.make ~name:"R" ~n:3 ~writer ~init:(Value.int 0)
  in
  let client obj ~self =
    if self = writer then begin
      let* _ =
        Obj_impl.call obj ~self ~tag:"w1" ~meth:"write" ~arg:(Value.int 1)
      in
      let* _ =
        Obj_impl.call obj ~self ~tag:"w2" ~meth:"write" ~arg:(Value.int 2)
      in
      Proc.return ()
    end
    else
      let* _ = Obj_impl.call obj ~self ~tag:"r1" ~meth:"read" ~arg:Value.unit in
      let* _ = Obj_impl.call obj ~self ~tag:"r2" ~meth:"read" ~arg:Value.unit in
      Proc.return ()
  in
  List.iter
    (fun seed ->
      let obj = make_obj () in
      let t = Scheds.run_random ~seed (config_of_obj obj (client obj)) in
      let h = Runtime.history t in
      if not (Lin.Check.check reg_spec h) then
        Alcotest.failf "seed %d: non-linearizable IL history:@.%a" seed
          History.Hist.pp h)
    seeds

let test_il_k_linearizable () =
  let writer = 0 in
  let obj = Objects.Israeli_li.make_k ~k:3 ~name:"R" ~n:3 ~writer ~init:(Value.int 0) in
  let client ~self =
    if self = writer then
      let* _ = Obj_impl.call obj ~self ~tag:"w1" ~meth:"write" ~arg:(Value.int 1) in
      Proc.return ()
    else
      let* _ = Obj_impl.call obj ~self ~tag:"r1" ~meth:"read" ~arg:Value.unit in
      Proc.return ()
  in
  List.iter
    (fun seed ->
      let t = Scheds.run_random ~seed (config_of_obj obj client) in
      Alcotest.(check bool)
        (Fmt.str "IL^3 linearizable (seed %d)" seed)
        true
        (Lin.Check.check reg_spec (Runtime.history t)))
    (List.init 10 (fun i -> i + 1))

let snapshot_spec = History.Spec.snapshot ~n:3 ~init:(Value.int 0)

let snapshot_client obj ~self =
  let* _ =
    Obj_impl.call obj ~self ~tag:"u1" ~meth:"update"
      ~arg:(Value.pair (Value.int self) (Value.int (self + 1)))
  in
  let* _ = Obj_impl.call obj ~self ~tag:"s1" ~meth:"scan" ~arg:Value.unit in
  let* _ =
    Obj_impl.call obj ~self ~tag:"u2" ~meth:"update"
      ~arg:(Value.pair (Value.int self) (Value.int (self + 4)))
  in
  let* _ = Obj_impl.call obj ~self ~tag:"s2" ~meth:"scan" ~arg:Value.unit in
  Proc.return ()

let test_snapshot_linearizable () =
  List.iter
    (fun seed ->
      let obj = Objects.Afek_snapshot.make ~name:"S" ~n:3 ~init:(Value.int 0) in
      let t = Scheds.run_random ~seed (config_of_obj obj (snapshot_client obj)) in
      let h = Runtime.history t in
      if not (Lin.Check.check snapshot_spec h) then
        Alcotest.failf "seed %d: non-linearizable snapshot history:@.%a" seed
          History.Hist.pp h)
    seeds

let test_snapshot_k_linearizable () =
  List.iter
    (fun seed ->
      let obj = Objects.Afek_snapshot.make_k ~k:2 ~name:"S" ~n:3 ~init:(Value.int 0) in
      let t = Scheds.run_random ~seed (config_of_obj obj (snapshot_client obj)) in
      Alcotest.(check bool)
        (Fmt.str "snapshot^2 linearizable (seed %d)" seed)
        true
        (Lin.Check.check snapshot_spec (Runtime.history t)))
    (List.init 8 (fun i -> (i * 5) + 3))

let test_snapshot_sees_own_update () =
  (* sequentially: update then scan must reflect the update *)
  let obj = Objects.Afek_snapshot.make ~name:"S" ~n:2 ~init:(Value.int 0) in
  let result = ref Value.unit in
  let program ~self =
    if self = 0 then begin
      let* _ =
        Obj_impl.call obj ~self ~tag:"u" ~meth:"update"
          ~arg:(Value.pair (Value.int 0) (Value.int 42))
      in
      let* s = Obj_impl.call obj ~self ~tag:"s" ~meth:"scan" ~arg:Value.unit in
      result := s;
      Proc.return ()
    end
    else Proc.return ()
  in
  let t =
    Runtime.create
      { Runtime.n = 2; objects = [ obj ]; program; max_crashes = 0 }
      (Runtime.Gen (Rng.of_int 1))
  in
  (match Runtime.run t ~max_steps:10_000 (fun _ _ -> 0) with
  | Runtime.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  Alcotest.(check bool)
    "scan sees own update" true
    (Value.equal !result (Value.list [ Value.int 42; Value.int 0 ]))

(* Theorem 4.1 flavor: ABD^k produces register-linearizable histories and
   the same set of sequential outcomes as ABD for a sequential schedule. *)
let test_abd_k_equivalent_sequential () =
  let run_sequential make_obj =
    let obj = make_obj () in
    let results = ref [] in
    let program ~self =
      if self = 0 then begin
        let* _ = Obj_impl.call obj ~self ~tag:"w" ~meth:"write" ~arg:(Value.int 9) in
        let* v = Obj_impl.call obj ~self ~tag:"r" ~meth:"read" ~arg:Value.unit in
        results := [ v ];
        Proc.return ()
      end
      else Proc.return ()
    in
    let t =
      Runtime.create
        {
          Runtime.n = 3;
          objects = [ obj ];
          program;
          max_crashes = 0;
        }
        (Runtime.Gen (Rng.of_int 5))
    in
    (match Runtime.run t ~max_steps:100_000 Adversary.Schedulers.eager_delivery with
    | Runtime.Completed -> ()
    | _ -> Alcotest.fail "sequential run incomplete");
    !results
  in
  let base = run_sequential (fun () -> Objects.Abd.make ~name:"R" ~n:3 ~init:(Value.int 0)) in
  List.iter
    (fun k ->
      let transformed =
        run_sequential (fun () ->
            Objects.Abd.make_k ~k ~name:"R" ~n:3 ~init:(Value.int 0))
      in
      Alcotest.(check bool)
        (Fmt.str "ABD^%d sequential outcome matches ABD" k)
        true
        (List.for_all2 Value.equal base transformed))
    [ 1; 2; 4 ]

(* Message complexity: one ABD^k operation broadcasts k query messages and
   one update message, i.e. (k+1) * n point-to-point sends by the client. *)
let test_abd_k_message_count () =
  List.iter
    (fun k ->
      let n = 3 in
      let obj = Objects.Abd.make_k ~k ~name:"R" ~n ~init:(Value.int 0) in
      let program ~self =
        if self = 0 then
          let* _ = Obj_impl.call obj ~self ~tag:"w" ~meth:"write" ~arg:(Value.int 1) in
          Proc.return ()
        else Proc.return ()
      in
      let t =
        Runtime.create
          { Runtime.n = n; objects = [ obj ]; program; max_crashes = 0 }
          (Runtime.Gen (Rng.of_int 2))
      in
      (match Runtime.run t ~max_steps:100_000 Adversary.Schedulers.eager_delivery with
      | Runtime.Completed -> ()
      | _ -> Alcotest.fail "incomplete");
      let sends =
        List.filter
          (function
            | Trace.Sent { src; msg; _ } ->
                src = 0
                &&
                let tag = Message.tag_of msg.body in
                tag = "query" || tag = "update"
            | _ -> false)
          (Trace.entries (Runtime.trace t))
      in
      (* client sends: k query broadcasts + 1 update broadcast, n msgs each *)
      Alcotest.(check int)
        (Fmt.str "client sends for k=%d" k)
        ((k + 1) * n)
        (List.length sends))
    [ 1; 2; 3; 5 ]

(* Fault tolerance: ABD completes despite a crashed minority. *)
let test_abd_tolerates_minority_crash () =
  let n = 3 in
  let obj = Objects.Abd.make ~name:"R" ~n ~init:(Value.int 0) in
  let program ~self =
    if self = 2 then rw_client obj ~self else Proc.return ()
  in
  let config =
    { Runtime.n; objects = [ obj ]; program; max_crashes = 1 }
  in
  let rng = Rng.of_int 11 in
  let t = Runtime.create config (Runtime.Gen (Rng.split rng)) in
  (* crash p0 immediately, then schedule fairly at random *)
  Runtime.step t (Runtime.Crash 0);
  let choose = Adversary.Schedulers.uniform_no_crash rng in
  (match Runtime.run t ~max_steps:100_000 choose with
  | Runtime.Completed -> ()
  | Runtime.Deadlocked -> Alcotest.fail "deadlocked despite quorum alive"
  | Runtime.Step_limit_reached -> Alcotest.fail "step limit");
  Alcotest.(check bool)
    "history linearizable" true
    (Lin.Check.check reg_spec (Runtime.history t))

(* With a crashed majority, an ABD operation can never complete: the client
   blocks awaiting a quorum. *)
let test_abd_blocks_without_quorum () =
  let n = 3 in
  let obj = Objects.Abd.make ~name:"R" ~n ~init:(Value.int 0) in
  let program ~self =
    if self = 2 then
      let* _ = Obj_impl.call obj ~self ~tag:"r" ~meth:"read" ~arg:Value.unit in
      Proc.return ()
    else Proc.return ()
  in
  let config =
    { Runtime.n; objects = [ obj ]; program; max_crashes = 2 }
  in
  let t = Runtime.create config (Runtime.Gen (Rng.of_int 3)) in
  Runtime.step t (Runtime.Crash 0);
  Runtime.step t (Runtime.Crash 1);
  let rng = Rng.of_int 13 in
  let choose = Adversary.Schedulers.uniform_no_crash rng in
  (match Runtime.run t ~max_steps:5_000 choose with
  | Runtime.Completed -> Alcotest.fail "should not complete without a quorum"
  | Runtime.Deadlocked | Runtime.Step_limit_reached -> ());
  Alcotest.(check bool) "p2 still active" true (Runtime.is_active t 2)

(* QCheck: ABD histories are linearizable for arbitrary seeds. *)
let prop_abd_linearizable =
  QCheck.Test.make ~count:30 ~name:"ABD random-schedule linearizability"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let obj = Objects.Abd.make ~name:"R" ~n:3 ~init:(Value.int 0) in
      let t = Scheds.run_random ~seed:(seed + 1) (config_of_obj obj (rw_client obj)) in
      Lin.Check.check reg_spec (Runtime.history t))

let prop_va_linearizable =
  QCheck.Test.make ~count:30 ~name:"VA random-schedule linearizability"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let obj = Objects.Vitanyi_awerbuch.make ~name:"R" ~n:3 ~init:(Value.int 0) in
      let t = Scheds.run_random ~seed:(seed + 1) (config_of_obj obj (rw_client obj)) in
      Lin.Check.check reg_spec (Runtime.history t))

let prop_snapshot_linearizable =
  QCheck.Test.make ~count:20 ~name:"snapshot random-schedule linearizability"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let obj = Objects.Afek_snapshot.make ~name:"S" ~n:3 ~init:(Value.int 0) in
      let t = Scheds.run_random ~seed:(seed + 1) (config_of_obj obj (snapshot_client obj)) in
      Lin.Check.check snapshot_spec (Runtime.history t))

let prop_abd_k_linearizable =
  QCheck.Test.make ~count:20 ~name:"ABD^k random-schedule linearizability"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, k) ->
      let obj = Objects.Abd.make_k ~k ~name:"R" ~n:3 ~init:(Value.int 0) in
      let t = Scheds.run_random ~seed:(seed + 1) (config_of_obj obj (rw_client obj)) in
      Lin.Check.check reg_spec (Runtime.history t))

let tests =
  [
    Alcotest.test_case "ABD linearizable (n=3)" `Quick test_abd_linearizable;
    Alcotest.test_case "ABD linearizable (n=5)" `Slow test_abd_n5_linearizable;
    Alcotest.test_case "ABD^k linearizable" `Quick test_abd_k_linearizable;
    Alcotest.test_case "single-writer ABD linearizable" `Quick test_abd_sw_linearizable;
    Alcotest.test_case "Vitanyi-Awerbuch linearizable" `Quick test_va_linearizable;
    Alcotest.test_case "VA^2 linearizable" `Quick test_va_k_linearizable;
    Alcotest.test_case "Israeli-Li linearizable" `Quick test_il_linearizable;
    Alcotest.test_case "IL^3 linearizable" `Quick test_il_k_linearizable;
    Alcotest.test_case "Afek snapshot linearizable" `Quick test_snapshot_linearizable;
    Alcotest.test_case "snapshot^2 linearizable" `Quick test_snapshot_k_linearizable;
    Alcotest.test_case "snapshot sees own update" `Quick test_snapshot_sees_own_update;
    Alcotest.test_case "Thm 4.1: sequential equivalence" `Quick
      test_abd_k_equivalent_sequential;
    Alcotest.test_case "ABD^k message complexity" `Quick test_abd_k_message_count;
    Alcotest.test_case "ABD tolerates minority crash" `Quick
      test_abd_tolerates_minority_crash;
    Alcotest.test_case "ABD blocks without quorum" `Quick test_abd_blocks_without_quorum;
    QCheck_alcotest.to_alcotest prop_abd_linearizable;
    QCheck_alcotest.to_alcotest prop_va_linearizable;
    QCheck_alcotest.to_alcotest prop_snapshot_linearizable;
    QCheck_alcotest.to_alcotest prop_abd_k_linearizable;
  ]

(* ---- max register (the strongly linearizable positive case, Sec. 6) --- *)

let max_spec = History.Spec.max_register

let test_max_register_linearizable () =
  List.iter
    (fun seed ->
      let obj = Objects.Max_register.make ~name:"M" ~bound:8 in
      let program ~self =
        let call tag meth arg = Obj_impl.call obj ~self ~tag ~meth ~arg in
        let* _ = call "w1" "write" (Value.int (self + 1)) in
        let* _ = call "r1" "read" Value.unit in
        let* _ = call "w2" "write" (Value.int (self + 4)) in
        let* _ = call "r2" "read" Value.unit in
        Proc.return ()
      in
      let t =
        Scheds.run_random ~seed
          { Runtime.n = 3; objects = [ obj ]; program; max_crashes = 0 }
      in
      if not (Lin.Check.check max_spec (Runtime.history t)) then
        Alcotest.failf "seed %d: max register not linearizable:@.%a" seed
          History.Hist.pp (Runtime.history t))
    (List.init 25 (fun i -> i + 1))

let test_max_register_sequential () =
  let obj = Objects.Max_register.make ~name:"M" ~bound:10 in
  let got = ref [] in
  let program ~self =
    if self = 0 then begin
      let call tag meth arg = Obj_impl.call obj ~self ~tag ~meth ~arg in
      let* _ = call "w" "write" (Value.int 5) in
      let* a = call "r1" "read" Value.unit in
      let* _ = call "w2" "write" (Value.int 3) in
      let* b = call "r2" "read" Value.unit in
      got := [ a; b ];
      Proc.return ()
    end
    else Proc.return ()
  in
  let t =
    Runtime.create
      { Runtime.n = 1; objects = [ obj ]; program; max_crashes = 0 }
      (Runtime.Gen (Rng.of_int 1))
  in
  (match Runtime.run t ~max_steps:1000 (fun _ _ -> 0) with
  | Runtime.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  Alcotest.(check bool) "max semantics: 5 then still 5" true
    (!got = [ Value.int 5; Value.int 5 ])

let test_max_register_bounds () =
  let obj = Objects.Max_register.make ~name:"M" ~bound:4 in
  let program ~self =
    if self = 0 then
      let* _ = Obj_impl.call obj ~self ~tag:"w" ~meth:"write" ~arg:(Value.int 9) in
      Proc.return ()
    else Proc.return ()
  in
  let t =
    Runtime.create
      { Runtime.n = 1; objects = [ obj ]; program; max_crashes = 0 }
      (Runtime.Gen (Rng.of_int 1))
  in
  (* the out-of-bounds write must fault when its step executes *)
  let rec drive () =
    match Runtime.enabled t with
    | [] -> Alcotest.fail "expected Invalid_argument"
    | e :: _ -> Runtime.step t e; drive ()
  in
  (try drive () with Invalid_argument _ -> ())

(* ---- broken ABD: the checker catches a real protocol bug ------------- *)

(* Scripted new/old inversion against ABD-without-write-back: p0's write
   reaches only server 1; the first read sees it through server 1, the
   second read queries the two stale servers and travels back in time. *)
let test_no_writeback_inversion_detected () =
  let n = 3 in
  let obj = Objects.Abd.make_no_writeback ~name:"R" ~n ~init:Value.none in
  let program ~self =
    match self with
    | 0 ->
        let* _ = Obj_impl.call obj ~self ~tag:"w" ~meth:"write" ~arg:(Value.int 1) in
        Proc.return ()
    | 2 ->
        let* _ = Obj_impl.call obj ~self ~tag:"r1" ~meth:"read" ~arg:Value.unit in
        let* _ = Obj_impl.call obj ~self ~tag:"r2" ~meth:"read" ~arg:Value.unit in
        Proc.return ()
    | _ -> Proc.return ()
  in
  let t =
    Runtime.create
      { Runtime.n = n; objects = [ obj ]; program; max_crashes = 0 }
      (Runtime.Gen (Rng.of_int 1))
  in
  let run_to_block p =
    while List.mem (Runtime.Step p) (Runtime.enabled t) do
      Runtime.step t (Runtime.Step p)
    done
  in
  let deliver ~tag ~src ~dst =
    let matches (m : Runtime.in_transit) =
      m.src = src && m.dst = dst && Message.tag_of m.msg.body = tag
    in
    match List.find_opt matches (List.rev (Runtime.in_transit t)) with
    | Some m ->
        Runtime.step t (Runtime.Deliver m.msg_id);
        run_to_block dst
    | None -> Alcotest.failf "no %s message p%d->p%d in transit" tag src dst
  in
  (* p0's write: query via servers 0 and 1, update reaches server 1 only *)
  run_to_block 0;
  deliver ~tag:"query" ~src:0 ~dst:0;
  deliver ~tag:"query" ~src:0 ~dst:1;
  deliver ~tag:"reply" ~src:0 ~dst:0;
  deliver ~tag:"reply" ~src:1 ~dst:0;
  deliver ~tag:"update" ~src:0 ~dst:1;
  (* first read: replies from servers 1 (new) and 0 (stale) *)
  run_to_block 2;
  deliver ~tag:"query" ~src:2 ~dst:1;
  deliver ~tag:"query" ~src:2 ~dst:0;
  deliver ~tag:"reply" ~src:1 ~dst:2;
  deliver ~tag:"reply" ~src:0 ~dst:2;
  (* second read: replies from the two stale servers 0 and 2 *)
  deliver ~tag:"query" ~src:2 ~dst:0;
  deliver ~tag:"query" ~src:2 ~dst:2;
  deliver ~tag:"reply" ~src:0 ~dst:2;
  deliver ~tag:"reply" ~src:2 ~dst:2;
  let h = Runtime.history t in
  let o = Runtime.outcome t in
  Alcotest.(check bool) "r1 saw the write" true
    (History.Outcome.find1 o "r1" = Some (Value.int 1));
  Alcotest.(check bool) "r2 travelled back in time" true
    (History.Outcome.find1 o "r2" = Some Value.none);
  Alcotest.(check bool) "checker rejects the inversion" false
    (Lin.Check.check (History.Spec.register ~init:Value.none) h)

(* With the write-back restored, the same adversarial delivery pattern is
   impossible: the first read's write-back refreshes a quorum. *)
let test_writeback_prevents_inversion () =
  for seed = 1 to 25 do
    let obj = Objects.Abd.make ~name:"R" ~n:3 ~init:Value.none in
    let program ~self =
      match self with
      | 0 ->
          let* _ = Obj_impl.call obj ~self ~tag:"w" ~meth:"write" ~arg:(Value.int 1) in
          Proc.return ()
      | 2 ->
          let* _ = Obj_impl.call obj ~self ~tag:"r1" ~meth:"read" ~arg:Value.unit in
          let* _ = Obj_impl.call obj ~self ~tag:"r2" ~meth:"read" ~arg:Value.unit in
          Proc.return ()
      | _ -> Proc.return ()
    in
    let t =
      Scheds.run_random ~seed
        { Runtime.n = 3; objects = [ obj ]; program; max_crashes = 0 }
    in
    Alcotest.(check bool)
      (Fmt.str "linearizable (seed %d)" seed)
      true
      (Lin.Check.check (History.Spec.register ~init:Value.none) (Runtime.history t))
  done

let more_tests =
  [
    Alcotest.test_case "max register linearizable" `Quick test_max_register_linearizable;
    Alcotest.test_case "max register sequential semantics" `Quick
      test_max_register_sequential;
    Alcotest.test_case "max register bound enforcement" `Quick test_max_register_bounds;
    Alcotest.test_case "no-write-back ABD: inversion detected" `Quick
      test_no_writeback_inversion_detected;
    Alcotest.test_case "write-back prevents inversion" `Quick
      test_writeback_prevents_inversion;
  ]

(* ---- the transformation itself (Algorithm 2, label/choice mechanics) --- *)

(* A transparent test object: preamble notes which iteration ran; the tail
   notes which locals it received. Lets us check Algorithm 2's mechanics
   (k iterations, uniform choice honored, labels emitted) via the trace. *)
let probe_split : Objects.Transform.split =
  {
    preamble =
      (fun ~self:_ ~meth:_ ~arg:_ ->
        let* nonce = Proc.fresh in
        let* () = Proc.note "preamble_ran" (Value.int nonce) in
        Proc.return (Value.int nonce));
    tail =
      (fun ~self:_ ~meth:_ ~arg:_ locals ->
        let* () = Proc.note "tail_got" locals in
        Proc.return locals);
  }

let run_probe ~k ~tape =
  let obj : Obj_impl.t =
    {
      name = "probe";
      invoke = Objects.Transform.iterated_invoke ~k probe_split;
      on_message = None;
      init_server = None;
      registers = (fun ~n:_ -> []);
    }
  in
  let program ~self =
    if self = 0 then
      let* _ = Obj_impl.call obj ~self ~tag:"op" ~meth:"m" ~arg:Value.unit in
      Proc.return ()
    else Proc.return ()
  in
  let t =
    Runtime.create
      { Runtime.n = 1; objects = [ obj ]; program; max_crashes = 0 }
      (Runtime.Tape tape)
  in
  (match Runtime.run t ~max_steps:1000 (fun _ _ -> 0) with
  | Runtime.Completed -> ()
  | _ -> Alcotest.fail "probe run incomplete");
  Runtime.trace t

let noted name trace =
  List.filter_map
    (function
      | Trace.Noted { name = n'; value; _ } when n' = name -> Some value
      | _ -> None)
    (Trace.entries trace)

let test_transform_runs_k_preambles () =
  List.iter
    (fun k ->
      let trace = run_probe ~k ~tape:[| 0 |] in
      Alcotest.(check int)
        (Fmt.str "k=%d preambles ran" k)
        k
        (List.length (noted "preamble_ran" trace));
      Alcotest.(check int) "one tail" 1 (List.length (noted "tail_got" trace)))
    [ 1; 2; 5 ]

let test_transform_choice_honored () =
  (* with tape value j, the tail receives iteration j's locals *)
  List.iter
    (fun j ->
      let trace = run_probe ~k:3 ~tape:[| j |] in
      let preambles = noted "preamble_ran" trace in
      let tail = List.hd (noted "tail_got" trace) in
      Alcotest.(check bool)
        (Fmt.str "tape %d selects iteration %d" j j)
        true
        (Value.equal tail (List.nth preambles j)))
    [ 0; 1; 2 ]

let test_transform_labels () =
  let trace = run_probe ~k:2 ~tape:[| 1 |] in
  List.iter
    (fun lbl ->
      Alcotest.(check bool) (lbl ^ " emitted") true
        (List.exists
           (function Trace.Labeled { name; _ } -> name = lbl | _ -> false)
           (Trace.entries trace)))
    [ Objects.Transform.iter_label 1;
      Objects.Transform.iter_label 2;
      Objects.Transform.chosen_label ]

let test_transform_k_must_be_positive () =
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Transform.iterated_invoke: k must be >= 1") (fun () ->
      ignore
        (Objects.Transform.iterated_invoke ~k:0 probe_split ~self:0 ~meth:"m"
           ~arg:Value.unit))

let test_transform_object_random_kind () =
  (* the added choice is an *object* random step, distinguishable from
     program randomness (the accounting Theorem 4.2 relies on) *)
  let trace = run_probe ~k:4 ~tape:[| 2 |] in
  match Trace.random_draws trace with
  | [ (Proc.Object_random, 4, 2) ] -> ()
  | other ->
      Alcotest.failf "unexpected random draws (%d)" (List.length other)

let transform_tests =
  [
    Alcotest.test_case "Algorithm 2 runs k preambles" `Quick test_transform_runs_k_preambles;
    Alcotest.test_case "Algorithm 2 honors the choice" `Quick test_transform_choice_honored;
    Alcotest.test_case "Algorithm 2 emits control-point labels" `Quick test_transform_labels;
    Alcotest.test_case "Algorithm 2 rejects k = 0" `Quick test_transform_k_must_be_positive;
    Alcotest.test_case "the choice is an object random step" `Quick
      test_transform_object_random_kind;
  ]
