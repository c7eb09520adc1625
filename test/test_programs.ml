(* Tests for the randomized programs: the weakener, the GHW snapshot
   variant, and the round-based program of Section 7. *)

open Util
open Sim

let run_random ?(seed = 1) ?(max_steps = 2_000_000) config =
  let rng = Rng.of_int seed in
  let t = Runtime.create config (Runtime.Gen (Rng.split rng)) in
  match Runtime.run t ~max_steps (Adversary.Schedulers.uniform rng) with
  | Runtime.Completed -> t
  | Runtime.Deadlocked -> Alcotest.fail "deadlock"
  | Runtime.Step_limit_reached -> Alcotest.fail "step limit"

let test_weakener_runs_all_configs () =
  List.iter
    (fun (name, config) ->
      let t = run_random (config ()) in
      let o = Runtime.outcome t in
      List.iter
        (fun tag ->
          if History.Outcome.find1 o tag = None then
            Alcotest.failf "%s: missing outcome %s" name tag)
        [ Programs.Weakener.tag_u1; Programs.Weakener.tag_u2; Programs.Weakener.tag_c ])
    [
      ("atomic", Programs.Weakener.atomic_config);
      ("abd", Programs.Weakener.abd_config);
      ("abd^2", fun () -> Programs.Weakener.abd_k_config ~k:2);
      ("abd^4", fun () -> Programs.Weakener.abd_k_config ~k:4);
    ]

let test_weakener_bad_predicate () =
  let mk u1 u2 c =
    History.Outcome.empty
    |> (fun o -> History.Outcome.record o ~tag:Programs.Weakener.tag_u1 ~occurrence:0 u1)
    |> (fun o -> History.Outcome.record o ~tag:Programs.Weakener.tag_u2 ~occurrence:0 u2)
    |> fun o -> History.Outcome.record o ~tag:Programs.Weakener.tag_c ~occurrence:0 c
  in
  Alcotest.(check bool) "0,1,0 bad" true
    (Programs.Weakener.bad (mk (Value.int 0) (Value.int 1) (Value.int 0)));
  Alcotest.(check bool) "1,0,1 bad" true
    (Programs.Weakener.bad (mk (Value.int 1) (Value.int 0) (Value.int 1)));
  Alcotest.(check bool) "0,1,1 good" false
    (Programs.Weakener.bad (mk (Value.int 0) (Value.int 1) (Value.int 1)));
  Alcotest.(check bool) "bot u1 good" false
    (Programs.Weakener.bad (mk Value.none (Value.int 1) (Value.int 0)));
  Alcotest.(check bool) "unwritten c good" false
    (Programs.Weakener.bad (mk (Value.int 0) (Value.int 1) (Value.int (-1))))

let test_weakener_program_random_count () =
  (* the weakener has exactly one program random step (r = 1 in Thm 4.2) *)
  let t = run_random (Programs.Weakener.abd_k_config ~k:2) in
  let program_steps =
    List.filter
      (fun (kind, _, _) -> kind = Proc.Program_random)
      (Trace.random_draws (Runtime.trace t))
  in
  Alcotest.(check int) "one coin flip" 1 (List.length program_steps);
  (* and 4 object random steps for R (W0, W1, R1, R2) plus 2 for C ops by
     p1 and p2: every ABD^k operation has exactly one *)
  let object_steps =
    List.filter
      (fun (kind, _, _) -> kind = Proc.Object_random)
      (Trace.random_draws (Runtime.trace t))
  in
  Alcotest.(check int) "six object choices" 6 (List.length object_steps)

let test_ghw_configs_run () =
  List.iter
    (fun (name, config) ->
      let t = run_random (config ()) in
      let o = Runtime.outcome t in
      if History.Outcome.find1 o Programs.Ghw_snapshot.tag_s1 = None then
        Alcotest.failf "%s: missing s1" name)
    [
      ("afek", Programs.Ghw_snapshot.afek_config);
      ("afek^2", fun () -> Programs.Ghw_snapshot.afek_k_config ~k:2);
      ("atomic", Programs.Ghw_snapshot.atomic_config);
    ]

let test_ghw_u_classifier () =
  Alcotest.(check (option int)) "only p0" (Some 0)
    (Programs.Ghw_snapshot.u (Value.list [ Value.int 1; Value.int 0; Value.int 0 ]));
  Alcotest.(check (option int)) "only p1" (Some 1)
    (Programs.Ghw_snapshot.u (Value.list [ Value.int 0; Value.int 1; Value.int 0 ]));
  Alcotest.(check (option int)) "both" None
    (Programs.Ghw_snapshot.u (Value.list [ Value.int 1; Value.int 1; Value.int 0 ]));
  Alcotest.(check (option int)) "neither" None
    (Programs.Ghw_snapshot.u (Value.list [ Value.int 0; Value.int 0; Value.int 0 ]))

let test_ghw_snapshot_histories_linearizable () =
  let spec = History.Spec.snapshot ~n:3 ~init:(Value.int 0) in
  for seed = 1 to 10 do
    let t = run_random ~seed (Programs.Ghw_snapshot.afek_config ()) in
    Alcotest.(check bool)
      (Fmt.str "S linearizable (seed %d)" seed)
      true
      (Lin.Check.check spec (History.Hist.project_obj (Runtime.history t) "S"))
  done

let test_round_based_agrees () =
  let max_rounds = 80 in
  let config =
    Programs.Round_based.config ~n:3 ~rounds_before_fallback:4 ~max_rounds ~k:5
  in
  let t = run_random ~seed:21 ~max_steps:4_000_000 config in
  match Programs.Round_based.agreed_round_of_trace (Runtime.trace t) ~n:3 ~max_rounds with
  | Some r -> Alcotest.(check bool) "agreed within budget" true (r < max_rounds)
  | None -> Alcotest.fail "no agreement"

let test_round_based_histories_linearizable () =
  let max_rounds = 40 in
  let config =
    Programs.Round_based.config ~n:2 ~rounds_before_fallback:2 ~max_rounds ~k:3
  in
  let t = run_random ~seed:8 ~max_steps:4_000_000 config in
  let spec = History.Spec.register ~init:(Value.list []) in
  List.iter
    (fun i ->
      let name = Fmt.str "F%d" i in
      Alcotest.(check bool)
        (name ^ " linearizable")
        true
        (Lin.Check.check spec (History.Hist.project_obj (Runtime.history t) name)))
    [ 0; 1 ]

let tests =
  [
    Alcotest.test_case "weakener runs on all register choices" `Quick
      test_weakener_runs_all_configs;
    Alcotest.test_case "weakener bad predicate" `Quick test_weakener_bad_predicate;
    Alcotest.test_case "weakener random-step accounting" `Quick
      test_weakener_program_random_count;
    Alcotest.test_case "GHW snapshot configs run" `Quick test_ghw_configs_run;
    Alcotest.test_case "GHW u classifier" `Quick test_ghw_u_classifier;
    Alcotest.test_case "GHW snapshot histories linearizable" `Slow
      test_ghw_snapshot_histories_linearizable;
    Alcotest.test_case "round-based program agrees" `Slow test_round_based_agrees;
    Alcotest.test_case "round-based registers linearizable" `Slow
      test_round_based_histories_linearizable;
  ]

(* ---- Ben-Or randomized consensus (the motivating application class) --- *)

let run_ben_or ?(crash = None) ~seed ~inputs () =
  let n = List.length inputs in
  let config = Programs.Ben_or.config ~n ~f:1 ~inputs ~max_rounds:60 in
  let config =
    if crash = None then { config with Runtime.max_crashes = 0 } else config
  in
  let rng = Rng.of_int seed in
  let t = Runtime.create config (Runtime.Gen (Rng.split rng)) in
  (match crash with
  | Some p ->
      (* let everyone take a few steps, then fail p *)
      for _ = 1 to 6 do
        match Runtime.enabled t with
        | [] -> ()
        | evs -> (
            match List.find_opt (function Runtime.Step _ -> true | _ -> false) evs with
            | Some e -> Runtime.step t e
            | None -> Runtime.step t (List.hd evs))
      done;
      if Runtime.is_active t p then Runtime.step t (Runtime.Crash p)
  | None -> ());
  let sched = Adversary.Schedulers.uniform_no_crash rng in
  match Runtime.run t ~max_steps:2_000_000 sched with
  | Runtime.Completed -> t
  | Runtime.Deadlocked -> Alcotest.fail "ben-or deadlock"
  | Runtime.Step_limit_reached -> Alcotest.fail "ben-or step limit"

let test_ben_or_agreement_validity () =
  for seed = 1 to 25 do
    let inputs = [ seed mod 2; (seed / 2) mod 2; (seed / 4) mod 2 ] in
    let t = run_ben_or ~seed ~inputs () in
    let ds = Programs.Ben_or.decisions (Runtime.trace t) ~n:3 in
    Alcotest.(check bool) (Fmt.str "all decide (seed %d)" seed) true
      (List.for_all (( <> ) None) ds);
    Alcotest.(check bool) (Fmt.str "agreement (seed %d)" seed) true
      (Programs.Ben_or.agreement ds);
    Alcotest.(check bool) (Fmt.str "validity (seed %d)" seed) true
      (Programs.Ben_or.validity ~inputs ds)
  done

let test_ben_or_unanimous_fast () =
  (* unanimous input v must decide v *)
  List.iter
    (fun v ->
      for seed = 1 to 8 do
        let t = run_ben_or ~seed ~inputs:[ v; v; v ] () in
        let ds = Programs.Ben_or.decisions (Runtime.trace t) ~n:3 in
        List.iter
          (fun d ->
            Alcotest.(check (option int)) (Fmt.str "decides input %d" v) (Some v) d)
          ds
      done)
    [ 0; 1 ]

let test_ben_or_tolerates_crash () =
  for seed = 1 to 15 do
    let inputs = [ 0; 1; seed mod 2 ] in
    let t = run_ben_or ~crash:(Some (seed mod 3)) ~seed ~inputs () in
    let ds = Programs.Ben_or.decisions (Runtime.trace t) ~n:3 in
    let crashed = seed mod 3 in
    (* every surviving process decides; agreement and validity hold *)
    List.iteri
      (fun p d ->
        if p <> crashed && Runtime.is_crashed t p = false then
          Alcotest.(check bool) (Fmt.str "p%d decided (seed %d)" p seed) true
            (d <> None))
      ds;
    Alcotest.(check bool) (Fmt.str "agreement (seed %d)" seed) true
      (Programs.Ben_or.agreement ds);
    Alcotest.(check bool) (Fmt.str "validity (seed %d)" seed) true
      (Programs.Ben_or.validity ~inputs ds)
  done

let test_ben_or_rejects_bad_params () =
  Alcotest.check_raises "n <= 2f" (Invalid_argument "Ben_or.config: need n > 2f")
    (fun () -> ignore (Programs.Ben_or.config ~n:2 ~f:1 ~inputs:[ 0; 1 ] ~max_rounds:5))

let ben_or_tests =
  [
    Alcotest.test_case "Ben-Or: agreement & validity" `Slow test_ben_or_agreement_validity;
    Alcotest.test_case "Ben-Or: unanimous decides input" `Quick test_ben_or_unanimous_fast;
    Alcotest.test_case "Ben-Or: tolerates one crash" `Slow test_ben_or_tolerates_crash;
    Alcotest.test_case "Ben-Or: parameter validation" `Quick test_ben_or_rejects_bad_params;
  ]
