(* Tests for schedulers, Monte-Carlo estimation, and the Figure 1 scripted
   strong adversary against the real simulated ABD. *)

open Sim

let test_figure1_wins_both_coins () =
  Alcotest.(check bool) "adversary forces non-termination" true
    (Adversary.Figure1.always_wins ())

let test_figure1_traces_linearizable () =
  (* even while being defeated probabilistically, ABD stays linearizable *)
  let spec_r = History.Spec.register ~init:Util.Value.none in
  let spec_c = History.Spec.register ~init:(Util.Value.int (-1)) in
  List.iter
    (fun coin ->
      let t = Adversary.Figure1.run ~coin in
      let h = Runtime.history t in
      Alcotest.(check bool)
        (Fmt.str "R linearizable (coin %d)" coin)
        true
        (Lin.Check.check spec_r (History.Hist.project_obj h "R"));
      Alcotest.(check bool)
        (Fmt.str "C linearizable (coin %d)" coin)
        true
        (Lin.Check.check spec_c (History.Hist.project_obj h "C")))
    [ 0; 1 ]

let test_figure1_outcome_details () =
  (* coin 0: u1 = 0, u2 = 1; coin 1: u1 = 1, u2 = 0 *)
  List.iter
    (fun coin ->
      let t = Adversary.Figure1.run ~coin in
      let o = Runtime.outcome t in
      let get tag =
        match History.Outcome.find1 o tag with
        | Some (Util.Value.Int v) -> v
        | _ -> Alcotest.failf "missing %s" tag
      in
      Alcotest.(check int) (Fmt.str "u1 (coin %d)" coin) coin (get Programs.Weakener.tag_u1);
      Alcotest.(check int) (Fmt.str "u2 (coin %d)" coin) (1 - coin) (get Programs.Weakener.tag_u2);
      Alcotest.(check int) (Fmt.str "c (coin %d)" coin) coin (get Programs.Weakener.tag_c))
    [ 0; 1 ]

let test_figure1_is_strong_adversary () =
  (* the schedule prefixes up to (and including) the coin flip coincide for
     both tapes: the script does not peek at future randomness *)
  let entries_until_flip t =
    let rec take acc = function
      | [] -> List.rev acc
      | Trace.Randomized { kind = Proc.Program_random; _ } :: _ -> List.rev acc
      | e :: rest -> take (e :: acc) rest
    in
    take [] (Trace.entries (Runtime.trace t))
  in
  let t0 = Adversary.Figure1.run ~coin:0 in
  let t1 = Adversary.Figure1.run ~coin:1 in
  let show t = Fmt.str "%a" (Fmt.list ~sep:Fmt.cut Trace.pp_entry) (entries_until_flip t) in
  Alcotest.(check string) "common prefix" (show t0) (show t1)

let test_monte_carlo_atomic_weakener () =
  (* random (fair) scheduling is far from adversarial: bad is rare *)
  let r =
    Adversary.Monte_carlo.estimate ~trials:300 ~seed:11
      ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
      Programs.Weakener.atomic_config
  in
  Alcotest.(check bool) "well below adversarial 1/2" true (r.fraction < 0.3)

let test_monte_carlo_abd_weakener_completes () =
  let r =
    Adversary.Monte_carlo.estimate ~trials:100 ~seed:13
      ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
      Programs.Weakener.abd_config
  in
  Alcotest.(check int) "all trials ran" 100 r.trials;
  Alcotest.(check bool) "ci sane" true (r.ci_low <= r.fraction && r.fraction <= r.ci_high)

let test_monte_carlo_counts_deadlocks () =
  (* every process blocks on a message that never arrives: the estimate
     must count the deadlocks, not raise *)
  let deadlock_config () =
    let program ~self:_ =
      let open Sim.Proc.Syntax in
      let* _ = Sim.Proc.recv ~descr:"never" (fun _ -> false) in
      Sim.Proc.return ()
    in
    {
      Runtime.n = 2;
      objects = [];
      program;
      max_crashes = 0;
    }
  in
  let r =
    Adversary.Monte_carlo.estimate ~trials:5 ~seed:3
      ~scheduler:Adversary.Schedulers.uniform
      ~bad:(fun _ -> true)
      deadlock_config
  in
  Alcotest.(check int) "all trials counted" 5 r.trials;
  Alcotest.(check int) "all deadlocked" 5 r.deadlocks;
  Alcotest.(check int) "none step-limited" 0 r.step_limited;
  (* abnormal trials never count as bad: the outcome was not observed *)
  Alcotest.(check int) "no bad outcomes" 0 r.bad;
  Alcotest.(check (float 0.0)) "fraction over all trials" 0.0 r.fraction

let test_monte_carlo_counts_step_limits () =
  (* the ABD weakener needs ~190 steps; a 50-step budget cannot finish *)
  let r =
    Adversary.Monte_carlo.estimate ~max_steps:50 ~trials:5 ~seed:7
      ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
      Programs.Weakener.abd_config
  in
  Alcotest.(check int) "all trials counted" 5 r.trials;
  Alcotest.(check int) "all step-limited" 5 r.step_limited;
  Alcotest.(check int) "none deadlocked" 0 r.deadlocks;
  Alcotest.(check int) "no bad outcomes" 0 r.bad

let test_round_robin_scheduler_completes () =
  let config = Programs.Weakener.abd_config () in
  let t = Runtime.create config (Runtime.Gen (Util.Rng.of_int 5)) in
  match Runtime.run t ~max_steps:100_000 (Adversary.Schedulers.round_robin ()) with
  | Runtime.Completed -> ()
  | Runtime.Deadlocked -> Alcotest.fail "deadlock"
  | Runtime.Step_limit_reached -> Alcotest.fail "step limit"

let test_eager_delivery_completes () =
  let config = Programs.Weakener.abd_k_config ~k:3 in
  let t = Runtime.create config (Runtime.Gen (Util.Rng.of_int 5)) in
  match Runtime.run t ~max_steps:200_000 Adversary.Schedulers.eager_delivery with
  | Runtime.Completed -> ()
  | Runtime.Deadlocked -> Alcotest.fail "deadlock"
  | Runtime.Step_limit_reached -> Alcotest.fail "step limit"

let test_prefer_process () =
  (* preferring p2 starves nobody here but biases the interleaving; the
     run must still complete and stay linearizable *)
  let config = Programs.Weakener.abd_config () in
  let t = Runtime.create config (Runtime.Gen (Util.Rng.of_int 9)) in
  let sched =
    Adversary.Schedulers.prefer_process 2 Adversary.Schedulers.eager_delivery
  in
  (match Runtime.run t ~max_steps:100_000 sched with
  | Runtime.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  let spec = History.Spec.register ~init:Util.Value.none in
  Alcotest.(check bool) "R linearizable" true
    (Lin.Check.check spec (History.Hist.project_obj (Runtime.history t) "R"))

(* Every scheduler's choices, pinned. Each policy runs under [recording]
   (which logs the index of each choice among the enabled events) on 12
   seeded runs of three configurations, and the recorded indices plus
   each run's end go into one MD5. A runtime or scheduler change that
   moves any choice, or the enabled order it indexes, moves the digest. *)
let test_scheduler_choices_pinned () =
  let module S = Adversary.Schedulers in
  let configs =
    [
      (fun () -> Programs.Weakener.abd_k_config ~k:2);
      (fun () -> Programs.Ben_or.config ~n:3 ~f:1 ~inputs:[ 0; 1; 1 ] ~max_rounds:4);
      (fun () ->
        Fuzz.Case.config (Fuzz.Case.Registers { impl = Fuzz.Case.Va_k 2; n = 3 }));
    ]
  in
  let policies () =
    let rr = S.round_robin () in
    [
      ("round_robin", fun _ -> rr);
      ("eager_delivery", fun _ -> S.eager_delivery);
      ("prefer_process", fun rng -> S.prefer_process 1 (S.uniform rng));
      ("lazy_delivery", S.lazy_delivery);
      ("uniform", S.uniform);
    ]
  in
  let buf = Buffer.create 4096 in
  List.iteri
    (fun c mk ->
      for i = 0 to 11 do
        List.iter
          (fun (name, policy) ->
            let t =
              Runtime.create (mk ())
                (Runtime.Gen (Util.Rng.stream ~seed:(100 + c) ~index:((2 * i) + 1)))
            in
            let recorded = ref [] in
            let sched =
              S.recording policy (Util.Rng.stream ~seed:(100 + c) ~index:(2 * i)) recorded
            in
            let r = Runtime.run t ~max_steps:20_000 sched in
            Buffer.add_string buf name;
            List.iter
              (fun j -> Buffer.add_string buf (string_of_int j); Buffer.add_char buf ',')
              (List.rev !recorded);
            Buffer.add_string buf (Fmt.str "%a;" Runtime.pp_run_result r))
          (policies ())
      done)
    configs;
  Alcotest.(check string) "pinned digest" "88d66b87defe8f1759d206e1acb95c54"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let tests =
  [
    Alcotest.test_case "Figure 1 adversary wins for both coins" `Quick
      test_figure1_wins_both_coins;
    Alcotest.test_case "Figure 1 traces stay linearizable" `Quick
      test_figure1_traces_linearizable;
    Alcotest.test_case "Figure 1 outcome values match A.2" `Quick
      test_figure1_outcome_details;
    Alcotest.test_case "Figure 1 script is a strong adversary" `Quick
      test_figure1_is_strong_adversary;
    Alcotest.test_case "Monte Carlo: fair scheduling is benign" `Quick
      test_monte_carlo_atomic_weakener;
    Alcotest.test_case "Monte Carlo: ABD weakener estimation" `Quick
      test_monte_carlo_abd_weakener_completes;
    Alcotest.test_case "Monte Carlo: deadlocked trials are counted" `Quick
      test_monte_carlo_counts_deadlocks;
    Alcotest.test_case "Monte Carlo: step-limited trials are counted" `Quick
      test_monte_carlo_counts_step_limits;
    Alcotest.test_case "round-robin scheduler" `Quick test_round_robin_scheduler_completes;
    Alcotest.test_case "eager-delivery scheduler" `Quick test_eager_delivery_completes;
    Alcotest.test_case "prefer-process scheduler" `Quick test_prefer_process;
    Alcotest.test_case "scheduler choices pinned" `Quick test_scheduler_choices_pinned;
  ]
