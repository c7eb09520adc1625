open Util

let log_src = Logs.Src.create "blunting.adversary" ~doc:"Monte-Carlo estimation"

module Log = (val Logs.src_log log_src : Logs.LOG)

module M = struct
  open Obs.Metrics

  let trials = counter ~help:"Monte-Carlo trials run" "mc.trials"
  let bad = counter ~help:"trials with the bad outcome" "mc.bad_outcomes"
  let deadlocks = counter ~help:"trials ending deadlocked" "mc.deadlocks"
  let step_limited = counter ~help:"trials hitting the step limit" "mc.step_limited"
end

type result = {
  trials : int;
  bad : int;
  deadlocks : int;
  step_limited : int;
  fraction : float;
  ci_low : float;
  ci_high : float;
}

(* What one trial reports back for the sequential merge. Trials are pure
   functions of (seed, index): both RNG streams are derived from the pair,
   so any domain can run any trial and the merged tallies cannot depend on
   the schedule. *)
type trial = { outcome : Sim.Runtime.run_result; is_bad : bool }

let run_trial ~max_steps ~seed ~scheduler ~bad mk_config i =
  let sched_rng = Rng.stream ~seed ~index:(2 * i) in
  let tape_rng = Rng.stream ~seed ~index:((2 * i) + 1) in
  (* trials only read the outcome — a History-level trace skips
     allocating the per-event entries on the hot loop *)
  let t =
    Sim.Runtime.create ~trace_level:Sim.Trace.History (mk_config ())
      (Sim.Runtime.Gen tape_rng)
  in
  let outcome = Sim.Runtime.run t ~max_steps (scheduler sched_rng) in
  let is_bad =
    match outcome with
    | Sim.Runtime.Completed -> bad (Sim.Runtime.outcome t)
    | Sim.Runtime.Deadlocked | Sim.Runtime.Step_limit_reached -> false
  in
  { outcome; is_bad }

let estimate ?(max_steps = 1_000_000) ?(jobs = 1) ~trials ~seed ~scheduler
    ~bad mk_config =
  let run = run_trial ~max_steps ~seed ~scheduler ~bad mk_config in
  let results =
    if jobs <= 1 then Array.init trials run
    else Par.Pool.with_pool ~jobs (fun p -> Par.Pool.map p ~n:trials run)
  in
  (* merge on the calling domain, in trial order: counters, metrics and
     logging all stay single-domain *)
  let bad_count = ref 0 in
  let deadlocks = ref 0 in
  let step_limited = ref 0 in
  Array.iteri
    (fun i r ->
      Obs.Metrics.incr M.trials;
      (match r.outcome with
      | Sim.Runtime.Completed ->
          if r.is_bad then begin
            incr bad_count;
            Obs.Metrics.incr M.bad
          end
      | Sim.Runtime.Deadlocked ->
          incr deadlocks;
          Obs.Metrics.incr M.deadlocks
      | Sim.Runtime.Step_limit_reached ->
          incr step_limited;
          Obs.Metrics.incr M.step_limited);
      Log.debug (fun m ->
          m "trial %d/%d: %a, bad so far %d" (i + 1) trials
            Sim.Runtime.pp_run_result r.outcome !bad_count))
    results;
  if !deadlocks > 0 || !step_limited > 0 then
    Log.warn (fun m ->
        m "%d/%d trials deadlocked, %d/%d hit the %d-step limit" !deadlocks trials
          !step_limited trials max_steps);
  let fraction = Stats.fraction ~successes:!bad_count ~trials in
  let ci_low, ci_high = Stats.binomial_ci ~successes:!bad_count ~trials in
  Log.info (fun m ->
      m "%d trials: bad %d (%.4f [%.4f, %.4f])" trials !bad_count fraction ci_low
        ci_high);
  {
    trials;
    bad = !bad_count;
    deadlocks = !deadlocks;
    step_limited = !step_limited;
    fraction;
    ci_low;
    ci_high;
  }

let pp ppf r =
  Fmt.pf ppf "%d/%d = %.4f [%.4f, %.4f]" r.bad r.trials r.fraction r.ci_low
    r.ci_high;
  if r.deadlocks > 0 then Fmt.pf ppf " (%d deadlocked)" r.deadlocks;
  if r.step_limited > 0 then Fmt.pf ppf " (%d step-limited)" r.step_limited
