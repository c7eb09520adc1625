(** Monte-Carlo estimation of bad-outcome probabilities on the simulator. *)

type result = {
  trials : int;
  bad : int;  (** completed trials satisfying the predicate *)
  deadlocks : int;  (** trials that ended with no enabled event *)
  step_limited : int;  (** trials that exhausted the step budget *)
  fraction : float;  (** [bad / trials] *)
  ci_low : float;  (** 95% Wilson interval *)
  ci_high : float;
}

(** [estimate ?max_steps ?jobs ~trials ~seed ~scheduler ~bad mk_config]
    runs [trials] independent executions of freshly built configurations
    (so object state never leaks between trials) under the given
    scheduler factory, and counts outcomes satisfying [bad].

    Trial [i] draws its scheduler and tape randomness from
    [Rng.stream ~seed ~index:(2i)] and [Rng.stream ~seed ~index:(2i+1)] —
    pure functions of [(seed, i)], not splits of a shared master — so
    trials are embarrassingly parallel: with [jobs > 1] they run across
    that many domains, on a pool this call spawns and joins before it
    returns, and the merged tallies, metrics and result are bit-identical
    at every job count. Counting, [Obs] metrics and logging all happen on
    the calling domain after the trials return.

    Abnormal terminations do not raise: trials that deadlock or hit
    [max_steps] (default 1,000,000) are counted in the corresponding
    fields — and in the [mc.deadlocks] / [mc.step_limited] metrics — and
    the estimate degrades gracefully. [fraction] and the confidence
    interval keep all [trials] in the denominator, so an abnormal trial
    counts as "bad not observed"; callers needing a conditional estimate
    can recompute from the fields. Progress logs at debug on the
    [blunting.adversary] source; a warning summarizes abnormal trials. *)
val estimate :
  ?max_steps:int ->
  ?jobs:int ->
  trials:int ->
  seed:int ->
  scheduler:(Util.Rng.t -> Schedulers.t) ->
  bad:(History.Outcome.t -> bool) ->
  (unit -> Sim.Runtime.config) ->
  result

val pp : Format.formatter -> result -> unit

val log_src : Logs.src
