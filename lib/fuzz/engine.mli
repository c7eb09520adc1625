(** The fuzzing engine: seeded case generation, oracle evaluation,
    shrinking and corpus management.

    One fuzz session is a pure function of [(seed, budget)] when the
    budget is an iteration count: case generation, scheduling, random
    tapes and lockstep playouts all derive from {!Util.Rng.stream} on
    disjoint per-iteration indices, failures are collected in iteration
    order, and shrinking is deterministic — two runs with the same seed
    and budget produce identical summaries (and byte-identical corpus
    files), at every [--jobs] count. Time budgets trade that determinism
    for wall-clock control; the nightly CI job uses them.

    Iterations fan out over a {!Par.Pool} ([jobs] domains). The pool is
    managed by {!Par.Pool.with_pool}, so a raised oracle failure or any
    other exception unwinds without leaving worker domains alive. *)

type budget = Iterations of int | Seconds of float

(** [parse_budget s] accepts an iteration count (["10000"]) or a duration
    (["300s"], ["5m"]). *)
val parse_budget : string -> (budget, string) result

type summary = {
  seed : int;
  iterations : int;  (** cases generated and executed *)
  lin_checks : int;
  model_checks : int;
  dist_checks : int;
  par_checks : int;
  prune_checks : int;
  failures : Oracle.failure list;  (** shrunk, in iteration order *)
  corpus_files : string list;  (** written for each failure, if a dir was given *)
}

(** [pp_summary] is deliberately wall-clock-free: two deterministic runs
    print byte-identical summaries (the acceptance criterion CI checks). *)
val pp_summary : Format.formatter -> summary -> unit

val has_failures : summary -> bool

(** [run ~seed ~budget ()] fuzzes. [jobs] (default 1) sizes the domain
    pool; [corpus_dir] (default none) receives one corpus file per shrunk
    failure; [planted] (default false) makes every case use the broken
    no-write-back ABD so the failure path is exercised; [dist_trials]
    (default 400) sizes the distribution oracle's samples;
    [max_failures] (default 10) stops the session early once that many
    failures are collected. *)
val run :
  ?jobs:int ->
  ?corpus_dir:string ->
  ?planted:bool ->
  ?dist_trials:int ->
  ?max_failures:int ->
  seed:int ->
  budget:budget ->
  unit ->
  summary

(** [replay_file path] re-executes a corpus entry and evaluates its
    oracle. [Ok message] when the recorded expectation (fail or pass) is
    met, [Error message] when the verdict flipped or the file is
    unreadable. The message names the failing oracle with its
    diagnostic. For a [lin] entry, a schedule replay, it also attributes
    the adversary's decisions along the (shrunk) schedule — decision
    count, enabled-set size range and the step/deliver/crash split — from
    what the replay guide saw; [model], [par], [dist] and [prune] entries
    replay no schedule and carry no attribution. *)
val replay_file : string -> (string, string) result
