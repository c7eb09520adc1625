(** Regression detection between two {!Results} documents.

    This module is the consume side of the committed [BENCH_*.json]
    baselines: it compares a current results document against one and
    reports drift as typed findings. It compares only deterministic
    quantities; time is judged by [perf/compare.exe].

    Two kinds of comparison run in one pass:
    - {b paper drift} (hard): within the {e current} document, every row
      carrying both [paper_value] and [measured_value] must agree to an
      absolute tolerance. All experiments here are deterministic (exact
      game values, seeded Monte-Carlo), so any drift is a real regression.
    - {b run-vs-baseline drift} (hard): every measured row value and
      every per-section metric (values, state counts, counter deltas)
      must agree to a relative 1e-9, except an explicit list of
      machine- and schedule-dependent keys: [gc.minor_words], PAR's
      [solve_seq_seconds], [solve_par_seconds] and
      [recommended_domain_count], which only the gates below read, and
      PAR's [counters.mdp.memo_hits] and [counters.mdp.claim_misses],
      which the parallel solve's helping makes schedule-dependent.

    Two opt-in hard gates read the machine-dependent figures that matter:
    [min_speedup] and [max_alloc_ratio]. Missing sections, rows or
    metrics degrade to warnings (subset runs via [--only] are routine);
    new sections and rows are informational. Both documents must be
    schema v8. *)

type severity = Info | Warn | Fail

type finding = {
  severity : severity;
  section : string option;  (** experiment id, [None] for document-level *)
  subject : string;  (** row quantity, metric key, ... *)
  detail : string;
}

type config = {
  min_speedup : float option;
      (** when set, the {e current} document's PAR section must show
          [solve_seq_seconds / solve_par_seconds >= f] — a hard [Fail]
          below the floor, and a hard [Fail] if the PAR section or either
          timing metric is missing (a speedup gate that silently skipped
          would defeat its purpose), or if the section's
          [recommended_domain_count] is absent or below its [jobs] (an
          oversubscribed run measures the host). Default [None] (no
          check): parallel wall time is machine-bound, so the gate is
          opt-in for CI legs that know their runner's core count. *)
  max_alloc_ratio : float option;
      (** when set, every section present in both documents with a
          [gc.minor_words] metric must show
          [current / baseline <= f] — normalized per simulator step
          ([counters.sim.steps]) when the section counted steps, so
          trial-count changes don't read as allocation changes. A hard
          [Fail] past the ceiling, and a hard [Fail] when {e no} section
          pair carries GC data (a silently skipped allocation gate would
          defeat its purpose). Allocation counts are deterministic per
          workload on a given compiler — unlike wall time — so this is a
          hard gate, not a warning. Default [None]. *)
}

val default_config : config

type report = {
  findings : finding list;  (** sorted [Fail], [Warn], [Info] *)
  sections_compared : int;
  rows_compared : int;
  metrics_compared : int;
}

(** [diff ?config ~baseline ~current ()] validates both documents
    ({!Results.validate}) and compares them.
    [Error] means a document is unloadable or fails validation — distinct
    from a clean report with [Fail] findings. *)
val diff : ?config:config -> baseline:Json.t -> current:Json.t -> unit -> (report, string) result

val failures : report -> finding list

(** [exit_code r] is 0 when no [Fail] finding survived, 1 otherwise. *)
val exit_code : report -> int

(** [pp_report] renders the summary line, the findings table, and the
    OK/REGRESSION verdict. *)
val pp_report : Format.formatter -> report -> unit

(** [run_files ?config ~baseline ~current ppf] loads both paths, diffs,
    prints the report to [ppf] and returns the intended process exit code;
    [Error] for load/validation problems (callers conventionally exit 2). *)
val run_files :
  ?config:config -> baseline:string -> current:string -> Format.formatter -> (int, string) result
