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
      must agree to a relative 1e-9. No metric is exempt: a document
      holds only deterministic figures. Allocation is bounded by the
      test suite's words-per-step lines, not here.

    Missing sections, rows or metrics degrade to warnings (subset runs
    via [--only] are routine); new sections and rows are informational.
    Both documents must be schema v8. *)

type severity = Info | Warn | Fail

type finding = {
  severity : severity;
  section : string option;  (** experiment id, [None] for document-level *)
  subject : string;  (** row quantity, metric key, ... *)
  detail : string;
}

type report = {
  findings : finding list;  (** sorted [Fail], [Warn], [Info] *)
  sections_compared : int;
  rows_compared : int;
  metrics_compared : int;
}

(** [diff ~baseline ~current] validates both documents
    ({!Results.validate}) and compares them.
    [Error] means a document is unloadable or fails validation — distinct
    from a clean report with [Fail] findings. *)
val diff : baseline:Json.t -> current:Json.t -> (report, string) result

val failures : report -> finding list

(** [exit_code r] is 0 when no [Fail] finding survived, 1 otherwise. *)
val exit_code : report -> int

(** [pp_report] renders the summary line, the findings table, and the
    OK/REGRESSION verdict. *)
val pp_report : Format.formatter -> report -> unit

(** [run_files ~baseline ~current ppf] loads both paths, diffs,
    prints the report to [ppf] and returns the intended process exit code;
    [Error] for load/validation problems (callers conventionally exit 2). *)
val run_files :
  baseline:string -> current:string -> Format.formatter -> (int, string) result
