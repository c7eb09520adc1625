(** The machine-readable experiment-results document.

    The bench harness compares paper-claimed values against measured ones
    (EXPERIMENTS.md, sections E1–E11); this module gives those comparisons
    a stable JSON schema so a bench run can be committed as a
    [BENCH_*.json] baseline. The document carries, per experiment section, the
    (quantity, paper, measured) rows — with optional numeric fields when
    the cell has a canonical number — plus free-form section metrics
    (solver statistics, the section's counter and GC deltas), and
    optionally the out-of-core store's telemetry.

    Schema (version {!schema_version}):
    {v
    { "schema_version": 7,
      "generated_by": "<tool>",
      "generated_at_unix": <float>,
      "experiments": [
        { "id": "E1", "title": "...",
          "rows": [ { "quantity": "...", "paper": "...", "measured": "...",
                      "paper_value"?: <number|null>,
                      "measured_value"?: <number|null> } ],
          "metrics": { ... } } ],
      "store"?: { "budget_bytes": <number>, "spill_runs": <number>, ... } }
    v}
    Version history: v2 added [null] for non-finite numbers; v3 and v4
    added the PAR section's parallel telemetry ([spawned_domains],
    [domain_ids], a [par_solve] object with per-domain and work-stealing
    counters) inside the free-form section metrics; v6 added the optional
    top-level ["store"] object — the out-of-core memo's telemetry
    ([budget_bytes], [spilled_entries], [spill_runs], [bytes_spilled],
    [evictions], [cache_hits]/[cache_misses]/[cache_hit_rate],
    [read_amplification], [write_amplification], [disk_hits], all
    numbers), installed via [set_store_block] by whichever harness ran a
    budgeted solve. v7 dropped the top-level registry snapshot
    (["metrics"]: counters, gauges, histograms) and the span log
    (["spans"]), which no reader used; the per-section counter deltas
    and each section's ["gc"] object (now just its exact
    ["minor_words"]) stay in the section metrics.
    [validate] accepts v7 only and is shared by the smoke schema checker,
    the differ and the test suite, so the schema cannot silently drift
    from its validator. *)

(** The version written by [to_json], and the only one [validate]
    accepts. *)
val schema_version : int

type t
type section

(** [create ~generated_by ()] starts an empty document. *)
val create : generated_by:string -> unit -> t

(** [section t ~id ~title] appends a new experiment section (e.g.
    [~id:"E3"]). Sections appear in creation order. *)
val section : t -> id:string -> title:string -> section

(** [row section ~quantity ~paper ~measured] appends a comparison row; the
    [_value] fields attach canonical numbers when the prose cells have
    one. *)
val row :
  section ->
  ?paper_value:float ->
  ?measured_value:float ->
  quantity:string ->
  paper:string ->
  measured:string ->
  unit ->
  unit

(** [add_section_metrics section kvs] merges free-form metrics (solver
    stats, trial counts, ...) into the section's [metrics] object. *)
val add_section_metrics : section -> (string * Json.t) list -> unit

(** [set_store_block j] installs the out-of-core store telemetry
    object, included in every subsequent [to_json]. Process-global: the
    store library cannot be depended on from here, so the producer hands
    the rendered block over. *)
val set_store_block : Json.t -> unit

(** [to_json t] renders the document. *)
val to_json : t -> Json.t

val write : t -> path:string -> unit

(** [validate j] checks the schema; [Error] names the first offending
    field. *)
val validate : Json.t -> (unit, string) result
