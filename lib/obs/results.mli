(** The machine-readable experiment-results document.

    The bench harness compares paper-claimed values against measured ones
    (EXPERIMENTS.md, sections E1–E11); this module gives those comparisons
    a stable JSON schema so a bench run can be committed as a
    [BENCH_*.json] baseline. The document carries, per experiment section, the
    (quantity, paper, measured) rows — with optional numeric fields when
    the cell has a canonical number — plus free-form section metrics
    (solver statistics, the section's counter deltas and the minor words
    it allocated).

    Schema (version {!schema_version}):
    {v
    { "schema_version": 8,
      "generated_by": "<tool>",
      "generated_at_unix": <float>,
      "experiments": [
        { "id": "E1", "title": "...",
          "rows": [ { "quantity": "...", "paper": "...", "measured": "...",
                      "paper_value"?: <number|null>,
                      "measured_value"?: <number|null> } ],
          "metrics": { "counters"?: { "<counter>": <int>, ... },
                       "gc": { "minor_words": <number> },
                       "<key>": <number>, ... } } ] }
    v}
    [null] stands for a non-finite number. The producer (the bench
    harness) writes only metrics some gate of {!Diff} reads; {!Diff}
    compares every one of them against a baseline except the few it
    names as machine- or schedule-dependent. [validate] accepts v8 only
    and is shared by the differ and the test suite, so the schema cannot
    silently drift from its validator. *)

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

(** [to_json t] renders the document. *)
val to_json : t -> Json.t

val write : t -> path:string -> unit

(** [validate j] checks the schema; [Error] names the first offending
    field. *)
val validate : Json.t -> (unit, string) result
