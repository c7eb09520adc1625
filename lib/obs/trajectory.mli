(** The bench trajectory, made inspectable.

    Each bench run can land a [BENCH_*.json] results document at the repo
    root; this module scans them into per-section time-series tables —
    measured row values, numeric section metrics (solver states, wall
    times, GC words), a derived states/sec wherever a
    [states_kN]/[solve_seconds_kN] pair exists, and a derived
    [gc.minor_words_per_step] wherever a section carries both
    [gc.minor_words] and [counters.sim.steps] (the zero-alloc roadmap
    item's trendline) — one column per trajectory point, rendered as
    aligned text or markdown. *)

type point = { label : string; path : string; doc : Json.t }

(** [of_json ~label ?path doc] validates [doc] ({!Results.validate};
    v1–v6 accepted) and wraps it as a trajectory point. *)
val of_json : label:string -> ?path:string -> Json.t -> (point, string) result

(** [load path] reads one document; the label is the filename without the
    [BENCH_] prefix and extension (typically the date). *)
val load : string -> (point, string) result

(** [scan ~dir] loads every [BENCH_*.json] in [dir], sorted by filename
    (dates sort chronologically). Any unreadable or invalid file is an
    error — a corrupt trajectory point should be noticed, not skipped. *)
val scan : dir:string -> (point list, string) result

type table = {
  section_id : string;
  title : string;
  columns : string list;  (** point labels, in trajectory order *)
  rows : (string * float option list) list;
      (** series key, one value per column; [None] where a point lacks it *)
}

(** [tables ?section points] builds one table per experiment section (in
    first-seen order across points), or only the named section. *)
val tables : ?section:string -> point list -> table list

val pp_text : Format.formatter -> table -> unit
val pp_markdown : Format.formatter -> table -> unit
