(** A process-wide metrics registry: counters, gauges and histograms.

    Instrumentation points across the simulator, the solver, the
    linearizability checker and the Monte-Carlo harness register named
    metrics here; the bench harness and the CLI snapshot the registry into
    JSON (a stable, versioned shape consumed by [BENCH_*.json] files) or a
    pretty table. Creation is idempotent by name — calling [counter "x"]
    twice returns the same counter — so libraries can declare their
    instruments at module-initialization time without coordination.

    The registry is global mutable state by design (instrumentation must
    not thread a handle through every API); [reset] zeroes all values for
    tests and for per-run reporting. *)

type counter
type gauge
type histogram

(** {1 Counters} — monotonically increasing integer values, atomic: any
    domain may bump them without losing an increment. *)

(** [counter ?help name] registers (or retrieves) the counter [name].
    Raises [Invalid_argument] if [name] is already a gauge or histogram. *)
val counter : ?help:string -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} — last-written float values. *)

val gauge : ?help:string -> string -> gauge
val set_gauge : gauge -> float -> unit

(** [max_gauge g v] sets [g] to [max v (current value)] — for high-water
    marks such as recursion depth. *)
val max_gauge : gauge -> float -> unit

val gauge_value : gauge -> float

(** {1 Histograms} — distribution of observed values over fixed buckets. *)

(** [histogram ?buckets ?help name]: [buckets] is the increasing list of
    upper bounds (an implicit [+inf] bucket is always appended). The
    default covers 1e-6 .. 1e7 in a 1–2–5 progression, adequate both for
    wall-clock seconds and for step counts. *)
val histogram : ?buckets:float list -> ?help:string -> string -> histogram

val observe : histogram -> float -> unit

type histogram_summary = {
  count : int;
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  p50 : float;  (** [nan] when empty *)
  p90 : float;  (** [nan] when empty *)
  p99 : float;  (** [nan] when empty *)
  buckets : (float * int) list;  (** (upper bound, cumulative count) *)
}

val histogram_summary : histogram -> histogram_summary

(** [percentile h q] estimates the [q]-quantile ([0 <= q <= 1]) by linear
    interpolation inside the bucket holding rank [q * count], clamped to
    the observed min/max; [nan] when the histogram is empty. *)
val percentile : histogram -> float -> float

(** {1 Registry-wide operations} *)

(** [find_counter name] reads a counter registered elsewhere (e.g. a test
    peeking at [sim.steps]); [None] if absent or not a counter. *)
val find_counter : string -> int option

(** [counters ()] lists every registered counter with its current value,
    sorted by name — the basis for per-phase counter deltas. *)
val counters : unit -> (string * int) list

(** [snapshot ()] is the whole registry as JSON:
    [{"counters": {..}, "gauges": {..}, "histograms": {..}}], keys sorted. *)
val snapshot : unit -> Json.t

(** [reset ()] zeroes every registered metric (registrations persist). *)
val reset : unit -> unit

(** [pp ppf ()] renders the registry as an aligned text table. *)
val pp : Format.formatter -> unit -> unit
