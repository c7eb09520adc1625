(** A process-wide registry of named counters.

    Instrumentation points across the simulator, the solver, the
    linearizability checker and the Monte-Carlo harness register named
    counters here; the bench harness lands per-section counter deltas in
    its results document, and the CLI snapshots the registry as JSON or a
    text table. Creation is idempotent by name — calling [counter "x"]
    twice returns the same counter — so libraries can declare their
    instruments at module-initialization time without coordination.

    The registry is global mutable state by design (instrumentation must
    not thread a handle through every API). Counters only grow, so
    readers take deltas rather than resetting them. *)

(** A monotonically increasing integer, atomic: any domain may bump it
    without losing an increment. *)
type counter

(** [counter ?help name] registers (or retrieves) the counter [name].
    [help] documents the instrument at its declaration site. *)
val counter : ?help:string -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** [find_counter name] reads a counter registered elsewhere (e.g. a test
    peeking at [sim.steps]); [None] if absent. *)
val find_counter : string -> int option

(** [counters ()] lists every registered counter with its current value,
    sorted by name — the basis for per-section counter deltas. *)
val counters : unit -> (string * int) list

(** [snapshot ()] is the registry as JSON: [{"counters": {..}}], keys
    sorted. *)
val snapshot : unit -> Json.t

(** [pp ppf ()] renders the counters as an aligned text table. *)
val pp : Format.formatter -> unit -> unit
