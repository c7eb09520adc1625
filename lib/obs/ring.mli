(** Per-domain structured event tracing: the parallel timeline.

    Each domain that records gets its own fixed-capacity ring buffer
    (created lazily through domain-local storage and registered globally),
    so the record path takes no lock and never contends with other
    domains. An event is three integers — an {!tag} code and two
    tag-specific payload words — plus a wall-clock timestamp on the
    {!Span.now_us} clock, stored into pre-allocated parallel arrays: the
    hot path allocates nothing that survives a minor collection (the
    timestamp read produces one transient boxed float). When the ring
    wraps, the oldest events are overwritten and counted as dropped.

    The ring holds only what places time on the parallel timeline: pool
    task and idle slices, GC phases, domain lifecycle and store spills —
    9 tags. Per-probe memo traffic and per-step simulator events are
    deliberately not traced: they would evict everything else from the
    ring, and their counts are kept exactly by [Mdp.Solver.stats],
    [Store.Memo.stats] and the [sim.*] counters.

    Recording is globally flag-gated ({!set_enabled}); the disabled path
    is a single atomic load and branch, so the permanently-instrumented
    pool loops ({!Par.Pool}) cost nothing when tracing is off.

    {!start_runtime_events} additionally subscribes to the OCaml 5
    runtime's own event stream, so GC phases and domain lifecycle land on
    the same timeline as the application events. It calibrates the
    runtime's clock against {!Span.now_us} once, when it starts.

    Dumps ({!dump}, {!to_json}) merge every registered ring plus the
    collected runtime events into one JSON document
    ([{"schema": "blunting-trace/1", ...}]) that {!of_json} reads back —
    the contract between trace capture ({!capture}, [--trace-out]) and
    the analysis ({!Trace_analysis}, [blunting trace analyze]).
    [chrome_events] renders the same dump with one Perfetto lane per
    domain. *)

(** Event tags. Payload conventions ([a], [b]):
    - pool events: [Pool_task_start]/[stop] bracket one chunk of a
      parallel region ([a] = first index, [b] = one past the last);
      [Pool_idle_start]/[stop] bracket a worker blocking on the queue;
    - runtime events: [Gc_minor]/[Gc_major] with [a] = 0 (begin) or 1
      (end); [Domain_spawn]/[Domain_stop] from the runtime's lifecycle
      stream;
    - [Store_spill]: one sorted run of the out-of-core memo written to a
      shard's segment file ([a] = entries written, [b] = bytes, header
      and padding included). *)
type tag =
  | Pool_task_start
  | Pool_task_stop
  | Pool_idle_start
  | Pool_idle_stop
  | Gc_minor
  | Gc_major
  | Domain_spawn
  | Domain_stop
  | Store_spill

(** Stable wire codes for dump files: [tag_code] is injective and
    [tag_of_code (tag_code t) = Some t]. The codes of retired tags (0–3,
    8–12, 17–20 and 22–24) stay unassigned, so dumps that hold them still load
    with those events dropped. *)
val tag_code : tag -> int

val tag_of_code : int -> tag option

(** [tag_name t] is the snake_case name used in dump [tag_names] and
    reports (e.g. ["store_spill"]). *)
val tag_name : tag -> string

(** {1 Recording} *)

(** [enabled ()] is the global recording flag (default off). *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** [set_capacity n] sizes rings created {e after} the call (rounded up to
    a power of two, minimum 1024; default 65536 events/domain). Existing
    rings keep their size. *)
val set_capacity : int -> unit

(** [record tag a b] appends an event, stamped with the clock, to the
    calling domain's ring; a no-op (one atomic load) when disabled. *)
val record : tag -> int -> int -> unit

(** [reset ()] discards every ring, all collected and pending runtime
    events and the drop counts; recording state, capacity and the
    runtime clock calibration are kept. *)
val reset : unit -> unit

(** {1 Runtime events} *)

(** [start_runtime_events ()] starts the OCaml runtime's event stream
    (GC phase begin/end, domain spawn/terminate) and opens a cursor on
    it; [Error] if the runtime refuses (already started with a consumer,
    unsupported platform). It writes one runtime user event between two
    {!Span.now_us} reads and reads it back at once: that pair fixes the
    offset between the runtime's clock and [Span.now_us] for the whole
    process, to within half the write's duration. Safe to call more than
    once; only the first call starts and calibrates. Collected events
    are drained into the dump by {!dump}. *)
val start_runtime_events : unit -> (unit, string) result

(** {1 Dumping} *)

type event = { tag : tag; a : int; b : int; ts_us : float }

type domain_dump = {
  domain : int;  (** the recording domain's id *)
  recorded : int;  (** events ever recorded (>= retained) *)
  dropped : int;
      (** overwritten by ring wrap-around (runtime lanes: events the
          runtime overwrote before they were read) *)
  events : event list;  (** retained events, oldest first *)
}

type dump = {
  capacity : int;
  domains : domain_dump list;  (** sorted by domain id *)
  runtime : domain_dump list;  (** runtime-event lanes, by runtime ring id *)
}

(** [dump ()] snapshots every registered ring. Call it after parallel
    regions have joined (the pool's shutdown provides the needed
    happens-before); a dump taken while another domain records may see a
    torn tail. *)
val dump : unit -> dump

val to_json : dump -> Json.t

(** [of_json j] parses a dump document; [Error] names the first offending
    field. Unknown tag codes are dropped (forward compatibility). *)
val of_json : Json.t -> (dump, string) result

val write_file : string -> dump -> unit
val load_file : string -> (dump, string) result

(** [capture path f] runs [f] as one traced region: it starts runtime
    events (printing a warning to stderr if they are unavailable),
    {!reset}s, enables recording, runs [f], disables recording, dumps
    and writes the dump to [path]. Returns [f]'s result and the dump.
    If [f] raises, recording is disabled and nothing is written. *)
val capture : string -> (unit -> 'a) -> 'a * dump

(** [chrome_events d] renders the dump as Chrome trace events: pid 0 with
    one named lane per recording domain (task/idle slices, spill
    instants), pid 1 with one lane per runtime-event ring (GC slices,
    lifecycle instants). *)
val chrome_events : dump -> Chrome_trace.event list
