(** The simulator runtime.

    A runtime instance holds the global state of one program execution: per
    process the remaining {!Proc.t} code and mailbox, the in-transit message
    multiset, the base-register store, per-object server states, and the
    trace. Executions advance one {!event} at a time; the set of enabled
    events is exactly the scheduling freedom the paper's strong adversary
    enjoys (which process steps next, which in-transit message is delivered
    next, optionally which process crashes).

    Executions are deterministic: the same configuration, random tape and
    event sequence yield the same trace — the paper's [e\[P(O), v, s\]].

    Inside, each message is held once, in a slot of a message store
    (value, id, and route: ends and object ordinal), from its send until
    a server handles it or a [Recv] consumes it; freed slots are reused.
    The in-transit multiset and each mailbox are int arrays of slots, so
    moving or removing a message writes no pointer. {!in_transit},
    {!mailbox} and the trace entries read the store and show the same
    ids, ends and messages as if each queue held the messages
    themselves. While a process awaits a [Recv], a receive cursor
    counts the leading messages of its mailbox known not to match: the
    message at the cursor is the oldest match, which the [Recv] step
    consumes (see {!blocked}). *)

type config = {
  n : int;  (** number of processes, ids [0 .. n-1] *)
  objects : Obj_impl.t list;
  program : self:int -> unit Proc.t;  (** per-process top-level code *)
  max_crashes : int;
      (** crash events allowed over the run; [0] enables none *)
}

(** Where random steps draw their results from. *)
type rand_source =
  | Tape of int array
      (** the i-th random step returns [tape.(i) mod bound]; running past the
          end raises [Tape_exhausted] *)
  | Gen of Util.Rng.t

exception Tape_exhausted

type event =
  | Step of int  (** process [p] resolves its next operation *)
  | Deliver of int  (** deliver in-transit message with this id *)
  | Crash of int

type in_transit = { msg_id : int; src : int; dst : int; msg : Message.t }
type t

(** [create ?trace_level config rand] — [trace_level] (default
    {!Trace.Full}) selects how much the execution trace materializes:
    {!Trace.History} keeps only actions/labels/notes/crashes (enough for
    {!outcome} and label queries) and skips allocating the per-event
    entries, for long simulations that never replay or lin-check their
    trace. Step and message {e counts} stay exact at either level. *)
val create : ?trace_level:Trace.level -> config -> rand_source -> t

(** {1 Stepping} *)

(** The events the adversary may choose from, in one fixed order: [Step]
    events by process, then [Deliver] events in send order (messages to a
    crashed process excluded), then [Crash] events by process (while
    crashes are allowed). Schedulers choose by position in this order,
    and recorded choice codes index into it. *)

(** [enabled_count t] is the number of enabled events. It reads the
    runtime's bitsets and counters and allocates nothing. *)
val enabled_count : t -> int

(** [enabled_steps t] is the number of enabled [Step] events: positions
    [0 .. enabled_steps t - 1]. *)
val enabled_steps : t -> int

(** [enabled_nth t i] is the event at position [i], for
    [0 <= i < enabled_count t]; otherwise it raises [Invalid_argument]. *)
val enabled_nth : t -> int -> event

(** [enabled t] lists the enabled events in order:
    [List.init (enabled_count t) (enabled_nth t)]. An observer for
    scripted adversaries, enumerators and tests; the run loops do not
    build it. *)
val enabled : t -> event list

exception Not_enabled of event

(** [step t e] applies one event. Raises [Not_enabled] if [e] is not
    currently enabled, and [Invalid_argument] if [e] steps a [Broadcast]
    or [Send] of a message for an object the configuration does not
    declare (nothing enters transit then). *)
val step : t -> event -> unit

(** [finished t] holds when every process has terminated or crashed. *)
val finished : t -> bool

type run_result = Completed | Deadlocked | Step_limit_reached

(** [run t ~max_steps choose] repeatedly asks [choose] for the next event.
    [choose t n] receives the full runtime (strong adversary: it observes
    everything, including past random results) and the number [n >= 1] of
    enabled events, and returns the position of its choice in the
    {!enabled} order ([enabled_nth] reads any of them). The runtime steps
    that position directly: the process, delivery and crash counts that
    size the enabled set once per step also decode [choose]'s answer,
    and a step builds no event list. A position outside [0 .. n-1]
    raises [Invalid_argument]. [choose] observes the runtime; it must
    not step it. *)
val run : t -> max_steps:int -> (t -> int -> int) -> run_result

(** [run_schedule t events] replays an explicit schedule; raises
    [Not_enabled] on a mismatch. *)
val run_schedule : t -> event list -> unit

(** {1 Observation (for adversaries, checkers and reports)} *)

val n : t -> int
val trace : t -> Trace.t
val history : t -> History.Hist.t
val outcome : t -> History.Outcome.t
val in_transit : t -> in_transit list
val mailbox : t -> int -> (int * Message.t) list
val is_active : t -> int -> bool
val is_crashed : t -> int -> bool

(** [blocked t p] holds when [p] is active but its next operation is a [Recv]
    with no matching mailbox message. It is a bit test: the runtime keeps
    each process's readiness current as messages land and steps run
    (which is why [Recv] predicates must be pure, see {!Proc}). A
    process's receive cursor makes that cheap: the scan when the [Recv]
    becomes p's next operation sets it (resuming where the last [Recv]
    stopped when both share one predicate closure), each message landing
    while p is blocked is tested once and moves it on, and the [Recv]
    step consumes the message at the cursor without testing again. *)
val blocked : t -> int -> bool

(** [read_register t rid] peeks at a base register without discipline checks
    (observation only). *)
val read_register : t -> Base_reg.id -> Util.Value.t

(** [server_state t ~obj_name ~proc] is the server state of [obj_name] at
    process [proc]; [None] when that object has no server role, or no
    object has that name. *)
val server_state : t -> obj_name:string -> proc:int -> Util.Value.t option

(** [random_results t] lists results of the random steps taken so far. *)
val random_results : t -> (Proc.rand_kind * int * int) list

(** [next_op_descr t p] is a short description of the operation process [p]
    will perform on its next step, for adversaries that pattern-match on it
    (e.g. ["recv:reply"], ["broadcast"], ["random"], ["ret"]). *)
val next_op_descr : t -> int -> string

val pp_event : Format.formatter -> event -> unit
val pp_run_result : Format.formatter -> run_result -> unit

(** The simulator's [Logs] source, [blunting.sim]; step-level events log at
    debug, run completions at info. Counters land in [Obs.Metrics] under
    the [sim.] prefix (steps, messages sent/delivered, register
    reads/writes, coin flips, crashes, runs). Steps, messages, register
    accesses and coin flips are tallied in the runtime and published,
    one [Obs.Metrics.add] each, when {!run} or {!step} returns or
    raises, not per event: read them between calls, not from inside a
    scheduler. The totals are exact wherever a run stops. *)
val log_src : Logs.src
