(** The Chrome trace-event JSON format ([chrome://tracing] / Perfetto).

    A neutral event model: producers (the simulator's trace exporter, the
    {!Span} phase timer) build [event] values; [to_json] renders the
    standard [{"traceEvents": [...]}] document that Perfetto and Chrome's
    legacy viewer load directly. Only the phases this repo emits are
    modelled: complete slices ([X]), begin/end pairs ([B]/[E]), instants
    ([I]) and metadata ([M], used to name process/thread
    lanes). Timestamps are in microseconds, per the format. *)

type phase =
  | Begin  (** "B" — opens a nested slice on a lane *)
  | End  (** "E" — closes the innermost open slice *)
  | Complete of float  (** "X" with the given duration (µs) *)
  | Instant  (** "i" — a zero-duration marker (thread scope) *)
  | Metadata  (** "M" — e.g. [process_name] / [thread_name] *)

type event = {
  name : string;
  cat : string;
  phase : phase;
  ts : float;  (** microseconds *)
  pid : int;
  tid : int;
  args : (string * Json.t) list;
}

val event :
  ?cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * Json.t) list ->
  name:string ->
  ts:float ->
  phase ->
  event

(** [thread_name ~pid ~tid name] is the metadata event labelling a lane. *)
val thread_name : pid:int -> tid:int -> string -> event

val process_name : pid:int -> string -> event

(** [to_json events] is the loadable trace document. *)
val to_json : event list -> Json.t

val write_file : string -> event list -> unit

(** [of_json j] parses a document produced by [to_json] back into its
    event list (order preserved) — the round-trip the test suite asserts,
    and the entry point for tooling that post-processes exported traces.
    Unknown phases are an [Error], not a silent drop. *)
val of_json : Json.t -> (event list, string) result
