(** Wall-clock spans for timing experiment phases.

    [time "solve k=2" f] runs [f], records a named span, and returns the
    result with its duration. Completed spans accumulate in a global log
    (like {!Metrics}, deliberately ambient) that exports to Chrome-trace
    events so a whole bench run can be opened in Perfetto alongside a
    simulator trace. The clock is [Unix.gettimeofday] — the only portable
    sub-millisecond clock available without extra dependencies; bench runs
    are far longer than any plausible NTP slew, and spans are never
    compared across processes. *)

type span = {
  name : string;
  start_us : float;  (** microseconds since the first span *)
  dur_us : float;
  gc : Gc_stats.delta;  (** GC work inside the span *)
}

(** [now_us ()] is the current clock reading in microseconds, relative to
    the module's load time (so Chrome-trace timestamps start near 0). *)
val now_us : unit -> float

(** [time ?observe name f] runs [f ()], records the span (wall clock plus
    the {!Gc_stats} delta across [f]), and returns [(result, seconds)].
    When [observe] is given, the duration in seconds is also fed to that
    histogram. Exceptions propagate; the span is recorded only on normal
    return. *)
val time : ?observe:Metrics.histogram -> string -> (unit -> 'a) -> 'a * float

(** [spans ()] lists completed spans in completion order. *)
val spans : unit -> span list

(** [chrome_events ?pid ?tid ()] renders the span log as complete slices. *)
val chrome_events : ?pid:int -> ?tid:int -> unit -> Chrome_trace.event list

val reset : unit -> unit
