(** The process clock shared by the solver's progress telemetry and the
    harnesses' wall-time helpers.

    The clock is [Unix.gettimeofday] — the only portable sub-millisecond
    clock available without extra dependencies; runs are far longer than
    any plausible NTP slew, and readings are never compared across
    processes. *)

(** [now_us ()] is the current clock reading in microseconds, relative to
    the module's load time (so Chrome-trace timestamps start near 0). *)
val now_us : unit -> float
