(** Greedy schedule shrinking.

    Failing schedules are arrays of choice codes (interpreted modulo the
    number of enabled events, {!Oracle.replay}), so every
    sub-array of a schedule is itself a valid schedule — deletion and
    truncation never produce an unrunnable input. The shrinker exploits
    this: starting from a failing schedule it greedily (1) truncates to
    the shortest failing prefix, (2) deletes interior codes one at a time,
    and (3) canonicalizes surviving codes toward 0, re-checking the
    failure predicate after each candidate edit and keeping an edit only
    when the failure persists.

    The result is {e 1-minimal}: dropping the last code, deleting any
    single code, or zeroing any non-zero code makes the failure disappear
    (unless the attempt budget ran out first). Shrinking is deterministic
    — same predicate and input, same output — and idempotent: a shrunk
    schedule shrinks to itself. *)

(** [minimize ~fails schedule] greedily minimizes [schedule], assuming
    [fails schedule] holds (raises [Invalid_argument] otherwise). [fails]
    must be deterministic. [max_attempts] (default [10_000]) bounds the
    number of predicate evaluations; the best candidate so far is
    returned when the budget runs out. *)
val minimize :
  ?max_attempts:int -> fails:(int array -> bool) -> int array -> int array

(** [attempts_used ()] is the number of predicate evaluations made by the
    most recent [minimize] call — surfaced in engine summaries. *)
val attempts_used : unit -> int
