(** The explicit linearization function of Theorem 5.1 for ABD executions.

    The timestamp of a Read is the timestamp returned by its (chosen) query
    phase; the timestamp of a Write is the one it sends in its update phase.
    An invocation is {e logically completed} in an execution [e] when some
    invocation with a greater-or-equal timestamp has returned in [e]. The
    function [f] maps [e] to the sequence of logically-completed invocations
    sorted by (timestamp, writes-before-reads, invocation id) — a valid
    linearization that Theorem 5.1 proves prefix-preserving on executions
    complete w.r.t. Π_ABD.

    Timestamps are read off the ["adopted"] trace notes our ABD emits as the
    first tail step (one local step after the paper's Π point; no effectful
    step separates them, so the prefix-preservation property is the same).
    An execution prefix is Π-complete when every invocation of the object
    called in it has adopted a timestamp (up to that one-step shift). Both
    functions below make one pass over the trace entries, tracking each
    invocation's call, first ["adopted"] note and return. *)

(** [linearize ~obj_name entries] is f(e) for the execution whose trace
    entries are [entries]: the logically-completed invocations of
    [obj_name] in timestamp order, as checker linearization steps. *)
val linearize : obj_name:string -> Sim.Trace.entry list -> Check.linearization

(** [prefix_preserving ~obj_name trace] checks Theorem 5.1 on one execution:
    for every pair of Π-complete prefixes p1 ⊑ p2 of the trace,
    f(p1) is a prefix of f(p2). *)
val prefix_preserving : obj_name:string -> Sim.Trace.t -> bool
