(** Exact game model of the {e multi-update} snapshot weakener, exercising
    the borrowed-view path of the Afek et al. algorithm — the mechanism
    behind Golab–Higham–Woelfel's original snapshot counterexample.

    Program: [p0] updates component 0 twice (values 1 then 2); [p1] updates
    component 1 once, flips the coin and publishes it through an atomic
    register; [p2] scans once and reads the coin. Bad outcome: the scan
    shows exactly the coin-selected component ([u(s1) = c] with [u] as in
    {!Programs.Ghw_snapshot}).

    Because [p0] writes twice, a scan {e can} observe it move twice and
    borrow the view embedded in its second update — a view computed by
    [p0]'s own (preamble) scan, potentially long before the borrow. The
    model therefore implements the full algorithm for [p0]'s updates and
    [p2]'s scan: embedded scan bodies (k of them, with the object random
    step), views stored in the cells, moved counters and the borrow return.
    [p1]'s single update still collapses to its write (it can never be
    observed moving twice, so its view is never borrowed and its embedded
    scan is read-only computation with unconsumed results).

    The solved values answer whether borrowed views give a strong adversary
    leverage on this program — the atomic baseline is 1/2 by the usual
    argument. *)

module Game : Mdp.Solver.GAME

(** [init ~k] — the Afek^k game (both [p0]'s update preambles and [p2]'s
    scan run [k] iterations). Requires [k >= 1]. *)
val init : k:int -> Game.state

(** Adversary-optimal bad probability with the atomic snapshot (updates and
    scans as single steps). *)
val atomic_bad_probability : unit -> float

(** Adversary-optimal bad probability with [Afek Snapshot^k]. *)
val afek_bad_probability : k:int -> unit -> float

val explored_states : unit -> int
val reset : unit -> unit
