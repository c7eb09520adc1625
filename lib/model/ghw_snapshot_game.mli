(** Exact game models of the snapshot weakener
    ({!Programs.Ghw_snapshot}): processes [p0] and [p1] update components 0
    and 1 of a shared snapshot, [p1] then flips a coin and publishes it
    through an atomic register [C], and [p2] scans; the bad outcome is that
    the scan shows {e exactly} the update selected by the coin.

    Two models are solved:

    - {!atomic_bad_probability}: scan and update are single indivisible
      steps. The adversary-optimal value is 1/2 by the Appendix A.1-style
      argument (a post-flip scan can be made to show only [p1]'s update,
      never only [p0]'s; pre-committing wins with probability 1/2).

    - {!afek_bad_probability}: the Afek et al. implementation at register
      granularity, transformed to [Snapshot^k] — the scan runs [k]
      scan-bodies (each a series of three-read collects until two
      consecutive collects agree) and uses a uniformly chosen body's result.

    Two simplifications are applied to the Afek model, both exact for this
    program: (i) each process writes its component at most once, so no scan
    can ever observe a process move twice — the borrowed-view path of the
    algorithm is unreachable and the embedded views need not be modelled;
    (ii) consequently an update's embedded scan is read-only computation
    whose result is never consumed, so the update collapses to its single
    (adversary-scheduled) register write. The scan bodies, where all the
    adversary leverage lives, are modelled read by read. *)

module Game : Mdp.Solver.GAME

(** [init ~k] — the Afek^k game. Requires [k >= 1]. *)
val init : k:int -> Game.state

(** Adversary-optimal bad probability with the atomic snapshot. *)
val atomic_bad_probability : unit -> float

(** Adversary-optimal bad probability with [Afek Snapshot^k]. *)
val afek_bad_probability : k:int -> unit -> float

val explored_states : unit -> int
val reset : unit -> unit
