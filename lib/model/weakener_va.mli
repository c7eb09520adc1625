(** Exact game model of the weakener program over Vitányi–Awerbuch
    registers (Section 5.3 of the paper) — the shared-memory counterpart of
    {!Weakener_abd}.

    Register [R] is the VA construction transformed per Algorithm 2: one
    single-writer cell [Val\[i\]] per process holding a (value, timestamp)
    pair; a read operation performs [k] collects (three single-step cell
    reads each, keeping the largest timestamp), chooses one uniformly (the
    object random step) and returns its value; a write performs [k]
    collects, chooses one, and writes (value, (t+1, self)) to its own cell
    in a single step. Register [C] is atomic, as in {!Weakener_abd} (same
    value-preserving argument). Every shared step is an adversary-scheduled
    move; the coin flip and the iteration choices are chance nodes.

    The VA register is linearizable but not strongly linearizable, and tail
    strongly linearizable with collect preambles (the paper's Section 5.3);
    this model measures how much a strong adversary extracts from it, and
    how the preamble-iterating transformation blunts that, exactly. *)

module Game : Mdp.Solver.GAME

(** [init ~k] — requires [k >= 1]. *)
val init : k:int -> Game.state

(** [bad_probability ~k ()] is the exact adversary-optimal
    probability that [p2] loops forever with [VA^k] registers. *)
val bad_probability : k:int -> unit -> float

val explored_states : unit -> int
val reset : unit -> unit

(** [solver_stats ()] is the underlying solver instance's work counters
    since the last [reset]. *)
val solver_stats : unit -> Mdp.Solver.stats
