(** Exact game model of the weakener program over [ABD^k] registers
    (Appendices A.2 and A.3 of the paper), at full message granularity.

    Register [R] is the multi-writer ABD of Algorithm 3 transformed per
    Algorithm 4: each operation runs [k] query phases (broadcast query,
    adversary-chosen delivery of queries and replies, majority wait), a
    uniformly random choice of one phase's result (a chance node — the
    object random step), then the update phase (broadcast update, majority
    of acks). Every process is also an ABD server. Update messages that are
    still in transit when their operation completes remain deliverable —
    exactly the straggler deliveries Figure 1's adversary exploits.

    Register [C] is modelled atomically. This loses no adversary power: the
    only use of [C] is [p1]'s single write and [p2]'s single read, and the
    adversary maximizes its winning probability by making the read return
    the coin value, which atomic [C] already permits (Figure 1's adversary
    also just orders the [C] read after the [C] write). The paper's A.3
    analysis likewise conditions only on [R]'s query phases.

    Solving the game (memoized expectimax, {!Mdp.Solver}) yields the exact
    adversary-optimal probability that [p2] loops forever:

    - [k = 1] (plain ABD): 1 — reproducing Figure 1 / A.2;
    - [k = 2]: at most 5/8 by the paper's refined analysis (A.3.2), at
      least [1 - 7/8 = 1/8]-complement by the generic bound; the solver
      gives the exact value;
    - as [k] grows the value approaches the atomic 1/2 (Theorem 4.2).

    {2 State layout}

    A state is an immutable string that is also its memo key:
    [Game.encode] is the identity and [Game.encode_into] one blit. Every
    field is one byte. An integer [v] (a count, a length, a value, a
    timestamp part) is the byte [v + 120], so it must lie in
    [-120 .. 134]; {!init} and [Game.apply] raise [Invalid_argument]
    on any value outside that range. A bool or an option's presence tag
    is [0]/[1]; a list is its length, then its items. A triple is
    (value, ts, pid), where [-1] is ⊥. In order:

    {v
    k  ns  atomic_c
    R's servers: ns, then ns triples
    C's servers: ns, then ns triples
    p0, p1, p2, each:
      pc, op tag; if 1: register (0 R, 1 C), kind (0 read | 1 write, value),
        opseq, phase:
          0 Query   idx, results (length, sorted triples),
                    queried (ns, then ns bools), got, best triple
          1 Choose  results (length, sorted triples)
          2 Waiting payload triple, acks
      reads (length, values)
    in-transit updates: count, then sorted 7-byte records
      (register, payload triple, dest, origin pid, origin opseq)
    coin  creg  cread (tag, then the value if 1)
    v}

    Each field is what the [Mdp.Key] combinators write for it ([int],
    [bool], [option]'s tag, [list]'s length prefix), in a fixed order,
    so the layout is injective by that module's construction; the test
    suite pins its bytes. The code is monotone in the value, so
    comparing bytes orders triples and update records as [compare] on
    their fields: the sorted lists stay sorted under a byte-wise merge.
    No reachable state needs more than one byte: over all 803,390
    ABD{^3} states and all 471,166 ABD{^1} states with [C] as ABD, the
    largest value any field holds is 11; the 5-replica game at [k = 1]
    reaches 16.

    The solver's memo stores each key in its memo form
    ({!Mdp.Key.pack}): two fields per byte when every field is a flag
    or an int in [-1 .. 12], else the raw bytes. Counted over whole
    solves, every state of ABD{^1} to ABD{^6}, of C-as-ABD{^1} and of
    C-as-ABD{^3} packs; at 5 replicas and [k = 1], the states with a
    field of 13 to 16 take the raw form: 32,197 of 5,344,268 (0.60%). *)

type k = int

module Game : Mdp.Solver.GAME

(** [init ?atomic_c ?servers ~k ()] is the initial state for [ABD^k].
    [atomic_c] (default [true]) selects whether register [C] is atomic or a
    second ABD^k instance; the former is the documented value-preserving
    reduction, the latter validates it. [servers] (default 3, minimum 3) is
    the number of ABD replicas: the three program processes are servers
    0-2, any further servers are pure replicas, and quorums are majorities
    of [servers]. Requires [k >= 1]; raises [Invalid_argument] when [k] or
    [servers] exceeds 134 (see the state layout). *)
val init : ?atomic_c:bool -> ?servers:int -> k:k -> unit -> Game.state

(** [bad_probability ?atomic_c ~k ()] solves the game for [ABD^k]:
    the exact adversary-optimal probability that [p2] loops forever.
    Exponential in [k]: in RAM on one domain of a 2-vCPU host, ABD{^5}
    (3,331,745 states) solves in 7 to 12 s and peaks at 250 MB RSS, and
    C-as-ABD{^3} (4,610,294 states) in 13 to 21 s at 380 MB (EXPERIMENTS.md,
    "Nibble-packed memo keys"; the spread is the shared host's).
    [prune] (default [false]) enables the cutoffs
    against the a-priori bound 1 on every game value
    ({!Mdp.Solver.Make.value}'s [~prune]); the value is unchanged, the
    explored set only shrinks.
    [memo_budget] caps the memo's RAM,
    spilling resolved states to disk past it — values and counts stay
    bit-identical (see the solver's out-of-core section). It is perf's
    [solve-spill] route into the store; a budget on a solver that
    already holds states raises [Invalid_argument], so [reset] first. *)
val bad_probability :
  ?memo_budget:int ->
  ?atomic_c:bool ->
  ?servers:int ->
  ?prune:bool ->
  k:k ->
  unit ->
  float

(** [best_move s] is a move attaining the optimal value at [s] (an optimal
    adversary strategy, computable after [bad_probability] filled the memo
    table or directly — the solver recurses as needed). *)
val best_move : Game.state -> Game.move option

(** [explored_states ()] is the cumulative number of memoized states. *)
val explored_states : unit -> int

(** [pruned_subtrees ()] is the number of cutoffs against the bound 1 taken
    since the last [reset] (0 unless [bad_probability ~prune:true]). *)
val pruned_subtrees : unit -> int

(** [reset ()] clears the solver's memo table (states are keyed by the full
    state including [k], so solving several [k] in sequence is safe; reset
    only frees memory). *)
val reset : unit -> unit

(** [solver_stats ()] is the underlying solver instance's work counters
    (states, memo hits/misses, max depth) since the last [reset] — the
    cost side of the cost-vs-[k] trade-off reported by the bench harness. *)
val solver_stats : unit -> Mdp.Solver.stats

(** [store_stats ()] is the out-of-core memo's telemetry once a
    [memo_budget] armed it — [None] on purely in-RAM solves (see
    {!Mdp.Solver.Make.store_stats}). perf's [solve-spill] reads it. *)
val store_stats : unit -> Store.Memo.stats option
