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
    - as [k] grows the value approaches the atomic 1/2 (Theorem 4.2). *)

type k = int

module Game : Mdp.Solver.GAME

(** [init ?atomic_c ?servers ~k ()] is the initial state for [ABD^k].
    [atomic_c] (default [true]) selects whether register [C] is atomic or a
    second ABD^k instance; the former is the documented value-preserving
    reduction, the latter validates it. [servers] (default 3, minimum 3) is
    the number of ABD replicas: the three program processes are servers
    0-2, any further servers are pure replicas, and quorums are majorities
    of [servers]. Requires [k >= 1]. *)
val init : ?atomic_c:bool -> ?servers:int -> k:k -> unit -> Game.state

(** [bad_probability ?atomic_c ?jobs ~k ()] solves the game for [ABD^k]:
    the exact adversary-optimal probability that [p2] loops forever.
    Exponential in [k]; practical for [k <= 4] (atomic [C]) and [k <= 2]
    (ABD [C]). [jobs] (default 1) solves the root frontier on that many
    domains via {!Mdp.Solver.Make.value_par}; the value is bit-identical
    at every job count. [prune] (default [false]) enables the Theorem 4.2
    interval branch-and-bound cuts ({!Mdp.Solver.Make.value}'s [~prune]);
    the value is unchanged, the explored set only shrinks.
    [memo_budget] caps the memo's RAM,
    spilling resolved states to disk past it — values and counts stay
    bit-identical (see the solver's out-of-core section). *)
val bad_probability :
  ?pool:Par.Pool.t ->
  ?memo_budget:int ->
  ?atomic_c:bool ->
  ?servers:int ->
  ?jobs:int ->
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

(** [pruned_subtrees ()] is the number of branch-and-bound cuts taken
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
    {!Mdp.Solver.Make.store_stats}). *)
val store_stats : unit -> Store.Memo.stats option

(** [last_par_stats ()] is the per-domain and cross-domain telemetry of
    the most recent parallel [bad_probability] (see
    {!Mdp.Solver.Make.last_par_stats}): per-domain memo hits and misses,
    the distinct-state count and the steal/claim counters the bench PAR
    section publishes. *)
val last_par_stats : unit -> Mdp.Solver.par_stats option

(** [set_progress ?interval_states hook] installs a live progress hook on
    the underlying solver (see {!Mdp.Solver.Make.set_progress}) — the
    multi-minute solves at [k >= 3] otherwise emit nothing until done. *)
val set_progress :
  ?interval_states:int -> (Mdp.Solver.progress -> unit) option -> unit
