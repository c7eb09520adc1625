(** Exact adversary-vs-chance game solving.

    The paper's quantity [Prob\[P(O) -> B\]] is a supremum over strong
    adversaries. A strong adversary observes the entire execution so far —
    including past random outcomes — so on a finite explicit-state model the
    supremum is the value of a perfect-information stochastic game: at
    adversary states the value is the max over moves, at chance states the
    probability-weighted average, at terminal states the indicator of the
    bad outcome. This module computes that value by top-down dynamic
    programming with memoization (the model must be acyclic, which holds for
    terminating programs; a cycle raises [Cyclic]).

    Every engine — pruned or not, in RAM or under a memo budget — runs
    one sequential recursion over one find-or-claim memo interface,
    backed by {!Par.Memo_tbl} (in RAM) or {!Store.Memo} (budgeted).
    Each state is evaluated once, by the same fold, so values are
    bit-identical across engines. There is no parallel exact solve: the
    one that shared a sharded memo between domains was slower than this
    recursion at every job count measured (DESIGN.md section 8).

    Every game of the paper solves in RAM. The one route into the
    out-of-core store is [Make.value ?memo_budget] (and
    [Model.Weakener_abd]'s wrapper of it), which perf's [solve-spill]
    workload drives; neither the CLI nor the bench harness offers a
    budget. *)

(** A game model. States must be pure data; memoization keys them by the
    canonical [encode] string. *)
module type GAME = sig
  type state
  type move

  type transition = Det of state | Chance of (float * state) list

  (** [moves s] lists the adversary's choices; [\[\]] marks terminal
      states. *)
  val moves : state -> move list

  (** [apply s m] is either a deterministic successor or a chance step with
      the given distribution (probabilities must sum to 1). *)
  val apply : state -> move -> transition

  (** [terminal_value s] is the payoff at a terminal state; it is consulted
      only when [moves s = \[\]]. *)
  val terminal_value : state -> float

  (** [encode s] is a canonical key: injective on reachable states (equal
      states produce equal strings, distinct states distinct strings). The
      memo table hashes and compares these flat strings instead of
      traversing the state on every probe — build encoders with {!Key} so
      injectivity holds by construction. Must be thread-safe (pure). *)
  val encode : state -> string

  (** [encode_into s b] appends exactly the bytes of [encode s] to [b]
      (callers [Key.reset] first). The solver's hot path probes the memo
      table with the buffer slice directly, so a probe of an
      already-memoized state copies no key; [encode] stays as the
      cold-path/compatibility form and the two must agree byte-for-byte
      ([encode s = Key.run (encode_into s)]). *)
  val encode_into : state -> Key.buf -> unit

  val pp_move : Format.formatter -> move -> unit
end

exception Cyclic

(** Raised (only) in prune-audit mode when a cutoff against the bound 1
    would have changed a computed value — see [set_prune_audit]. The payload pins the
    offending cut: kind, depth, the bound that justified the cut and the
    full value that beat it. *)
exception Prune_unsound of string

(** Counters describing one solver instance's work since its last [reset]:
    distinct states memoized, memo-table hits/misses, and the deepest
    recursion reached. Aggregates across all instances also land in
    [Obs.Metrics] under the [mdp.] prefix, published at the end of each
    root solve. *)
type stats = {
  states : int;
  memo_hits : int;
  memo_misses : int;
  max_depth : int;
}

(** [hit_rate s] is hits / (hits + misses), 0 when idle. *)
val hit_rate : stats -> float

val pp_stats : Format.formatter -> stats -> unit

(** [pp_summary ~wall_s ppf s] is the one-line summary a root solve
    prints: [s.states], states per second over [wall_s], the memo hit
    rate and the process's peak major heap so far (the GC's high-water
    mark as of its last major cycle, so 0.0 before the first), as in
    [summary: 106263 states, 152000 states/s, 74.2% hit rate, 61.3 MB peak heap]. *)
val pp_summary : wall_s:float -> Format.formatter -> stats -> unit

(** The solver's [Logs] source, [blunting.mdp]. Every 50,000 newly
    memoized states a running solve logs a progress line at info
    (memoized states, hit rate, depth, wall time since the root
    [value]/[best_move] call, and this solve's memo misses per second),
    about twice during the 106 k-state E2 solve; the line is never
    logged after [value] returns. [best_move] logs candidate values and
    the chosen move (via the game's [pp_move]) at debug. *)
val log_src : Logs.src

(** {2 Out-of-core memo budget}

    A solve given a memo budget ([?memo_budget] > 0) runs its memo
    through {!Store.Memo}: an exactly-once claim/resolve
    table whose resolved entries spill to sorted-run segment files once
    the in-RAM tier passes the budget, probed back through a per-shard
    LRU block cache. The discipline
    mirrors the in-RAM memo's exactly, so budgeted solves return
    bit-identical values and identical hit/miss/state counts — only
    peak memory and wall time change. Games that fit in budget never
    touch the disk (no file is even created). A budget arms the store
    only on an instance whose memo is empty (fresh or just [reset]);
    once armed, an instance stays on the store — accumulating
    cross-solve memoization like the in-RAM table — until its [reset]. *)

module Make (G : GAME) : sig
  (** [value ?prune s] is the optimal (adversary-maximal) probability from
      [s]. With [~prune:true], two cutoffs against the a-priori bound 1 on
      every value apply: a chance fold stops once its partial sum plus 1
      for every unevaluated branch cannot beat the parent max, and a max
      fold stops once the accumulator reaches 1. Both are value-exact
      (the returned value is bit-identical to the unpruned solve; see
      "Cutoffs against the bound 1" below for the admissibility
      requirement), but fewer states are explored, so
      [explored ()] may be smaller. Only fully-evaluated state values
      enter the memo, so pruned and unpruned solves may share an
      instance.

      [?memo_budget] runs the memo out-of-core — see the "Out-of-core
      memo budget" section above; values and counts stay bit-identical.
      Raises [Invalid_argument] when a budget > 0 reaches an instance
      that is still in RAM but already holds states. *)
  val value : ?memo_budget:int -> ?prune:bool -> G.state -> float

  (** [best_move s] is a move achieving [value s]; [None] at terminals. *)
  val best_move : G.state -> G.move option

  (** [explored ()] is the number of distinct states memoized so far. *)
  val explored : unit -> int

  (** [stats ()] is this instance's work since the last [reset]. *)
  val stats : unit -> stats

  (** [store_stats ()] is the out-of-core backend's cumulative telemetry
      (spills, block-cache traffic, amplification inputs) since a memo
      budget armed it — [None] while the instance is purely in-RAM. *)
  val store_stats : unit -> Store.Memo.stats option

  (** {2 Cutoffs against the bound 1}

      The cuts use the a-priori bound [hi = 1] on every state's value.
      Soundness needs [hi] to bound the {e computed} (floating-point)
      values, not only the exact ones. Round-to-nearest is monotone, so a
      chance value never exceeds the left-to-right float sum of its
      probabilities: exactly 1 for power-of-two coins, and at most 1 for
      uniform [1/n] choices with [n <= 8] — the iteration choices of
      ABD^k, VA^k and ghw^k at every [k] solved here. Uniform choices
      among 9 or 11 outcomes sum to [1 + 2^-52]; check such games with
      [set_prune_audit]. *)

  (** [set_prune_audit true] makes every subsequent pruned solve evaluate
      each would-be cut subtree anyway and raise {!Prune_unsound} if the
      cut would have changed the parent's value — the pruning-soundness
      fuzz oracle's mode. Audit solves explore as much as unpruned ones
      (plus the verification folds); [pruned_subtrees ()] still counts
      the cuts that fired. Default off. *)
  val set_prune_audit : bool -> unit

  (** [pruned_subtrees ()] is the number of cutoffs taken since the
      last [reset]. *)
  val pruned_subtrees : unit -> int

  (** [reset ()] clears the memo table, zeroes [stats] (including the
      pruned-subtree count), and re-arms the per-solve telemetry
      baselines (solve start time and the per-solve miss base), so a
      reused instance's progress lines report a sane elapsed time and
      rate on its next solve. *)
  val reset : unit -> unit
end
