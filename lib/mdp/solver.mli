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

    Every engine — sequential or parallel, pruned or not, in RAM or under
    a memo budget — runs one recursion over one find-or-claim memo
    interface, backed by {!Par.Memo_tbl} (one participant, in RAM),
    {!Par.Sharded_tbl} (parallel workers, in RAM) or {!Store.Memo}
    (budgeted).
    Each state is evaluated once, by the same fold, so values are
    bit-identical across engines. *)

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

(** Raised (only) in prune-audit mode when an interval cut would have
    changed a computed value — see [set_prune_audit]. The payload pins the
    offending cut: kind, depth, the bound that justified the cut and the
    full value that beat it. *)
exception Prune_unsound of string

(** Counters describing one solver instance's work since its last [reset]:
    distinct states memoized, memo-table hits/misses, and the deepest
    recursion reached. Aggregates across all instances also land in
    [Obs.Metrics] under the [mdp.] prefix — published at the end of each
    root solve from the calling domain, so parallel workers never touch
    the registry. *)
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

(** One parallel participant's work, keyed by its runtime domain id (the
    id {!Par.Pool.domain_ids} and trace dumps use). Under the shared-memo
    solver a participant's [states] and [memo_misses] both count the
    states it won the claim for and evaluated; [memo_hits] counts its
    probes answered by an already-resolved entry. *)
type domain_stats = { domain_id : int; stats : stats }

(** Cross-domain telemetry of the most recent [value_par]. Its
    participants are the workers and the root pass (on the calling
    domain; merged into that domain's entry when it also ran a worker).
    [distinct_keys] is the number of distinct state keys the solve
    resolved in its memo — equal to the sequential solve's state count
    for the same root (unpruned). The claim protocol evaluates every key
    exactly once, so the domains' summed [memo_misses] equal
    [distinct_keys].
    [steals] counts successful deque steals, [claim_hits]/[claim_misses]
    the shared-memo probes answered by a resolved value / by another
    worker's live claim (the helping protocol), and [pruned_subtrees] the
    interval cuts taken (0 unless [~prune:true]). All exact; trace rings
    carry none of these counts. *)
type par_stats = {
  domains : domain_stats list;  (** sorted by domain id *)
  distinct_keys : int;
  steals : int;
  claim_hits : int;
  claim_misses : int;
  pruned_subtrees : int;
}

val pp_par_stats : Format.formatter -> par_stats -> unit

(** A progress report from inside a running solve: the instance's stats so
    far, wall time since the root [value]/[best_move] call, and the
    evaluation rate (memo misses {e of this solve} per second — a reused
    instance does not count earlier solves' work in its rate). *)
type progress = { stats : stats; elapsed_s : float; states_per_sec : float }

val pp_progress : Format.formatter -> progress -> unit

(** How often progress fires when [set_progress] does not say: every 50 000
    memoized states (about twice during the 106 k-state E2 solve). *)
val default_progress_interval : int

(** The solver's [Logs] source, [blunting.mdp]; [best_move] logs candidate
    values and the chosen move (via the game's [pp_move]) at debug. *)
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
    touch the disk (no file is even created). Once armed, an instance
    stays on the store — accumulating cross-solve memoization like the
    in-RAM table — until its [reset]. *)

(** [parse_memo_budget s] parses a byte count with an optional K/M/G
    (binary) suffix, as accepted by [--memo-budget]. [Ok 0] means "no
    budget". *)
val parse_memo_budget : string -> (int, string) result

module Make (G : GAME) : sig
  (** [value ?prune s] is the optimal (adversary-maximal) probability from
      [s]. With [~prune:true], chance-node children whose interval upper
      bound (every unevaluated child at [hi = 1]) cannot beat the parent
      max are cut, and max folds stop once the accumulator reaches 1 —
      both cuts are value-exact (the returned value is bit-identical to
      the unpruned solve; see "Interval pruning" below for the
      admissibility requirement), but fewer states are explored, so
      [explored ()] may be smaller. Only fully-evaluated state values
      enter the memo, so pruned and unpruned solves may share an
      instance.

      [?memo_budget] runs the memo out-of-core — see the "Out-of-core memo budget" section above;
      values and counts stay bit-identical. *)
  val value : ?memo_budget:int -> ?prune:bool -> G.state -> float

  (** [value_par ?pool ?prune ~jobs s] is [value s] computed by [jobs]
      cooperating workers over one shared sharded memo
      ({!Par.Sharded_tbl}): the game is walked a few plies down to a
      frontier of distinct states, dealt into per-worker work-stealing
      deques ({!Par.Deque}); each worker drains its own deque and steals
      from the others when empty. Every state evaluation claims its key
      in the shared table first, so each state is evaluated by exactly
      one worker — no duplicated work — and a worker probing another's
      live claim helps by evaluating that state's children before waiting
      for the owner's value. When the workers are done, a root pass on
      the calling domain runs the sequential recursion from [s] over the
      same memo: the frontier states are hits, and it evaluates only the
      states above them. The result is bit-identical to [value s] at
      every job count, and (unpruned) the memo ends up holding exactly
      the sequential solve's states.

      A game whose frontier has fewer distinct states than [jobs] runs no
      workers: the root pass alone solves it, on a fresh {!Par.Memo_tbl}.
      [jobs <= 1] is exactly [value ?prune s]. With [pool] the caller's
      pool is reused ([pool] must have at least [jobs] slots to run all
      workers concurrently; fewer slots still terminate — a participant
      finishing one worker loop picks up the next — but with reduced
      parallelism), otherwise a fresh pool is created for the call.

      Work counters merge into this instance's [stats]: states/misses
      gain the distinct-state count, hits the shared-memo probe hits.
      Cycle detection is preserved — a worker or the root pass
      re-entering its own claim raises [Cyclic], exactly as a sequential
      solve re-entering a state. Progress hooks do not fire during
      [value_par].

      When {!Obs.Ring} tracing is enabled, workers record [Steal] events
      (successful deque steals) into their domains' rings, inside the
      pool's task slices; memo probes are counted in [last_par_stats],
      not traced.

      With a memo budget armed, the workers and the root pass share the
      instance's spillable {!Store.Memo} instead of a fresh in-RAM table — same
      claim protocol, same bit-identical result; each sorted run the
      store writes additionally lands in the rings as a [Store_spill]
      event. *)
  val value_par :
    ?pool:Par.Pool.t ->
    ?memo_budget:int ->
    ?prune:bool ->
    jobs:int ->
    G.state ->
    float

  (** [last_par_stats ()] is the cross-domain telemetry of the most recent
      [value_par] on this instance — [None] before the first, after
      [reset], and after any subsequent root solve ([value], [best_move]
      or [value_par] itself clear it on entry, so the report can never
      describe work an intervening solve overwrote). Computed eagerly
      when [value_par] returns; calling this costs nothing. *)
  val last_par_stats : unit -> par_stats option

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

  (** {2 Interval pruning}

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

  (** [pruned_subtrees ()] is the number of interval cuts taken since the
      last [reset] (sequential and parallel solves combined). *)
  val pruned_subtrees : unit -> int

  (** [set_progress ?interval_states hook] installs (or, with [None],
      removes) a progress hook for this instance. It fires synchronously
      from inside the recursion every [interval_states] newly memoized
      states — long solves report live, and the hook can never fire after
      [value] returns. Each tick is also logged at info level on the
      [blunting.mdp] source, hook or not. *)
  val set_progress : ?interval_states:int -> (progress -> unit) option -> unit

  (** [reset ()] clears the memo table, zeroes [stats] (including the
      pruned-subtree count), clears [last_par_stats], and re-arms the
      per-solve telemetry baselines (solve start time and the per-solve
      miss base), so a reused instance reports sane [elapsed_s] and
      [states_per_sec] on its next solve. *)
  val reset : unit -> unit
end
