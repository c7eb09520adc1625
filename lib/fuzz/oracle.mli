(** The five fuzz oracles.

    Each oracle checks one relational property the paper's development
    rests on; a failure of any of them on the healthy implementations is
    a real bug in the reproduction:

    - {b lin} (per case): every generated history — including histories
      of the transformed [O^k] wrappers and schedule {e prefixes} left by
      the shrinker — is per-object linearizable ({!Lin.Multi}).
    - {b model} (per iteration): a simulator execution of the atomic
      weakener, abstracted after every program step, matches the
      {!Model.Weakener_atomic} game transition-for-transition on
      canonical [Game.encode] keys, and both sides agree on the terminal
      bad-outcome classification.
    - {b dist} (per session): the empirical bad-outcome distributions of
      the weakener over ABD vs ABD^k under the same scheduler class are
      statistically compatible (Theorem 4.1 as a property test; Wilson
      intervals from {!Util.Stats}).
    - {b par} (per session): Monte-Carlo tallies are bit-identical at
      [--jobs 1] and [--jobs 2] ({!Par.Pool}).
    - {b prune} (per session): on randomly generated layered-DAG games,
      solves with the cutoffs against the a-priori bound 1 return bitwise
      the exact optimal value while exploring no more states, every
      cutoff survives audit-mode re-evaluation (the cut subtree really
      could not change the max — [Mdp.Solver.Prune_unsound] otherwise).

    Every per-case execution is a pure function of [(seed, iter, case)]:
    the scheduler RNG, the random tape and the generated case all derive
    from {!Util.Rng.stream} on disjoint indices, so any failure replays
    from the corpus entry alone. *)

type failure = {
  oracle : string;
  seed : int;
  iter : int;
  case : Case.t option;
  schedule : int array;
  detail : string;
}

val pp_failure : Format.formatter -> failure -> unit

(** {1 Per-case execution} *)

(** [case_stream ~seed ~iter] is the RNG stream iteration [iter] draws
    its case from; the engine and corpus replay share it. Streams for
    case generation, scheduling, the random tape and the lockstep playout
    use disjoint indices, so no consumer ever reuses another's draws. *)
val case_stream : seed:int -> iter:int -> Util.Rng.t

(** [run_recorded ~seed ~iter case] runs [case] to completion (or its
    step budget) under a recording scheduler and returns the runtime plus
    the recorded choice codes. The scheduler stream picks the policy:
    half the runs schedule uniformly, half with
    {!Adversary.Schedulers.lazy_delivery}; the codes replay under either.
    The runtime keeps a {!Sim.Trace.History} trace, which is all the lin
    oracle reads. *)
val run_recorded :
  seed:int -> iter:int -> Case.t -> Sim.Runtime.t * int array

(** [replay ~seed ~iter case codes] re-executes exactly the schedule
    prefix [codes] (same RNG streams and trace level as [run_recorded])
    and returns the runtime for inspection. [observe n e] (default:
    nothing) sees every decision along the way: the number [n] of enabled
    events and the chosen [e]. *)
val replay :
  ?observe:(int -> Sim.Runtime.event -> unit) ->
  seed:int ->
  iter:int ->
  Case.t ->
  int array ->
  Sim.Runtime.t

(** {1 Oracles} *)

(** [lin_check case t] checks per-object linearizability of [t]'s
    history. *)
val lin_check : Case.t -> Sim.Runtime.t -> (unit, string) result

(** [lin_fails ~seed ~iter case codes] replays the prefix and reports
    whether the linearizability oracle fails on it — the shrinker's
    predicate. *)
val lin_fails : seed:int -> iter:int -> Case.t -> int array -> bool

(** [model_lockstep ~seed ~iter] drives a random playout of the atomic
    weakener game and the simulator in lockstep, comparing canonical
    encode keys after every move. *)
val model_lockstep : seed:int -> iter:int -> failure option

(** [dist ~seed ~trials ~k ()] compares the weakener's bad-outcome
    frequency over ABD vs ABD^k ([trials] runs each), on the calling
    domain. *)
val dist : seed:int -> trials:int -> k:int -> unit -> failure option

(** [par_identity ~seed ~trials ()] checks seq-vs-par identity of
    Monte-Carlo tallies at jobs 1 vs 2. Spawns (and always joins) its own
    2-domain pool. *)
val par_identity : seed:int -> trials:int -> unit -> failure option

(** [prune_vs_exact ?configs ~seed ()] checks pruning soundness on
    [configs] (default 4) randomly shaped layered-DAG games: pruned vs
    unpruned value identity, explored-state monotonicity and audit-mode
    cleanliness. Runs entirely on the calling domain, with an RNG
    stream from a seed family disjoint from the per-iteration streams, so
    its verdict is independent of the session's [--jobs]. *)
val prune_vs_exact : ?configs:int -> seed:int -> unit -> failure option
