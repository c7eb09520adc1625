(** A domain pool for data-parallel sections (no dependencies beyond the
    tracing hooks of {!Obs.Ring}).

    OCaml 5 domains are expensive to spawn (~hundreds of microseconds) and
    the runtime caps their total count, so parallel workloads share a pool:
    [create ~jobs] spawns [jobs - 1] worker domains that block on a
    mutex/condition-protected task queue, and the submitting domain itself
    participates in every parallel region (so [jobs = 1] means "fully
    sequential, zero domains spawned" and a pool never deadlocks on a
    single-core machine).

    The pool makes no fairness or ordering promises inside a region — work
    items are handed out as chunks of the index space on a first-come
    basis — so callers must make per-index work independent and
    deterministic (derive per-index RNG streams from the index, merge
    results positionally). Everything in this module is safe to call from
    the domain that created the pool; pools must not be shared across
    domains or nested inside a running region.

    When {!Obs.Ring} tracing is enabled, workers record task slices (one
    per chunk grabbed from the region cursor) and idle slices (blocking
    on the task queue) into their per-domain rings — the raw material for
    the per-domain utilization timeline of [blunting trace analyze].
    Disabled, the hooks are single atomic loads. *)

type t

(** [create ~jobs] builds a pool running at most [jobs] tasks
    concurrently ([jobs - 1] spawned worker domains plus the caller).
    Raises [Invalid_argument] when [jobs < 1]. *)
val create : jobs:int -> t

(** [jobs t] is the configured concurrency (including the caller). *)
val jobs : t -> int

(** [shutdown t] joins the worker domains. Idempotent; the pool is
    unusable afterwards. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down, including on exceptions — the exception-safe entry point the
    fuzzer, the bench harness and the CLI use, so a raised oracle failure
    never leaves a worker domain alive. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** [spawned_domains ()] is the process-wide number of currently live
    worker domains across all pools (spawned and not yet joined). After
    every [with_pool] has unwound — normally or exceptionally — this is
    0; the test suite asserts it. *)
val spawned_domains : unit -> int

(** [domain_ids t] is the runtime {!Domain.id} of each spawned worker, in
    spawn order ([jobs - 1] entries — the caller participates in regions
    under its own id, which is not listed). Stable for the pool's
    lifetime; the bench harness records them in the results document so
    traces can be joined to the PAR section. *)
val domain_ids : t -> int list

(** [map t ~n f] is [Array.init n f] with the index space partitioned
    into chunks executed across the pool. [f] runs concurrently on
    several domains and must not touch shared mutable state; the result
    array is positional, so the outcome is independent of the schedule.
    The first exception raised by any index is re-raised (after the
    region quiesces); remaining indices may or may not have run. *)
val map : t -> n:int -> (int -> 'a) -> 'a array

(** [env_jobs ()] is [BLUNTING_JOBS] if set and positive. *)
val env_jobs : unit -> int option
