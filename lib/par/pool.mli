(** A domain pool for data-parallel sections (no dependencies beyond the
    standard library).

    OCaml 5 domains are expensive to spawn (~hundreds of microseconds) and
    the runtime caps their total count, so parallel workloads share a pool:
    [with_pool ~jobs] spawns [jobs - 1] worker domains that block on a
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
    domains or nested inside a running region. *)

type t

(** [with_pool ~jobs f] runs [f] with a fresh pool running at most
    [jobs] tasks concurrently ([jobs - 1] spawned worker domains plus the
    caller) and always joins its workers, including on exceptions — the
    only way to get a pool, so a raised oracle failure never leaves a
    worker domain alive. Raises [Invalid_argument] when [jobs < 1]. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** [spawned_domains ()] is the process-wide number of currently live
    worker domains across all pools (spawned and not yet joined). After
    every [with_pool] has unwound — normally or exceptionally — this is
    0; the test suite asserts it. *)
val spawned_domains : unit -> int

(** [map t ~n f] is [Array.init n f] with the index space partitioned
    into chunks executed across the pool. [f] runs concurrently on
    several domains and must not touch shared mutable state; the result
    array is positional, so the outcome is independent of the schedule.
    The first exception raised by any index is re-raised (after the
    region quiesces); remaining indices may or may not have run. *)
val map : t -> n:int -> (int -> 'a) -> 'a array

