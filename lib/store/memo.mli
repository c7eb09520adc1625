(** The out-of-core memo: a spillable, sharded computation cache with
    the solver's find-or-claim protocol, backed by {!Segment} files
    through per-shard {!Block_cache}s once the in-RAM tier exceeds its
    budget.

    Keys are canonical state encodings (the {!Mdp.Key} byte packing);
    values are floats, stored as IEEE-754 bits so budgeted and in-RAM
    solves return bit-identical values. Keys hash to one of 8
    independent shards, each a {!Par.Slice_tbl} of live claims and
    recently resolved values behind its own mutex, plus one segment
    file.

    The exactly-once discipline: per key, one caller is told
    [`Claimed] and must {!resolve}; everyone else gets
    the value or the claim's owner id. Sequential solvers use owner 0 —
    [`Busy 0] on re-entry is the cycle signal. Because a key is claimed
    once, resolved once, and spilled at most once, budgeted and in-RAM
    solves see identical hit/miss/state counts.

    Spilling happens inside {!resolve}: when a shard's resident-byte
    estimate passes its share of the budget, every resolved entry in the
    shard is written out as one sorted run and the shard's RAM tier is
    rebuilt holding only live claims (claims never spill — they are
    transient and bounded by the solve's recursion depth or frontier).
    A probe that misses RAM checks the shard's runs newest-first (bloom
    filter, then binary search through the block cache).

    Segment files are scratch: each is created fresh ([O_EXCL]) in the
    store's own temp directory at the shard's first spill, read only by
    this store, and deleted by {!close}. No file is created until the
    first spill, so an over-provisioned budget costs a pointer check
    per probe and nothing else. *)

type t

type stats = {
  budget_bytes : int;
  resident_bytes : int;  (** current in-RAM tier estimate, all shards *)
  spilled_entries : int;  (** entries living in segment files *)
  spill_runs : int;
  bytes_spilled : int;  (** file bytes appended by spills *)
  payload_bytes : int;  (** key + value bytes of spilled entries *)
  evictions : int;  (** block-cache evictions *)
  cache_hits : int;
  cache_misses : int;
  bytes_read : int;
  bytes_written : int;
  disk_hits : int;  (** probes answered from a segment file *)
  resolved : int;  (** total resolved entries (RAM + disk) *)
}

(** [create ~budget ()] — a store that starts spilling once its RAM
    tier estimate exceeds [budget] bytes (clamped to at least 64 KiB).
    Its segment files live in a fresh directory made by
    [Filename.temp_dir] under [Filename.get_temp_dir_name ()]; raises
    [Sys_error] if that directory cannot be created. {!close} (run at
    exit for stores still open) deletes the files and the directory. *)
val create : budget:int -> unit -> t

(** [find_or_claim_slice t data ~len ~owner] probes the key
    [Bytes.sub_string data 0 len]:
    - [`Value v] — resolved (in RAM or on disk);
    - [`Busy o] — claimed by owner-id [o], not yet resolved;
    - [`Claimed key] — the claim is installed for this caller, which
      must eventually {!resolve} [key]. *)
val find_or_claim_slice :
  t -> Bytes.t -> len:int -> owner:int -> [ `Value of float | `Busy of int | `Claimed of string ]

(** [resolve t key v] publishes the value for [key], which must hold a
    live claim, and spills the shard if it is over budget. Raises
    [Invalid_argument] if [key] is not claimed: never probed, or
    already resolved. *)
val resolve : t -> string -> float -> unit

(** [get t key] is the resolved value, [None] while absent or claimed. *)
val get : t -> string -> float option

(** [resolved t] — total entries ever resolved; with the exactly-once
    protocol this equals the distinct-state count of the solve. *)
val resolved : t -> int

val stats : t -> stats

(** [cache_hit_rate s] / [read_amplification s] (bytes read per spilled
    byte) / [write_amplification s] (file bytes per payload byte) —
    derived figures perf's [solve-spill] workload reports. *)
val cache_hit_rate : stats -> float

val read_amplification : stats -> float
val write_amplification : stats -> float

(** [close t] closes and deletes every segment file and the store's own
    temp directory (idempotent; automatic at process exit). *)
val close : t -> unit
