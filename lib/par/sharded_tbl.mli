(** A sharded concurrent [float]-valued table with a find-or-claim
    protocol.

    Keys hash to one of [shard_count] independent shards, each a
    {!Memo_tbl} behind its own mutex — the bucket-ownership idiom:
    because a key belongs to exactly one shard, per-key operations never
    take more than one lock, critical sections are a few instructions,
    and [n] domains contend only when their keys collide on a shard.

    The claim protocol turns the table into a computation cache with an
    exactly-once guarantee. A binding is either claimed by an owner (some
    caller is computing the value) or resolved to a value.
    {!find_or_claim} atomically returns the finished value, reports the
    claim's owner, or installs a claim for the caller — so across any
    number of domains, exactly one caller is told [`Claimed] per key and
    computes it; everyone else either reads the value or knows who to
    wait for. The work-stealing solver keys this table by canonical
    game-state encodings: one domain evaluates each state, the rest share
    the result. *)

type t

(** [create ?shards ()] makes an empty table with [shards] (default 128,
    rounded up to a power of two) independent shards. *)
val create : ?shards:int -> unit -> t

val shard_count : t -> int

type claim = [ `Value of float | `Busy of int | `Claimed ]
type slice_claim = [ `Value of float | `Busy of int | `Claimed of string ]

(** [find_or_claim t key ~owner] atomically probes [key]:
    - [`Value v] — the key is resolved; [v] is shared.
    - [`Busy o] — claimed by owner-id [o] and not yet resolved. [o] is
      whatever id the claimant passed; callers use it to detect
      self-re-entry (a cycle) vs. another domain to help or wait for.
    - [`Claimed] — the claim was installed for this caller, which must
      eventually {!resolve} the key.

    Owner ids must be [>= 0]. *)
val find_or_claim : t -> string -> owner:int -> claim

(** [find_or_claim_slice t data ~len ~owner] is {!find_or_claim} keyed by
    the slice [Bytes.sub_string data 0 len] — without materializing it.
    The hot path for solver workers probing with a reusable encode
    buffer: only a fresh claim copies the key, out to an owned string
    returned as [`Claimed key], so the claimant can {!resolve} it after
    the buffer has been reused. *)
val find_or_claim_slice : t -> Bytes.t -> len:int -> owner:int -> slice_claim

(** [resolve t key v] publishes the value for a claimed (or absent) key.
    Raises [Invalid_argument] if the key is already resolved — a second
    resolution would mean two domains computed the same key, the bug the
    claim protocol exists to rule out. *)
val resolve : t -> string -> float -> unit

(** [get t key] is the resolved value, [None] while absent or claimed. *)
val get : t -> string -> float option

(** [get_slice t data ~len] is {!get} keyed by the slice. *)
val get_slice : t -> Bytes.t -> len:int -> float option

(** [length t] counts all bindings (claimed and resolved); exact when
    quiescent, a racy snapshot under concurrency. *)
val length : t -> int

(** [resolved t] counts resolved bindings only. *)
val resolved : t -> int

(** [iter_resolved t f] applies [f] to every resolved binding. Each shard
    is snapshotted under its lock, then [f] runs outside it. *)
val iter_resolved : t -> (string -> float -> unit) -> unit
