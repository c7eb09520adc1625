(** A flat find-or-claim table from byte-string keys to [float] values.

    The solver's RAM memo: every state probe of a sequential in-RAM solve
    lands here, and the shards of {!Sharded_tbl} are instances of it. A
    probe hashes a [(bytes, length)] slice in place, 8 bytes per step,
    and walks a linear-probing [int array] index whose slots carry 32
    hash bits beside the ordinal, so a foreign slot is rejected without
    touching its binding and growth rehashes from the index alone. A key
    is copied once, on a fresh claim, into an append-only arena of chunks
    (4 KiB, doubling to 1 MiB; a record never straddles two), behind an
    8-byte cell that holds the claimant and then the value's bits. A
    probe of a present key allocates nothing, a resolved value is never
    boxed, and the GC has no per-binding block to scan.

    Cost per binding slot of capacity: two index words (load <= 1/2) and
    one location word (arena offset, key length, resolved bit), 24 bytes
    of arrays, where per-ordinal hash, location, value and owner arrays
    cost 48; per binding, the arena holds the key plus its 8-byte cell.

    A binding is identified by its {e ordinal}: [0, 1, 2, ...] in claim
    order. Ordinals are the claim tokens — they stay valid while the
    index grows and until {!clear}.

    Not thread-safe: callers shard and lock (see {!Sharded_tbl}) or keep
    one table per domain. *)

type t

(** [create ?size ()] makes an empty table with room for about [size]
    (default 512) bindings before the index first grows. Raises
    [Invalid_argument] if the index would exceed 2{^32} slots
    ([size > 2{^31}]). *)
val create : ?size:int -> unit -> t

(** [max_key_length] is the longest key accepted (65,535 bytes). *)
val max_key_length : int

(** [find_or_claim t data ~len ~owner] is the ordinal of the binding for
    the key [Bytes.sub_string data 0 len]. If there was none, it claims
    one for [owner] (copying the key) and {!last_was_new} becomes
    [true]. The binding's state is then read with {!owner} and {!value}.
    Raises [Invalid_argument] if [len > max_key_length] or, on a fresh
    claim, if [owner < 0] or the table already holds 2{^31} - 1
    bindings. *)
val find_or_claim : t -> Bytes.t -> len:int -> owner:int -> int

(** [last_was_new t] is [true] iff the most recent {!find_or_claim}
    claimed a fresh binding. *)
val last_was_new : t -> bool

(** [owner t ord] is the claimant of binding [ord], or [-1] once it is
    resolved. *)
val owner : t -> int -> int

(** [value t ord] is the value of a resolved binding (unspecified while
    it is claimed). *)
val value : t -> int -> float

(** [resolve t ord v] stores [v] as binding [ord]'s value. Raises
    [Invalid_argument] if [ord] is not a live claim (already resolved,
    or never claimed). *)
val resolve : t -> int -> float -> unit

(** [key t ord] copies binding [ord]'s key out as a string. *)
val key : t -> int -> string

(** [length t] counts bindings, claimed and resolved. *)
val length : t -> int

(** [resolved t] counts resolved bindings. *)
val resolved : t -> int

(** [iter_resolved t f] applies [f] to every resolved binding, in claim
    order. *)
val iter_resolved : t -> (string -> float -> unit) -> unit

(** [clear t] drops every binding, keeping the arrays and the arena. *)
val clear : t -> unit

(** [hash_slice data len] is the table's hash of the slice. The low bits
    pick an index slot; {!Sharded_tbl} routes on bits far above them. *)
val hash_slice : Bytes.t -> int -> int

(** {!find_or_claim} for a caller that already holds
    [hash = hash_slice data len]; [find_hashed] is the ordinal of the
    key's binding, or [-1], without claiming. *)
val find_or_claim_hashed :
  t -> hash:int -> Bytes.t -> len:int -> owner:int -> int

val find_hashed : t -> hash:int -> Bytes.t -> len:int -> int
