(** A flat find-or-claim table from byte-string keys to [float] values.

    The solver's RAM memo: every state probe of a sequential in-RAM solve
    lands here, and the shards of {!Sharded_tbl} are instances of it. A
    probe hashes a [(bytes, length)] slice in place, 8 bytes per step,
    and walks a linear-probing [int array] index whose slots carry 28
    hash bits beside the binding's handle, so a foreign slot is rejected
    without touching its binding and growth rehashes from the index
    alone. A key is copied once, on a fresh claim, into an append-only
    arena of chunks (4 KiB, doubling to 1 MiB; a record never straddles
    two) as one record: a 4-byte header (key length, resolved bit), an
    8-byte cell that holds the claimant and then the value's bits, then
    the key. A probe of a present key allocates nothing and touches two
    places (its slot and its record), a resolved value is never boxed,
    and the GC has no per-binding block to scan.

    Cost per binding: one index word at a load between 7/16 and 7/8
    (the index doubles when a claim brings it to 7/8), that is 9.1 to
    18.3 bytes, plus a [12 + key length] byte record.

    A binding is identified by its {e handle}: its record's arena
    offset. Handles are the claim tokens; they stay valid while the
    index grows and until {!clear}. {!owner}, {!value}, {!resolve} and
    {!key} raise [Invalid_argument] on a handle outside the arena
    ([h < 0], or past the last record); any other value that no probe
    returned reads an unspecified binding.

    Limits: the index holds at most 2{^28} slots, so at most
    [2{^28} * 7/8 - 1] (about 235 million) bindings, and handles have
    35 bits, so the arena holds at most 32 GiB. Either limit raises
    [Invalid_argument] on the claim that would pass it.

    Not thread-safe: callers shard and lock (see {!Sharded_tbl}) or keep
    one table per domain. *)

type t

(** [create ?size ()] makes an empty table with room for [size]
    (default 512) bindings before the index first grows. Raises
    [Invalid_argument], before allocating, if [size] bindings need more
    than 2{^28} slots. *)
val create : ?size:int -> unit -> t

(** [max_key_length] is the longest key accepted (65,535 bytes). *)
val max_key_length : int

(** [find_or_claim t data ~len ~owner] is the handle of the binding for
    the key [Bytes.sub_string data 0 len]. If there was none, it claims
    one for [owner] (copying the key) and {!last_was_new} becomes
    [true]. The binding's state is then read with {!owner} and {!value}.
    Raises [Invalid_argument] if [len > max_key_length], if [len]
    exceeds [Bytes.length data] or, on a fresh claim, if [owner < 0] or
    the table is full (see the limits above). *)
val find_or_claim : t -> Bytes.t -> len:int -> owner:int -> int

(** [last_was_new t] is [true] iff the most recent {!find_or_claim}
    claimed a fresh binding. *)
val last_was_new : t -> bool

(** [owner t h] is the claimant of binding [h], or [-1] once it is
    resolved. *)
val owner : t -> int -> int

(** [value t h] is the value of a resolved binding (unspecified while
    it is claimed). *)
val value : t -> int -> float

(** [resolve t h v] stores [v] as binding [h]'s value. Raises
    [Invalid_argument] if [h] is already resolved or out of range. *)
val resolve : t -> int -> float -> unit

(** [key t h] copies binding [h]'s key out as a string. *)
val key : t -> int -> string

(** [length t] counts bindings, claimed and resolved. *)
val length : t -> int

(** [resolved t] counts resolved bindings. *)
val resolved : t -> int

(** [iter_resolved t f] applies [f] to every resolved binding, in claim
    order. *)
val iter_resolved : t -> (string -> float -> unit) -> unit

(** [clear t] drops every binding, keeping the index and the arena. *)
val clear : t -> unit

(** [hash_slice data len] is the table's hash of the slice. The low bits
    pick an index slot; {!Sharded_tbl} routes on bits far above them.
    One check of [len] against [Bytes.length data] (which raises
    [Invalid_argument]) covers every load, so the loop's loads are
    unchecked. *)
val hash_slice : Bytes.t -> int -> int

(** {!find_or_claim} for a caller that already holds
    [hash = hash_slice data len]; [find_hashed] is the handle of the
    key's binding, or [-1], without claiming. Both raise
    [Invalid_argument] if [len] exceeds [Bytes.length data]. *)
val find_or_claim_hashed :
  t -> hash:int -> Bytes.t -> len:int -> owner:int -> int

val find_hashed : t -> hash:int -> Bytes.t -> len:int -> int
