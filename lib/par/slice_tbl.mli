(** A string-keyed hash table probeable by a [(bytes, length)] slice,
    with polymorphic values held in mutable entry records.

    The RAM tier of {!Store.Memo}: a probe hashes the slice in place
    (FNV-1a, the hash the store's spilled records carry), walks one
    chain comparing bytes, and only copies the key out to an owned
    string when the slice is genuinely new. A probe of an
    already-present key allocates nothing. The solver's own RAM memo is
    the flat, float-valued {!Memo_tbl}, which {!Sharded_tbl} shards too;
    this table stays for the store, whose entries hold a claim-or-value
    variant, until the store is retired (perf's [solve-spill] and its
    [par.slice_tbl.*] probe replay are its last users). Not
    thread-safe — callers shard and lock, or keep one table
    per domain. *)

(** A binding. [value] is mutable so a caller can probe once and later
    overwrite the same entry in place — no second lookup. [hash] is the
    table's internal (FNV-1a) hash of [key]. *)
type 'a entry = { hash : int; key : string; mutable value : 'a }

type 'a t

(** [create ?size ()] makes an empty table with capacity for about
    [size] (default 1024) bindings before the first resize. *)
val create : ?size:int -> unit -> 'a t

val length : 'a t -> int

(** [clear t] drops every binding, keeping the bucket array. *)
val clear : 'a t -> unit

(** [probe_slice t data ~len ~default] finds the entry whose key equals
    [Bytes.sub_string data 0 len], inserting a fresh entry bound to
    [default] (and copying the key) if absent. {!last_was_new} tells
    which happened. Allocation-free when the key is present. *)
val probe_slice : 'a t -> Bytes.t -> len:int -> default:'a -> 'a entry

(** [probe_string t key ~default] — same protocol, string key (no copy
    on insert: [key] itself is stored). *)
val probe_string : 'a t -> string -> default:'a -> 'a entry

(** [last_was_new t] is [true] iff the most recent probe inserted. *)
val last_was_new : 'a t -> bool

val find_slice : 'a t -> Bytes.t -> len:int -> 'a entry option
val find_string : 'a t -> string -> 'a entry option
val iter : 'a t -> (string -> 'a -> unit) -> unit

(** The FNV-1a fold used internally, exposed so a sharded wrapper can
    route a slice and its materialized string to the same shard. The two
    forms agree: [hash_string (Bytes.sub_string d 0 len) = hash_slice d len]. *)
val hash_slice : Bytes.t -> int -> int

val hash_string : string -> int
