(** One shard's spill file: an append-only sequence of immutable sorted
    runs, read back through a {!Block_cache}.

    The file is scratch. One store creates it, writes it, reads it back
    and deletes it; nothing ever reopens it. So the file holds only
    records, and each run's offset, record count, key width and bloom
    filter live in RAM.

    A run is a batch of resolved memo entries written in one append:
    [count] fixed-size records of [8 + 2 + padded + 8] bytes, sorted by
    (key hash, key length, key bytes):

    {v
      offset       size    field
      0            8       key hash (i64 LE)
      8            2       key length (u16 LE)
      10           padded  key bytes, zero-padded to the run's widest key
      10 + padded  8       value (IEEE-754 bits, i64 LE)
    v}

    The key is the canonical {!Mdp.Key} byte encoding, stored verbatim;
    floats round-trip exactly. Runs start on block boundaries (the gap
    is zero-filled), so a cached block never changes.

    A probe checks each run newest-first: the run's bloom filter (two
    probes derived from the stored 64-bit hash) rejects most absent
    keys without touching the file; survivors binary-search the run's
    records through the block cache. *)

type t

(** [create ~path ~cache] creates the segment file at [path]. The file
    must not exist: an existing file raises [Unix.Unix_error EEXIST]. *)
val create : path:string -> cache:Block_cache.t -> t

(** [append_run t entries] sorts [(hash, key, value)] entries and
    appends them as one run; returns the bytes appended (records and
    block padding). Keys must be distinct and absent from every earlier
    run. Empty input appends nothing and returns 0. *)
val append_run : t -> (int * string * float) array -> int

(** [find t ~hash ~key ~koff ~klen] probes every run, newest first, for
    the key equal to [Bytes.sub key koff klen] (whose hash must be
    [hash], as computed by {!Par.Slice_tbl.hash_slice}). Raises
    [Failure] if a record it must read is missing from the file. *)
val find : t -> hash:int -> key:Bytes.t -> koff:int -> klen:int -> float option

(** [find_string t ~hash ~key] — {!find} on a string key, no copy. *)
val find_string : t -> hash:int -> key:string -> float option

(** [close t] closes the file descriptor (idempotent). *)
val close : t -> unit

(** [delete t] closes and removes the file (best-effort). *)
val delete : t -> unit
