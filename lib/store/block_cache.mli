(** A fixed-capacity LRU cache of file blocks, the read path of the
    out-of-core memo store ({!Memo}).

    The design is the single-level heart of the BlockCacheSystem from
    verified-betrfs: the file is an array of fixed-size blocks, reads go
    through an in-RAM cache of recently-touched blocks, and a miss
    evicts the least-recently used block once the cache is full.
    Segment runs start on block boundaries and are never rewritten, so a
    cached block can never go stale.

    One cache serves one file ({!Segment} keeps a cache per shard
    segment). NOT thread-safe: the owning shard's mutex serializes every
    call. *)

type t

type stats = {
  hits : int;  (** block requests answered from the cache *)
  misses : int;  (** block requests that went to the file *)
  evictions : int;  (** blocks dropped to make room *)
  bytes_read : int;  (** bytes fetched from the file on misses *)
  bytes_written : int;  (** bytes appended through {!note_write} *)
}

(** [create ?block_size ~capacity ()] — a cache of at most [capacity]
    blocks (at least 1) of [block_size] bytes (default 4096, minimum
    64). *)
val create : ?block_size:int -> capacity:int -> unit -> t

val block_size : t -> int

(** [read t fd ~off ~len ~dst ~dst_off] copies [len] bytes at file
    offset [off] into [dst] starting at [dst_off], faulting missing
    blocks in from [fd]. Each block is copied out before the next one
    is faulted, so a read spanning more blocks than the capacity is
    still whole. Raises [Failure] if the file ends before [off + len]:
    the caller ({!Segment}) only reads inside runs it wrote, so a short
    file means it was truncated under the store. *)
val read : t -> Unix.file_descr -> off:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit

(** [note_write t n] accounts [n] bytes appended to the underlying file
    (writes bypass the cache; runs are read back through it). *)
val note_write : t -> int -> unit

val stats : t -> stats
