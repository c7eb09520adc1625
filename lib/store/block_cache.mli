(** A fixed-capacity LRU cache of file blocks, the read path of the
    out-of-core memo store ({!Memo}).

    The design is the single-level heart of the BlockCacheSystem from
    verified-betrfs: the file is an array of fixed-size blocks, reads go
    through an in-RAM cache of recently-touched blocks, and a block can
    be {e pinned} while a caller holds a reference into its bytes —
    pinned blocks are never evicted, evictions take the least-recently
    used unpinned block. Segment runs start on block boundaries and are
    never rewritten, so a cached block can never go stale.

    One cache serves one file ({!Segment} keeps a cache per shard
    segment). NOT thread-safe: the owning shard's mutex serializes every
    call, which is also what makes pin/unpin around a multi-block copy
    race-free.

    When every resident block is pinned the cache grows past its
    capacity rather than evicting a pinned block; it shrinks back as
    soon as unpins make eviction possible again. *)

type t

type stats = {
  hits : int;  (** block requests answered from the cache *)
  misses : int;  (** block requests that went to the file *)
  evictions : int;  (** blocks dropped to make room *)
  bytes_read : int;  (** bytes fetched from the file on misses *)
  bytes_written : int;  (** bytes appended through {!note_write} *)
}

(** [create ?block_size ~capacity ()] — a cache of at most [capacity]
    unpinned blocks (at least 1) of [block_size] bytes (default 4096,
    minimum 64). *)
val create : ?block_size:int -> capacity:int -> unit -> t

val block_size : t -> int

(** [read t fd ~off ~len ~dst ~dst_off] copies [len] bytes at file
    offset [off] into [dst] starting at [dst_off], faulting missing
    blocks in from [fd] and pinning each block only for the duration of
    its copy. Raises [Failure] if the file ends before [off + len] — the
    caller ({!Segment}) only ever reads inside a recovered run. *)
val read : t -> Unix.file_descr -> off:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit

(** [pin t idx] / [unpin t idx] — manual pin management for callers that
    keep a reference across several [read]s. [pin] raises [Not_found] if
    the block is not resident; pins nest ([unpin] decrements). [unpin]
    of an unpinned resident block raises [Invalid_argument]. *)
val pin : t -> int -> unit

val unpin : t -> int -> unit

(** [cached t idx] — is block [idx] resident? *)
val cached : t -> int -> bool

(** [cached_blocks t] — resident block indices, most recently used
    first (test hook; O(resident)). *)
val cached_blocks : t -> int list

(** [note_write t n] accounts [n] bytes appended to the underlying file
    (writes bypass the cache; runs are read back through it). *)
val note_write : t -> int -> unit

(** [invalidate t] drops every resident unpinned block (used when the
    underlying file is truncated during recovery). *)
val invalidate : t -> unit

val stats : t -> stats
