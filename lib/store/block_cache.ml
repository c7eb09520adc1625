(* LRU block cache over one segment file.

   Intrusive doubly-linked list threaded through the nodes (head = most
   recently used), plus a Hashtbl from block index to node, so a hit, a
   miss and an eviction are all O(1). The owning shard's mutex
   serializes callers, so nothing here synchronizes. *)

type node = {
  idx : int;
  data : Bytes.t;
  valid : int;  (* bytes of [data] that came from the file *)
  mutable prev : node option;  (* toward the MRU end *)
  mutable next : node option;  (* toward the LRU end *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  bytes_read : int;
  bytes_written : int;
}

type t = {
  block_size : int;
  capacity : int;
  tbl : (int, node) Hashtbl.t;
  mutable head : node option;  (* MRU *)
  mutable tail : node option;  (* LRU *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let create ?(block_size = 4096) ~capacity () =
  {
    block_size = max 64 block_size;
    capacity = max 1 capacity;
    tbl = Hashtbl.create 64;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    bytes_read = 0;
    bytes_written = 0;
  }

let block_size t = t.block_size

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

(* Drop the LRU block if the cache is over capacity. The block just
   faulted sits at the head, so it is never the one dropped. *)
let evict t =
  match t.tail with
  | Some n when Hashtbl.length t.tbl > t.capacity ->
      unlink t n;
      Hashtbl.remove t.tbl n.idx;
      t.evictions <- t.evictions + 1
  | _ -> ()

let fault t fd idx =
  let data = Bytes.create t.block_size in
  ignore (Unix.lseek fd (idx * t.block_size) Unix.SEEK_SET);
  (* a block read can come back in pieces; loop until EOF or full *)
  let rec fill k =
    if k >= t.block_size then k
    else
      match Unix.read fd data k (t.block_size - k) with
      | 0 -> k
      | r -> fill (k + r)
  in
  let valid = fill 0 in
  t.bytes_read <- t.bytes_read + valid;
  let n = { idx; data; valid; prev = None; next = None } in
  push_front t n;
  Hashtbl.add t.tbl idx n;
  evict t;
  n

let get_block t fd idx =
  match Hashtbl.find_opt t.tbl idx with
  | Some n ->
      t.hits <- t.hits + 1;
      unlink t n;
      push_front t n;
      n
  | None ->
      t.misses <- t.misses + 1;
      fault t fd idx

let read t fd ~off ~len ~dst ~dst_off =
  if len < 0 || off < 0 then invalid_arg "Block_cache.read";
  let bs = t.block_size in
  let rec go off len dst_off =
    if len > 0 then begin
      let idx = off / bs in
      let in_block = off - (idx * bs) in
      let chunk = min len (bs - in_block) in
      let n = get_block t fd idx in
      if n.valid < in_block + chunk then
        failwith
          (Printf.sprintf
             "Block_cache.read: short block %d (%d bytes valid, need %d)" idx
             n.valid (in_block + chunk));
      Bytes.blit n.data in_block dst dst_off chunk;
      go (off + chunk) (len - chunk) (dst_off + chunk)
    end
  in
  go off len dst_off

let note_write t n = t.bytes_written <- t.bytes_written + n

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    bytes_read = t.bytes_read;
    bytes_written = t.bytes_written;
  }
