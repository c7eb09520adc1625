(* LRU block cache over one segment file.

   Intrusive doubly-linked list threaded through the nodes (head = most
   recently used), plus a Hashtbl from block index to node. All four
   operations — hit, miss, evict, pin — are O(1); [cached_blocks] walks
   the list for the tests. The owning shard's mutex serializes callers,
   so nothing here synchronizes. *)

type node = {
  idx : int;
  data : Bytes.t;
  mutable valid : int;  (* bytes of [data] that came from the file *)
  mutable pins : int;
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
  mutable resident : int;
  mutable unpinned : int;
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
    resident = 0;
    unpinned = 0;
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

let touch t n =
  unlink t n;
  push_front t n

(* Evict from the LRU end, skipping pinned nodes. If everything resident
   is pinned the cache temporarily exceeds capacity — a pinned block must
   stay byte-stable for whoever pinned it. *)
let evict_to_capacity t =
  let rec go = function
    | None -> ()
    | Some n when t.unpinned <= t.capacity -> ignore n
    | Some n ->
        let before = n.prev in
        if n.pins = 0 then begin
          unlink t n;
          Hashtbl.remove t.tbl n.idx;
          t.resident <- t.resident - 1;
          t.unpinned <- t.unpinned - 1;
          t.evictions <- t.evictions + 1
        end;
        go before
  in
  if t.unpinned > t.capacity then go t.tail

let fault t fd idx =
  let data = Bytes.create t.block_size in
  let off = idx * t.block_size in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
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
  let n = { idx; data; valid; pins = 0; prev = None; next = None } in
  push_front t n;
  Hashtbl.add t.tbl idx n;
  t.resident <- t.resident + 1;
  t.unpinned <- t.unpinned + 1;
  evict_to_capacity t;
  n

let get_block t fd idx =
  match Hashtbl.find_opt t.tbl idx with
  | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      n
  | None ->
      t.misses <- t.misses + 1;
      fault t fd idx

let pin_node t n =
  if n.pins = 0 then t.unpinned <- t.unpinned - 1;
  n.pins <- n.pins + 1

let unpin_node t n =
  if n.pins <= 0 then invalid_arg "Block_cache.unpin: block is not pinned";
  n.pins <- n.pins - 1;
  if n.pins = 0 then begin
    t.unpinned <- t.unpinned + 1;
    evict_to_capacity t
  end

let pin t idx =
  match Hashtbl.find_opt t.tbl idx with
  | Some n -> pin_node t n
  | None -> raise Not_found

let unpin t idx =
  match Hashtbl.find_opt t.tbl idx with
  | Some n -> unpin_node t n
  | None -> raise Not_found

let cached t idx = Hashtbl.mem t.tbl idx

let cached_blocks t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.idx :: acc) n.next
  in
  go [] t.head

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
      (* pinned for the copy: a multi-block read faulting block k+1 must
         not evict block k's bytes mid-copy in some future refactor —
         and the pin path is exactly what the tests exercise *)
      pin_node t n;
      Bytes.blit n.data in_block dst dst_off chunk;
      unpin_node t n;
      go (off + chunk) (len - chunk) (dst_off + chunk)
    end
  in
  go off len dst_off

let note_write t n = t.bytes_written <- t.bytes_written + n

let invalidate t =
  let drop =
    Hashtbl.fold (fun idx n acc -> if n.pins = 0 then (idx, n) :: acc else acc)
      t.tbl []
  in
  List.iter
    (fun (idx, n) ->
      unlink t n;
      Hashtbl.remove t.tbl idx;
      t.resident <- t.resident - 1;
      t.unpinned <- t.unpinned - 1)
    drop

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    bytes_read = t.bytes_read;
    bytes_written = t.bytes_written;
  }
