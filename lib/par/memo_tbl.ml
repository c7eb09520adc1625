(* A flat claim table. A chained table like [Slice_tbl] keeps one heap
   record per binding (plus a list cell, an owned key string and a boxed
   value), so every probe chases three pointers and every major GC scans
   ~10 words per state. Here a binding is one index slot and one record
   in an append-only arena of byte chunks, and its handle is the
   record's arena offset [chunk lsl 20 lor position] (chunks hold at
   most 1 MiB). The GC sees only the index and the chunks.

   - A record is a 4-byte header [len lsl 1 lor resolved], an 8-byte
     cell, then the key. The cell holds the claimant while the binding
     is claimed and [Int64.bits_of_float v] once it is resolved: claim
     state is the resolved bit, so no float is a "claimed" sentinel.
   - An index slot is [tag lsl off_bits lor (offset + 1)] (0 = empty),
     with [tag] the low bits of the key's hash. The tag's low bits are
     the slot's home, so growth rehashes from the index alone, and a
     probe rejects a foreign slot on its tag without touching its
     record. *)

let chunk_bits = 20
let chunk_bytes = 1 lsl chunk_bits
let pos_mask = chunk_bytes - 1
let max_key_length = (1 lsl 16) - 1
let cell_at = 4  (* the cell follows the header... *)
let key_at = 12  (* ...and the key the cell *)
let off_bits = 35
let off_mask = (1 lsl off_bits) - 1
let max_chunks = 1 lsl (off_bits - chunk_bits)  (* a 32 GiB arena *)
let tag_mask = (1 lsl (Sys.int_size - off_bits)) - 1  (* at most 2^28 slots *)

(* A claim that brings the index to 7/8 full grows it. *)
let max_bindings = ((tag_mask + 1) / 8 * 7) - 1

type t = {
  mutable index : int array;  (* 0 = empty, else tag lsl off_bits lor off + 1 *)
  mutable mask : int;  (* Array.length index - 1; a power of two *)
  mutable count : int;
  mutable resolved : int;
  mutable chunks : Bytes.t array;  (* the arena; [nchunks] allocated *)
  mutable nchunks : int;
  mutable fill : int;  (* arena offset of the next record *)
  mutable fresh : bool;  (* did the last find_or_claim claim? *)
}

(* The fewest slots (at least [s]) that hold [n] bindings below 7/8. *)
let rec slots_for s n = if s / 8 * 7 > n then s else slots_for (2 * s) n

let create ?(size = 512) () =
  if size > max_bindings then
    invalid_arg (Printf.sprintf "Par.Memo_tbl.create: size %d too large" size);
  let slots = slots_for 16 size in
  {
    index = Array.make slots 0;
    mask = slots - 1;
    count = 0;
    resolved = 0;
    chunks = [||];
    nchunks = 0;
    fill = 0;
    fresh = false;
  }

let length t = t.count
let resolved t = t.resolved
let last_was_new t = t.fresh

let clear t =
  Array.fill t.index 0 (Array.length t.index) 0;
  t.count <- 0;
  t.resolved <- 0;
  t.fill <- 0;
  t.fresh <- false

(* ---- hashing ----------------------------------------------------------

   One multiply per 8-byte word, then a 64-bit finalizer (MurmurHash3's
   fmix64 on OCaml's 63-bit ints) so that every key byte reaches the low
   bits the index uses and the high bits [Sharded_tbl] routes on.
   [Int64.to_int] drops a word's top bit, so its top byte is folded in
   again after the multiply. *)

let k1 = 0x3f51afd7ed558ccd
let k2 = 0x04ceb9fe1a85ec53

let[@inline] fmix h =
  let h = (h lxor (h lsr 33)) * k1 in
  let h = (h lxor (h lsr 33)) * k2 in
  h lxor (h lsr 33)

(* Unchecked loads: a caller checks [len <= Bytes.length data] once
   ([check_slice]), and a stored key lies inside its chunk by
   construction, so no load needs its own bounds check. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

let[@inline] check_slice fn data len =
  if len > Bytes.length data then
    invalid_arg
      (Printf.sprintf "Par.Memo_tbl.%s: len %d past a %d-byte buffer" fn len
         (Bytes.length data))

let hash_slice data len =
  check_slice "hash_slice" data len;
  let h = ref (len * k2) and i = ref 0 in
  while !i + 8 <= len do
    let w = get64u data !i in
    h :=
      (!h lxor Int64.to_int w) * k1
      lxor Int64.to_int (Int64.shift_right_logical w 56);
    i := !i + 8
  done;
  while !i < len do
    h := (!h lxor Char.code (Bytes.unsafe_get data !i)) * k1;
    incr i
  done;
  fmix !h

(* ---- the arena -------------------------------------------------------- *)

let[@inline] chunk_of t off = Array.unsafe_get t.chunks (off lsr chunk_bits)

let[@inline] header t off =
  Int32.to_int (Bytes.get_int32_le (chunk_of t off) (off land pos_mask))

let[@inline] cell t off =
  Bytes.get_int64_le (chunk_of t off) ((off land pos_mask) + cell_at)

(* Word-wise equality of a stored key with a slice of the same length;
   the [int64] annotations keep the loads unboxed. *)
let rec words_eq chunk pos data len i =
  if i + 8 <= len then
    (get64u chunk (pos + i) : int64) = get64u data i
    && words_eq chunk pos data len (i + 8)
  else bytes_eq chunk pos data len i

and bytes_eq chunk pos data len i =
  i >= len
  || Bytes.unsafe_get chunk (pos + i) = Bytes.unsafe_get data i
     && bytes_eq chunk pos data len (i + 1)

(* [off] comes from the index, so it opens a record inside its chunk. *)
let[@inline] matches t off data len =
  let chunk = chunk_of t off and pos = off land pos_mask in
  Int32.to_int (get32u chunk pos) lsr 1 = len
  && words_eq chunk (pos + key_at) data len 0

(* Chunks double from 4 KiB up to 1 MiB, so a small table (a shard of
   [Sharded_tbl], a test game's memo) does not pin a megabyte. A chunk
   is at least as long as the record that opens it. *)
let chunk_size c = if c >= 8 then chunk_bytes else 4096 lsl c

let add_chunk t size =
  let c = t.nchunks in
  if c = max_chunks then
    invalid_arg "Par.Memo_tbl.find_or_claim: arena full (2^35 bytes)";
  if c = Array.length t.chunks then begin
    let chunks = Array.make (max 4 (2 * c)) Bytes.empty in
    Array.blit t.chunks 0 chunks 0 c;
    t.chunks <- chunks
  end;
  t.chunks.(c) <- Bytes.create size;
  t.nchunks <- c + 1

(* The arena offset for an [n]-byte record, from chunk [c] at [pos] on.
   A record that does not fit the rest of a chunk starts the next one,
   so none straddles two, and chunks are only appended: no stored key
   ever moves (after [clear], kept chunks are refilled the same way). A
   chunk it leaves with room for a header ends in a -1 header. *)
let rec place t c pos n =
  if c = t.nchunks then begin
    add_chunk t (max n (chunk_size c));
    c lsl chunk_bits
  end
  else
    let chunk = t.chunks.(c) in
    if pos + n <= Bytes.length chunk then (c lsl chunk_bits) lor pos
    else begin
      if pos + cell_at <= Bytes.length chunk then
        Bytes.set_int32_le chunk pos (-1l);
      place t (c + 1) 0 n
    end

(* Appends an unresolved record (cell = [owner]) and returns its offset. *)
let store_record t data len owner =
  let n = key_at + len in
  let off = place t (t.fill lsr chunk_bits) (t.fill land pos_mask) n in
  let chunk = chunk_of t off and pos = off land pos_mask in
  Bytes.set_int32_le chunk pos (Int32.of_int (len lsl 1));
  Bytes.set_int64_le chunk (pos + cell_at) (Int64.of_int owner);
  Bytes.blit data 0 chunk (pos + key_at) len;
  t.fill <- off + n;
  off

let grow t =
  let slots = 2 * Array.length t.index in
  let mask = slots - 1 in
  let index = Array.make slots 0 in
  Array.iter
    (fun s ->
      if s <> 0 then begin
        let i = ref ((s lsr off_bits) land mask) in
        while index.(!i) <> 0 do i := (!i + 1) land mask done;
        index.(!i) <- s
      end)
    t.index;
  t.index <- index;
  t.mask <- mask

(* ---- probes ----------------------------------------------------------- *)

let claim t i tag data len owner =
  if owner < 0 then invalid_arg "Par.Memo_tbl.find_or_claim: negative owner";
  if t.count >= max_bindings then
    invalid_arg "Par.Memo_tbl.find_or_claim: table full (index at 2^28 slots)";
  let off = store_record t data len owner in
  t.index.(i) <- (tag lsl off_bits) lor (off + 1);
  t.count <- t.count + 1;
  t.fresh <- true;
  if t.count * 8 >= (t.mask + 1) * 7 then grow t;
  off

(* Slot walks as top-level fully-applied recursions: an inner closure
   would allocate on every probe. [tag] is the key's hash tag. *)
let rec claim_walk t tag data len owner i =
  let s = Array.unsafe_get t.index i in
  if s = 0 then claim t i tag data len owner
  else
    let off = (s land off_mask) - 1 in
    if s lsr off_bits = tag && matches t off data len then begin
      t.fresh <- false;
      off
    end
    else claim_walk t tag data len owner ((i + 1) land t.mask)

let find_or_claim_hashed t ~hash data ~len ~owner =
  check_slice "find_or_claim" data len;
  if len > max_key_length then
    invalid_arg (Printf.sprintf "Par.Memo_tbl: key of %d bytes too long" len);
  let tag = hash land tag_mask in
  claim_walk t tag data len owner (tag land t.mask)

let find_or_claim t data ~len ~owner =
  find_or_claim_hashed t ~hash:(hash_slice data len) data ~len ~owner

let rec find_walk t tag data len i =
  let s = Array.unsafe_get t.index i in
  if s = 0 then -1
  else
    let off = (s land off_mask) - 1 in
    if s lsr off_bits = tag && matches t off data len then off
    else find_walk t tag data len ((i + 1) land t.mask)

let find_hashed t ~hash data ~len =
  check_slice "find_hashed" data len;
  if len > max_key_length then -1
  else
    let tag = hash land tag_mask in
    find_walk t tag data len (tag land t.mask)

(* ---- bindings --------------------------------------------------------- *)

let[@inline] check t h fn =
  if h < 0 || h >= t.fill then
    invalid_arg (Printf.sprintf "Par.Memo_tbl.%s: no binding %d" fn h)

let owner t h =
  check t h "owner";
  if header t h land 1 = 1 then -1 else Int64.to_int (cell t h)

let value t h =
  check t h "value";
  Int64.float_of_bits (cell t h)

let resolve t h v =
  check t h "resolve";
  let hd = header t h in
  if hd land 1 = 1 then
    invalid_arg "Par.Memo_tbl.resolve: binding already resolved";
  let chunk = chunk_of t h and pos = h land pos_mask in
  Bytes.set_int64_le chunk (pos + cell_at) (Int64.bits_of_float v);
  Bytes.set_int32_le chunk pos (Int32.of_int (hd lor 1));
  t.resolved <- t.resolved + 1

let key t h =
  check t h "key";
  Bytes.sub_string (chunk_of t h) ((h land pos_mask) + key_at) (header t h lsr 1)

(* Records in arena order, which is claim order. *)
let iter_resolved t f =
  let rec walk h =
    if h < t.fill then begin
      let chunk = chunk_of t h and pos = h land pos_mask in
      if pos + cell_at > Bytes.length chunk || Bytes.get_int32_le chunk pos = -1l
      then walk ((h lsr chunk_bits + 1) lsl chunk_bits)
      else begin
        let hd = header t h in
        if hd land 1 = 1 then f (key t h) (value t h);
        walk (h + key_at + (hd lsr 1))
      end
    end
  in
  walk 0
