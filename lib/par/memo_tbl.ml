(* A flat claim table. A chained table like [Slice_tbl] keeps one heap
   record per binding (plus a list cell, an owned key string and a boxed
   value), so every probe chases three pointers and every major GC scans
   ~10 words per state. Here a binding costs one index slot, one word of
   the per-ordinal [locs] array and a record in an append-only arena of
   byte chunks: an 8-byte cell followed by the key. The only pointers
   the GC sees are the two arrays and the arena chunks.

   - An index slot is [hash32 lsl 31 lor (ordinal + 1)] (0 = empty), with
     [hash32] the low 32 bits of the key's hash. A probe rejects a
     foreign slot on those bits without touching its binding, and growth
     rehashes from the index alone.
   - A [locs] word is [offset lsl 17 lor length lsl 1 lor resolved]:
     the arena offset of the record ([chunk lsl 20 lor position]; chunks
     hold at most 1 MiB), the key length, and whether the binding is
     resolved.
   - The cell holds the claimant while the binding is claimed and
     [Int64.bits_of_float v] once it is resolved. Claim state is the
     resolved bit, not the value: no float is reserved as a "claimed"
     sentinel. *)

let chunk_bits = 20
let chunk_bytes = 1 lsl chunk_bits
let pos_mask = chunk_bytes - 1
let max_key_length = (1 lsl 16) - 1
let cell_bytes = 8
let ord_bits = 31
let ord_mask = (1 lsl ord_bits) - 1  (* ordinal + 1 is at most this *)
let hash_mask = (1 lsl 32) - 1
let max_slots = 1 lsl 32  (* hash32 picks the slot: no more to pick *)

type t = {
  mutable index : int array;  (* 0 = empty, else hash32 lsl 31 lor ord + 1 *)
  mutable mask : int;  (* Array.length index - 1; a power of two *)
  mutable locs : int array;  (* per ordinal: offset, key length, resolved *)
  mutable count : int;
  mutable resolved : int;
  mutable chunks : Bytes.t array;  (* the arena; [nchunks] allocated *)
  mutable nchunks : int;
  mutable fill : int;  (* arena offset of the next record *)
  mutable fresh : bool;  (* did the last find_or_claim claim? *)
}

let rec pow2_at_least c n = if c >= n then c else pow2_at_least (c * 2) n

(* The index has twice as many slots as [locs] has room for, and both
   double together when [locs] fills: load <= 1/2. *)
let create ?(size = 512) () =
  if size > max_slots / 2 then
    invalid_arg
      (Printf.sprintf "Par.Memo_tbl.create: size %d (index at most 2^32 slots)"
         size);
  let cap = pow2_at_least 16 size in
  {
    index = Array.make (2 * cap) 0;
    mask = (2 * cap) - 1;
    locs = Array.make cap 0;
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

let hash_slice data len =
  let h = ref (len * k2) and i = ref 0 in
  while !i + 8 <= len do
    let w = Bytes.get_int64_le data !i in
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

let[@inline] loc_len loc = (loc lsr 1) land max_key_length
let[@inline] loc_resolved loc = loc land 1 = 1
let[@inline] loc_chunk t loc =
  Array.unsafe_get t.chunks (loc lsr (17 + chunk_bits))
let[@inline] loc_cell loc = (loc lsr 17) land pos_mask

(* Word-wise equality of a stored key with a slice of the same length;
   the [int64] annotations keep the loads unboxed. *)
let rec words_eq chunk pos data len i =
  if i + 8 <= len then
    (Bytes.get_int64_le chunk (pos + i) : int64) = Bytes.get_int64_le data i
    && words_eq chunk pos data len (i + 8)
  else bytes_eq chunk pos data len i

and bytes_eq chunk pos data len i =
  i >= len
  || Bytes.unsafe_get chunk (pos + i) = Bytes.unsafe_get data i
     && bytes_eq chunk pos data len (i + 1)

let[@inline] matches t ord data len =
  let loc = Array.unsafe_get t.locs ord in
  loc_len loc = len
  && words_eq (loc_chunk t loc) (loc_cell loc + cell_bytes) data len 0

(* Chunks double from 4 KiB up to 1 MiB, so a small table (a shard of
   [Sharded_tbl], a test game's memo) does not pin a megabyte. A chunk
   is at least as long as the record that opens it. *)
let chunk_size c = if c >= 8 then chunk_bytes else 4096 lsl c

let add_chunk t size =
  let c = t.nchunks in
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
   ever moves. (After [clear], kept chunks are refilled the same way.) *)
let rec place t c pos n =
  if c = t.nchunks then begin
    add_chunk t (max n (chunk_size c));
    c lsl chunk_bits
  end
  else if pos + n <= Bytes.length t.chunks.(c) then (c lsl chunk_bits) lor pos
  else place t (c + 1) 0 n

(* Appends the record (cell = [owner], then the key) and returns its
   [locs] word, unresolved. *)
let store_record t data len owner =
  let n = cell_bytes + len in
  let off = place t (t.fill lsr chunk_bits) (t.fill land pos_mask) n in
  let chunk = t.chunks.(off lsr chunk_bits) and pos = off land pos_mask in
  Bytes.set_int64_le chunk pos (Int64.of_int owner);
  Bytes.blit data 0 chunk (pos + cell_bytes) len;
  t.fill <- off + n;
  (off lsl 17) lor (len lsl 1)

(* ---- growth ----------------------------------------------------------- *)

let grow t =
  let cap = 2 * Array.length t.locs in
  let locs = Array.make cap 0 in
  Array.blit t.locs 0 locs 0 t.count;
  t.locs <- locs;
  let mask = (2 * cap) - 1 in
  let index = Array.make (2 * cap) 0 in
  let old = t.index in
  for j = 0 to Array.length old - 1 do
    let s = old.(j) in
    if s <> 0 then begin
      let i = ref ((s lsr ord_bits) land mask) in
      while index.(!i) <> 0 do
        i := (!i + 1) land mask
      done;
      index.(!i) <- s
    end
  done;
  t.index <- index;
  t.mask <- mask

(* ---- probes ----------------------------------------------------------- *)

let claim t i tag data len owner =
  if owner < 0 then invalid_arg "Par.Memo_tbl.find_or_claim: negative owner";
  let ord = t.count in
  if ord >= ord_mask then
    invalid_arg "Par.Memo_tbl.find_or_claim: table full (2^31 - 1 bindings)";
  t.locs.(ord) <- store_record t data len owner;
  t.index.(i) <- (tag lsl ord_bits) lor (ord + 1);
  t.count <- ord + 1;
  t.fresh <- true;
  if t.count = Array.length t.locs then grow t;
  ord

(* Slot walks as top-level fully-applied recursions: an inner closure
   would allocate on every probe. [tag] is the key's hash32. *)
let rec claim_walk t tag data len owner i =
  let s = Array.unsafe_get t.index i in
  if s = 0 then claim t i tag data len owner
  else
    let ord = (s land ord_mask) - 1 in
    if s lsr ord_bits = tag && matches t ord data len then begin
      t.fresh <- false;
      ord
    end
    else claim_walk t tag data len owner ((i + 1) land t.mask)

let check_len len =
  if len > max_key_length then
    invalid_arg
      (Printf.sprintf "Par.Memo_tbl: key of %d bytes (at most %d)" len
         max_key_length)

let find_or_claim_hashed t ~hash data ~len ~owner =
  check_len len;
  let tag = hash land hash_mask in
  claim_walk t tag data len owner (tag land t.mask)

let find_or_claim t data ~len ~owner =
  find_or_claim_hashed t ~hash:(hash_slice data len) data ~len ~owner

let rec find_walk t tag data len i =
  let s = Array.unsafe_get t.index i in
  if s = 0 then -1
  else
    let ord = (s land ord_mask) - 1 in
    if s lsr ord_bits = tag && matches t ord data len then ord
    else find_walk t tag data len ((i + 1) land t.mask)

let find_hashed t ~hash data ~len =
  if len > max_key_length then -1
  else
    let tag = hash land hash_mask in
    find_walk t tag data len (tag land t.mask)

(* ---- bindings --------------------------------------------------------- *)

let[@inline] check_ord t ord fn =
  if ord < 0 || ord >= t.count then
    invalid_arg (Printf.sprintf "Par.Memo_tbl.%s: no binding %d" fn ord)

let[@inline] cell t loc = Bytes.get_int64_le (loc_chunk t loc) (loc_cell loc)

let owner t ord =
  check_ord t ord "owner";
  let loc = Array.unsafe_get t.locs ord in
  if loc_resolved loc then -1 else Int64.to_int (cell t loc)

let value t ord =
  check_ord t ord "value";
  Int64.float_of_bits (cell t (Array.unsafe_get t.locs ord))

let resolve t ord v =
  check_ord t ord "resolve";
  let loc = t.locs.(ord) in
  if loc_resolved loc then
    invalid_arg "Par.Memo_tbl.resolve: binding already resolved";
  Bytes.set_int64_le (loc_chunk t loc) (loc_cell loc) (Int64.bits_of_float v);
  t.locs.(ord) <- loc lor 1;
  t.resolved <- t.resolved + 1

let key t ord =
  check_ord t ord "key";
  let loc = t.locs.(ord) in
  Bytes.sub_string (loc_chunk t loc) (loc_cell loc + cell_bytes) (loc_len loc)

let iter_resolved t f =
  for ord = 0 to t.count - 1 do
    if loc_resolved t.locs.(ord) then f (key t ord) (value t ord)
  done
