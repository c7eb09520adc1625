(* A flat claim table. A chained table like [Slice_tbl] keeps one heap
   record per binding (plus a list cell, an owned key string and a boxed
   value), so every probe chases three pointers and every major GC scans
   ~10 words per state. Here a binding
   is an ordinal into four dense arrays, the index is a bare [int array]
   probed linearly, and keys sit back to back in an append-only arena:
   the only pointers the GC sees are the arrays and the arena chunks.
   An arena offset is [chunk lsl 20 lor position]: chunks hold at most
   1 MiB.

   Claim state lives in [owners] (the claimant, or -1 once resolved), not
   in the value: no float is reserved as a "claimed" sentinel. *)

let chunk_bits = 20
let chunk_bytes = 1 lsl chunk_bits
let pos_mask = chunk_bytes - 1
let max_key_length = (1 lsl 16) - 1

type t = {
  mutable index : int array;  (* 0 = empty, else ordinal + 1 *)
  mutable mask : int;  (* Array.length index - 1; a power of two *)
  mutable hashes : int array;  (* per ordinal, as are the next three *)
  mutable locs : int array;  (* arena offset lsl 16 lor key length *)
  mutable values : float array;
  mutable owners : int array;  (* claimant, or -1 once resolved *)
  mutable count : int;
  mutable resolved : int;
  mutable chunks : Bytes.t array;  (* the arena; [nchunks] allocated *)
  mutable nchunks : int;
  mutable fill : int;  (* arena offset of the next key *)
  mutable fresh : bool;  (* did the last find_or_claim claim? *)
}

let rec pow2_at_least c n = if c >= n then c else pow2_at_least (c * 2) n

(* The index has twice as many slots as the per-ordinal arrays have
   room for, and both double together when those fill: load <= 1/2. *)
let create ?(size = 512) () =
  let cap = pow2_at_least 16 size in
  {
    index = Array.make (2 * cap) 0;
    mask = (2 * cap) - 1;
    hashes = Array.make cap 0;
    locs = Array.make cap 0;
    values = Array.make cap 0.0;
    owners = Array.make cap 0;
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

let[@inline] loc_len loc = loc land max_key_length
let[@inline] loc_chunk t loc =
  Array.unsafe_get t.chunks (loc lsr (16 + chunk_bits))
let[@inline] loc_pos loc = (loc lsr 16) land pos_mask

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
  loc_len loc = len && words_eq (loc_chunk t loc) (loc_pos loc) data len 0

(* Chunks double from 4 KiB up to 1 MiB, so a small table (a shard of
   [Sharded_tbl], a test game's memo) does not pin a megabyte. A chunk
   is at least as long as the key that opens it. *)
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

(* The arena offset for a [len]-byte key, from chunk [c] at [pos] on. A
   key that does not fit the rest of a chunk starts the next one, so no
   key straddles two, and chunks are only appended: no stored key ever
   moves. (After [clear], kept chunks are refilled the same way.) *)
let rec place t c pos len =
  if c = t.nchunks then begin
    add_chunk t (max len (chunk_size c));
    c lsl chunk_bits
  end
  else if pos + len <= Bytes.length t.chunks.(c) then (c lsl chunk_bits) lor pos
  else place t (c + 1) 0 len

let store_key t data len =
  let off = place t (t.fill lsr chunk_bits) (t.fill land pos_mask) len in
  Bytes.blit data 0 t.chunks.(off lsr chunk_bits) (off land pos_mask) len;
  t.fill <- off + len;
  (off lsl 16) lor len

(* ---- growth ----------------------------------------------------------- *)

let extend a cap zero =
  let b = Array.make cap zero in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow t =
  let cap = 2 * Array.length t.hashes in
  t.hashes <- extend t.hashes cap 0;
  t.locs <- extend t.locs cap 0;
  t.values <- extend t.values cap 0.0;
  t.owners <- extend t.owners cap 0;
  let mask = (2 * cap) - 1 in
  let index = Array.make (2 * cap) 0 in
  for ord = 0 to t.count - 1 do
    let i = ref (t.hashes.(ord) land mask) in
    while index.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    index.(!i) <- ord + 1
  done;
  t.index <- index;
  t.mask <- mask

(* ---- probes ----------------------------------------------------------- *)

let claim t i hash data len owner =
  if owner < 0 then invalid_arg "Par.Memo_tbl.find_or_claim: negative owner";
  let ord = t.count in
  t.hashes.(ord) <- hash;
  t.locs.(ord) <- store_key t data len;
  t.owners.(ord) <- owner;
  t.index.(i) <- ord + 1;
  t.count <- ord + 1;
  t.fresh <- true;
  if t.count = Array.length t.hashes then grow t;
  ord

(* Slot walks as top-level fully-applied recursions: an inner closure
   would allocate on every probe. *)
let rec claim_walk t hash data len owner i =
  let s = Array.unsafe_get t.index i in
  if s = 0 then claim t i hash data len owner
  else
    let ord = s - 1 in
    if Array.unsafe_get t.hashes ord = hash && matches t ord data len then begin
      t.fresh <- false;
      ord
    end
    else claim_walk t hash data len owner ((i + 1) land t.mask)

let check_len len =
  if len > max_key_length then
    invalid_arg
      (Printf.sprintf "Par.Memo_tbl: key of %d bytes (at most %d)" len
         max_key_length)

let find_or_claim_hashed t ~hash data ~len ~owner =
  check_len len;
  claim_walk t hash data len owner (hash land t.mask)

let find_or_claim t data ~len ~owner =
  find_or_claim_hashed t ~hash:(hash_slice data len) data ~len ~owner

let rec find_walk t hash data len i =
  let s = Array.unsafe_get t.index i in
  if s = 0 then -1
  else
    let ord = s - 1 in
    if Array.unsafe_get t.hashes ord = hash && matches t ord data len then ord
    else find_walk t hash data len ((i + 1) land t.mask)

let find_hashed t ~hash data ~len =
  if len > max_key_length then -1
  else find_walk t hash data len (hash land t.mask)

let find t data ~len = find_hashed t ~hash:(hash_slice data len) data ~len

(* ---- bindings --------------------------------------------------------- *)

let[@inline] check_ord t ord fn =
  if ord < 0 || ord >= t.count then
    invalid_arg (Printf.sprintf "Par.Memo_tbl.%s: no binding %d" fn ord)

let owner t ord =
  check_ord t ord "owner";
  Array.unsafe_get t.owners ord

let value t ord =
  check_ord t ord "value";
  Array.unsafe_get t.values ord

let resolve t ord v =
  check_ord t ord "resolve";
  if t.owners.(ord) < 0 then
    invalid_arg "Par.Memo_tbl.resolve: binding already resolved";
  t.values.(ord) <- v;
  t.owners.(ord) <- -1;
  t.resolved <- t.resolved + 1

let key t ord =
  check_ord t ord "key";
  let loc = t.locs.(ord) in
  Bytes.sub_string (loc_chunk t loc) (loc_pos loc) (loc_len loc)

let iter_resolved t f =
  for ord = 0 to t.count - 1 do
    if t.owners.(ord) < 0 then f (key t ord) t.values.(ord)
  done
