(* A sharded concurrent table with a claim protocol: the bucket-
   ownership idiom (each key hashes to exactly one shard, each shard is
   protected by its own mutex) keeps critical sections a few instructions
   long and spreads contention across [shard_count] locks, while the
   per-binding owner (a claimant, or resolved) makes "exactly one caller
   computes each key" a table-level guarantee rather than a caller
   convention.

   Shards are [Memo_tbl]s, the table the sequential solver probes too, so
   the hot probe runs on an encode-buffer slice: [find_or_claim_slice]
   hashes the slice once, routes on the high bits, and only materializes
   an owned key string when the probe installs a fresh claim — the
   claimant gets that string back (it must keep it to [resolve] later).
   Shard routing uses bits far *above* the ones [Memo_tbl] uses for its
   index: with low bits every key in a shard would share them and pile
   into a fraction of the slots. *)

type shard = { lock : Mutex.t; tbl : Memo_tbl.t }
type t = { shards : shard array; mask : int }

let default_shards = 128

let rec round_pow2 c n = if c >= n then c else round_pow2 (c * 2) n

let create ?(shards = default_shards) () =
  let n = round_pow2 1 (max 1 shards) in
  {
    shards =
      Array.init n (fun _ ->
          { lock = Mutex.create (); tbl = Memo_tbl.create ~size:256 () });
    mask = n - 1;
  }

let shard_count t = Array.length t.shards
let[@inline] shard_of_hash t h = t.shards.((h lsr 40) land t.mask)

type claim = [ `Value of float | `Busy of int | `Claimed ]
type slice_claim = [ `Value of float | `Busy of int | `Claimed of string ]

(* Checked before a lock is taken, so nothing below raises under one. *)
let check_key len owner =
  if len > Memo_tbl.max_key_length then
    invalid_arg "Par.Sharded_tbl: key longer than Memo_tbl.max_key_length";
  if owner < 0 then invalid_arg "Par.Sharded_tbl: negative owner"

let[@inline] settled tbl ord =
  match Memo_tbl.owner tbl ord with
  | -1 -> `Value (Memo_tbl.value tbl ord)
  | o -> `Busy o

let find_or_claim t key ~owner : claim =
  let data = Bytes.unsafe_of_string key and len = String.length key in
  check_key len owner;
  let hash = Memo_tbl.hash_slice data len in
  let s = shard_of_hash t hash in
  Mutex.lock s.lock;
  let ord = Memo_tbl.find_or_claim_hashed s.tbl ~hash data ~len ~owner in
  let r = if Memo_tbl.last_was_new s.tbl then `Claimed else settled s.tbl ord in
  Mutex.unlock s.lock;
  r

let find_or_claim_slice t data ~len ~owner : slice_claim =
  check_key len owner;
  let hash = Memo_tbl.hash_slice data len in
  let s = shard_of_hash t hash in
  Mutex.lock s.lock;
  let ord = Memo_tbl.find_or_claim_hashed s.tbl ~hash data ~len ~owner in
  let r =
    if Memo_tbl.last_was_new s.tbl then `Claimed (Memo_tbl.key s.tbl ord)
    else settled s.tbl ord
  in
  Mutex.unlock s.lock;
  r

(* A resolve without a claim installs the binding resolved. *)
let resolve t key v =
  let data = Bytes.unsafe_of_string key and len = String.length key in
  check_key len 0;
  let hash = Memo_tbl.hash_slice data len in
  let s = shard_of_hash t hash in
  Mutex.lock s.lock;
  let ord = Memo_tbl.find_or_claim_hashed s.tbl ~hash data ~len ~owner:0 in
  if Memo_tbl.owner s.tbl ord < 0 then begin
    Mutex.unlock s.lock;
    invalid_arg "Par.Sharded_tbl.resolve: key already resolved"
  end;
  Memo_tbl.resolve s.tbl ord v;
  Mutex.unlock s.lock

let get_slice t data ~len =
  let hash = Memo_tbl.hash_slice data len in
  let s = shard_of_hash t hash in
  Mutex.lock s.lock;
  let ord = Memo_tbl.find_hashed s.tbl ~hash data ~len in
  let r =
    if ord >= 0 && Memo_tbl.owner s.tbl ord < 0 then
      Some (Memo_tbl.value s.tbl ord)
    else None
  in
  Mutex.unlock s.lock;
  r

let get t key =
  get_slice t (Bytes.unsafe_of_string key) ~len:(String.length key)

let sum t f =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let n = f s.tbl in
      Mutex.unlock s.lock;
      acc + n)
    0 t.shards

let length t = sum t Memo_tbl.length
let resolved t = sum t Memo_tbl.resolved

let iter_resolved t f =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      let pairs = ref [] in
      Memo_tbl.iter_resolved s.tbl (fun k v -> pairs := (k, v) :: !pairs);
      Mutex.unlock s.lock;
      List.iter (fun (k, v) -> f k v) (List.rev !pairs))
    t.shards
