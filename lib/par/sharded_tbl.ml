(* Shards are [Memo_tbl]s, the table the sequential solver probes too, so
   a probe runs on an encode-buffer slice and a claim's token is the
   shard's ordinal: nothing copies a key out, and [resolve] writes the
   value without a second lookup. Shard routing uses hash bits far
   *above* the ones [Memo_tbl] uses for its index: with low bits every
   key in a shard would share them and pile into a fraction of the
   slots. *)

let shard_bits = 7
let shard_mask = (1 lsl shard_bits) - 1

type shard = { lock : Mutex.t; tbl : Memo_tbl.t }
type t = shard array
type token = int  (* ordinal lsl shard_bits lor shard index *)

let create () =
  Array.init (1 lsl shard_bits) (fun _ ->
      { lock = Mutex.create (); tbl = Memo_tbl.create ~size:256 () })

let[@inline] shard_index hash = (hash lsr 40) land shard_mask

let find_or_claim_slice t data ~len ~owner =
  let hash = Memo_tbl.hash_slice data len in
  let i = shard_index hash in
  let s = t.(i) in
  Mutex.protect s.lock (fun () ->
      let ord = Memo_tbl.find_or_claim_hashed s.tbl ~hash data ~len ~owner in
      if Memo_tbl.last_was_new s.tbl then `Claimed ((ord lsl shard_bits) lor i)
      else
        match Memo_tbl.owner s.tbl ord with
        | -1 -> `Value (Memo_tbl.value s.tbl ord)
        | o -> `Busy o)

let resolve t tok v =
  let s = t.(tok land shard_mask) in
  Mutex.protect s.lock (fun () -> Memo_tbl.resolve s.tbl (tok lsr shard_bits) v)

let get t key =
  let data = Bytes.unsafe_of_string key and len = String.length key in
  let hash = Memo_tbl.hash_slice data len in
  let s = t.(shard_index hash) in
  Mutex.protect s.lock (fun () ->
      let ord = Memo_tbl.find_hashed s.tbl ~hash data ~len in
      if ord >= 0 && Memo_tbl.owner s.tbl ord < 0 then
        Some (Memo_tbl.value s.tbl ord)
      else None)

let resolved t =
  Array.fold_left
    (fun acc s -> acc + Mutex.protect s.lock (fun () -> Memo_tbl.resolved s.tbl))
    0 t
