(* Sorted-run segment files. See the mli for the on-disk format. *)

type run = {
  r_off : int;  (* file offset of the first record *)
  r_count : int;
  r_padded : int;  (* padded key width *)
  r_rsize : int;  (* record size: 18 + r_padded *)
  r_bloom : Bytes.t;
  r_mask : int;  (* bloom bit count - 1 *)
}

type t = {
  tpath : string;
  fd : Unix.file_descr;
  cache : Block_cache.t;
  mutable tsize : int;  (* logical end: next run's (aligned) offset *)
  mutable truns : run list;  (* newest first *)
  mutable scratch : Bytes.t;  (* record read buffer *)
  mutable closed : bool;
}

let align_up n bs = (n + bs - 1) / bs * bs

(* ---- bloom filters ----------------------------------------------------

   Two probes per key, both derived from the stored 64-bit FNV hash: the
   raw hash and a multiplicative remix. ~8 bits per entry gives a few
   percent false positives — each false positive costs one binary search
   through the cache, never a wrong answer. *)

let bloom_mix h = (h lsr 17) lxor (h * 0x27d4eb2f) land max_int

let bloom_bits count =
  let need = max 64 (8 * count) in
  let rec go c = if c >= need then c else go (c * 2) in
  go 64

let bloom_set bloom mask h =
  let set i = Bytes.set_uint8 bloom (i lsr 3)
      (Bytes.get_uint8 bloom (i lsr 3) lor (1 lsl (i land 7)))
  in
  set (h land mask);
  set (bloom_mix h land mask)

let bloom_maybe bloom mask h =
  let test i = Bytes.get_uint8 bloom (i lsr 3) land (1 lsl (i land 7)) <> 0 in
  test (h land mask) && test (bloom_mix h land mask)

let create ~path ~cache =
  let fd =
    Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o600
  in
  {
    tpath = path;
    fd;
    cache;
    tsize = 0;
    truns = [];
    scratch = Bytes.create 256;
    closed = false;
  }

(* ---- appends ----------------------------------------------------------- *)

let write_exact fd ~off buf ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go k =
    if k < len then go (k + Unix.write fd buf k (len - k))
  in
  go 0

let append_run t entries =
  if Array.length entries = 0 then 0
  else begin
    Array.sort
      (fun (h1, k1, _) (h2, k2, _) ->
        match compare (h1 : int) h2 with
        | 0 -> (
            match compare (String.length k1) (String.length k2) with
            | 0 -> String.compare k1 k2
            | c -> c)
        | c -> c)
      entries;
    let count = Array.length entries in
    let padded =
      Array.fold_left (fun m (_, k, _) -> max m (String.length k)) 1 entries
    in
    let rsize = 18 + padded in
    let bs = Block_cache.block_size t.cache in
    let total = align_up (count * rsize) bs in
    let buf = Bytes.make total '\000' in
    let mask = bloom_bits count - 1 in
    let bloom = Bytes.make ((mask + 1) lsr 3) '\000' in
    Array.iteri
      (fun i (h, k, v) ->
        let off = i * rsize in
        Bytes.set_int64_le buf off (Int64.of_int h);
        Bytes.set_uint16_le buf (off + 8) (String.length k);
        Bytes.blit_string k 0 buf (off + 10) (String.length k);
        Bytes.set_int64_le buf (off + 10 + padded) (Int64.bits_of_float v);
        bloom_set bloom mask h)
      entries;
    write_exact t.fd ~off:t.tsize buf ~len:total;
    Block_cache.note_write t.cache total;
    let run =
      { r_off = t.tsize; r_count = count; r_padded = padded; r_rsize = rsize;
        r_bloom = bloom; r_mask = mask }
    in
    t.tsize <- t.tsize + total;
    t.truns <- run :: t.truns;
    total
  end

(* ---- probes ------------------------------------------------------------ *)

let scratch_for t n =
  if Bytes.length t.scratch < n then t.scratch <- Bytes.create n;
  t.scratch

(* Compare the probe (hash, key) against record [i] of [run], reading the
   record through the cache into the scratch buffer; also leaves the
   record bytes in scratch so a match can pull the value out. *)
let compare_record t run i ~hash ~key ~koff ~klen =
  let rec_off = run.r_off + (i * run.r_rsize) in
  let buf = scratch_for t run.r_rsize in
  Block_cache.read t.cache t.fd ~off:rec_off ~len:run.r_rsize ~dst:buf
    ~dst_off:0;
  let rhash = Int64.to_int (Bytes.get_int64_le buf 0) in
  match compare hash rhash with
  | 0 -> (
      let rklen = Bytes.get_uint16_le buf 8 in
      match compare klen rklen with
      | 0 ->
          let rec cmp j =
            if j >= klen then 0
            else
              match
                compare (Bytes.get_uint8 key (koff + j))
                  (Bytes.get_uint8 buf (10 + j))
              with
              | 0 -> cmp (j + 1)
              | c -> c
          in
          cmp 0
      | c -> c)
  | c -> c

let find_in_run t run ~hash ~key ~koff ~klen =
  if not (bloom_maybe run.r_bloom run.r_mask hash) then None
  else
    let rec go lo hi =
      if lo > hi then None
      else
        let mid = (lo + hi) / 2 in
        match compare_record t run mid ~hash ~key ~koff ~klen with
        | 0 ->
            (* the matching record is still in scratch *)
            Some
              (Int64.float_of_bits
                 (Bytes.get_int64_le t.scratch (10 + run.r_padded)))
        | c when c < 0 -> go lo (mid - 1)
        | _ -> go (mid + 1) hi
    in
    go 0 (run.r_count - 1)

let find t ~hash ~key ~koff ~klen =
  let rec go = function
    | [] -> None
    | run :: rest -> (
        match find_in_run t run ~hash ~key ~koff ~klen with
        | Some v -> Some v
        | None -> go rest)
  in
  go t.truns

let find_string t ~hash ~key =
  find t ~hash ~key:(Bytes.unsafe_of_string key) ~koff:0
    ~klen:(String.length key)

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let delete t =
  close t;
  try Sys.remove t.tpath with Sys_error _ -> ()
