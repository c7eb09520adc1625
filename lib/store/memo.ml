(* Spillable sharded memo. See the mli for the protocol. *)

let log_src = Logs.Src.create "blunting.store" ~doc:"Out-of-core memo store"

module Log = (val Logs.src_log log_src : Logs.LOG)

type slot = Claimed of int | Done of float

type shard = {
  mutex : Mutex.t;
  id : int;
  mutable ram : slot Par.Slice_tbl.t;
  mutable resident : int;  (* byte estimate of [ram] *)
  mutable ram_done : int;  (* resolved entries still in RAM *)
  mutable seg : Segment.t option;  (* no file until the first spill *)
  seg_path : string;
  cache : Block_cache.t;
  water : int;  (* resident ceiling before a spill *)
  mutable s_spilled : int;
  mutable s_runs : int;
  mutable s_bytes_spilled : int;
  mutable s_payload : int;
  mutable s_disk_hits : int;
  mutable s_resolved : int;
}

type t = {
  dir : string;
  shards : shard array;
  budget : int;
  mutable closed : bool;
}

type stats = {
  budget_bytes : int;
  resident_bytes : int;
  spilled_entries : int;
  spill_runs : int;
  bytes_spilled : int;
  payload_bytes : int;
  evictions : int;
  cache_hits : int;
  cache_misses : int;
  bytes_read : int;
  bytes_written : int;
  disk_hits : int;
  resolved : int;
}

(* Per-entry RAM cost estimate: the Slice_tbl entry record, the owned
   key string (header + rounded payload), a bucket slot and the boxed
   slot variant. Deliberately a little high — the budget is a ceiling,
   not a target. *)
let entry_overhead = 80

(* best-effort cleanup of stray segment directories on exit *)
let live : t list ref = ref []
let live_mutex = Mutex.create ()

let unregister t =
  Mutex.lock live_mutex;
  live := List.filter (fun s -> s != t) !live;
  Mutex.unlock live_mutex

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun sh ->
        Mutex.lock sh.mutex;
        (match sh.seg with Some s -> Segment.delete s | None -> ());
        sh.seg <- None;
        Mutex.unlock sh.mutex)
      t.shards;
    (try Unix.rmdir t.dir with Unix.Unix_error _ -> ());
    unregister t
  end

let register t =
  Mutex.lock live_mutex;
  live := t :: !live;
  Mutex.unlock live_mutex

let () = at_exit (fun () -> List.iter close !live)

(* Eight shards, picked by hash bits 17-19; 4 KiB cache blocks. *)
let nshards = 8
let block_size = 4096

let create ~budget () =
  let budget = max 65_536 budget in
  let dir = Filename.temp_dir "blunting-store-" "" in
  (* half the budget for the RAM tier, half for the block caches *)
  let water = max 4096 (budget / 2 / nshards) in
  let cache_blocks = max 1 (budget / 2 / nshards / block_size) in
  let t =
    {
      dir;
      shards =
        Array.init nshards (fun id ->
            {
              mutex = Mutex.create ();
              id;
              ram = Par.Slice_tbl.create ~size:1024 ();
              resident = 0;
              ram_done = 0;
              seg = None;
              seg_path =
                Filename.concat dir (Printf.sprintf "shard-%02d.seg" id);
              cache =
                Block_cache.create ~block_size ~capacity:cache_blocks ();
              water;
              s_spilled = 0;
              s_runs = 0;
              s_bytes_spilled = 0;
              s_payload = 0;
              s_disk_hits = 0;
              s_resolved = 0;
            });
      budget;
      closed = false;
    }
  in
  Log.debug (fun f ->
      f "created store %s: %d shards, %d byte budget (%d water, %d cache \
         blocks per shard)"
        dir nshards budget water cache_blocks);
  register t;
  t

let[@inline] shard_of_hash t h = t.shards.((h lsr 17) land (nshards - 1))

let segment sh =
  match sh.seg with
  | Some s -> s
  | None ->
      let s = Segment.create ~path:sh.seg_path ~cache:sh.cache in
      sh.seg <- Some s;
      s

(* Write every resolved RAM entry out as one sorted run and rebuild the
   shard table with only the live claims. Called with the shard lock
   held, from [resolve]. *)
let spill sh =
  let entries = Array.make sh.ram_done (0, "", 0.0) in
  let n = ref 0 in
  let claims = ref [] in
  Par.Slice_tbl.iter sh.ram (fun key slot ->
      match slot with
      | Done v ->
          entries.(!n) <- (Par.Slice_tbl.hash_string key, key, v);
          incr n
      | Claimed o -> claims := (key, o) :: !claims);
  assert (!n = sh.ram_done);
  let payload =
    Array.fold_left (fun a (_, k, _) -> a + String.length k + 8) 0 entries
  in
  let bytes = Segment.append_run (segment sh) entries in
  sh.s_spilled <- sh.s_spilled + sh.ram_done;
  sh.s_runs <- sh.s_runs + 1;
  sh.s_bytes_spilled <- sh.s_bytes_spilled + bytes;
  sh.s_payload <- sh.s_payload + payload;
  Log.debug (fun f ->
      f "shard %d: spilled %d entries (%d bytes, %d claims stay)" sh.id
        sh.ram_done bytes
        (List.length !claims));
  let fresh = Par.Slice_tbl.create ~size:1024 () in
  let resident = ref 0 in
  List.iter
    (fun (key, o) ->
      ignore (Par.Slice_tbl.probe_string fresh key ~default:(Claimed o));
      resident := !resident + String.length key + entry_overhead)
    !claims;
  sh.ram <- fresh;
  sh.resident <- !resident;
  sh.ram_done <- 0

(* Every shard operation runs under [Mutex.protect]: a probe or spill
   that raises (a truncated segment, a failed write) releases the lock,
   so any other domain probing the store fails too instead of blocking
   on it. *)
let find_or_claim_slice t data ~len ~owner =
  let hash = Par.Slice_tbl.hash_slice data len in
  let sh = shard_of_hash t hash in
  Mutex.protect sh.mutex @@ fun () ->
  match Par.Slice_tbl.find_slice sh.ram data ~len with
  | Some e -> (
      match e.Par.Slice_tbl.value with
      | Done v -> `Value v
      | Claimed o -> `Busy o)
  | None -> (
      let on_disk =
        match sh.seg with
        | None -> None
        | Some seg -> Segment.find seg ~hash ~key:data ~koff:0 ~klen:len
      in
      match on_disk with
      | Some v ->
          sh.s_disk_hits <- sh.s_disk_hits + 1;
          `Value v
      | None ->
          let e =
            Par.Slice_tbl.probe_slice sh.ram data ~len ~default:(Claimed owner)
          in
          sh.resident <- sh.resident + len + entry_overhead;
          `Claimed e.Par.Slice_tbl.key)

let resolve t key v =
  let sh = shard_of_hash t (Par.Slice_tbl.hash_string key) in
  Mutex.protect sh.mutex @@ fun () ->
  match Par.Slice_tbl.find_string sh.ram key with
  | Some ({ Par.Slice_tbl.value = Claimed _; _ } as e) ->
      e.Par.Slice_tbl.value <- Done v;
      sh.ram_done <- sh.ram_done + 1;
      sh.s_resolved <- sh.s_resolved + 1;
      if sh.resident > sh.water then spill sh
  | _ -> invalid_arg "Store.Memo.resolve: key is not claimed"

let get t key =
  let hash = Par.Slice_tbl.hash_string key in
  let sh = shard_of_hash t hash in
  Mutex.protect sh.mutex @@ fun () ->
  match Par.Slice_tbl.find_string sh.ram key with
  | Some e -> (
      match e.Par.Slice_tbl.value with Done v -> Some v | Claimed _ -> None)
  | None -> (
      match sh.seg with
      | None -> None
      | Some seg -> (
          match Segment.find_string seg ~hash ~key with
          | Some v ->
              sh.s_disk_hits <- sh.s_disk_hits + 1;
              Some v
          | None -> None))

let resolved t =
  Array.fold_left
    (fun a sh ->
      Mutex.lock sh.mutex;
      let n = sh.s_resolved in
      Mutex.unlock sh.mutex;
      a + n)
    0 t.shards

let stats t =
  let z =
    {
      budget_bytes = t.budget;
      resident_bytes = 0;
      spilled_entries = 0;
      spill_runs = 0;
      bytes_spilled = 0;
      payload_bytes = 0;
      evictions = 0;
      cache_hits = 0;
      cache_misses = 0;
      bytes_read = 0;
      bytes_written = 0;
      disk_hits = 0;
      resolved = 0;
    }
  in
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.mutex;
      let c = Block_cache.stats sh.cache in
      let acc =
        {
          acc with
          resident_bytes = acc.resident_bytes + sh.resident;
          spilled_entries = acc.spilled_entries + sh.s_spilled;
          spill_runs = acc.spill_runs + sh.s_runs;
          bytes_spilled = acc.bytes_spilled + sh.s_bytes_spilled;
          payload_bytes = acc.payload_bytes + sh.s_payload;
          evictions = acc.evictions + c.Block_cache.evictions;
          cache_hits = acc.cache_hits + c.Block_cache.hits;
          cache_misses = acc.cache_misses + c.Block_cache.misses;
          bytes_read = acc.bytes_read + c.Block_cache.bytes_read;
          bytes_written = acc.bytes_written + c.Block_cache.bytes_written;
          disk_hits = acc.disk_hits + sh.s_disk_hits;
          resolved = acc.resolved + sh.s_resolved;
        }
      in
      Mutex.unlock sh.mutex;
      acc)
    z t.shards

let cache_hit_rate s =
  let total = s.cache_hits + s.cache_misses in
  if total = 0 then 0.0 else float_of_int s.cache_hits /. float_of_int total

let read_amplification s =
  if s.bytes_spilled = 0 then 0.0
  else float_of_int s.bytes_read /. float_of_int s.bytes_spilled

let write_amplification s =
  if s.payload_bytes = 0 then 0.0
  else float_of_int s.bytes_written /. float_of_int s.payload_bytes
