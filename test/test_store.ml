(* The out-of-core store's soundness battery: the segment run format
   round-trips, a segment never opens a file that already exists, a
   segment truncated under the store fails the next probe loudly, the
   block cache evicts in LRU order, the memo upholds the exactly-once
   claim protocol across spills, a budgeted solve with no usable temp
   dir raises, so does a budget on a solver that already holds states,
   and — the property the whole engine exists for —
   budgeted solves are bit-identical to in-RAM solves (values AND
   distinct-state counts) for every model game. *)

let exact = Alcotest.(check (float 0.0))

(* A tiny budget: the Memo clamps to its 64 KiB floor, whose per-shard
   watermark (4 KiB) forces even the k=1 weakener games to spill. *)
let tiny_budget = 1

(* ---- scratch files --------------------------------------------------- *)

let rm_rf d =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
       (Sys.readdir d)
   with Sys_error _ -> ());
  try Unix.rmdir d with Unix.Unix_error _ -> ()

let with_scratch f =
  let d = Filename.temp_dir "blunting-test-store-" "" in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* ---- Store.Segment --------------------------------------------------- *)

let entry i =
  (* mixed-width keys: the run pads to the widest, and probes must honor
     the true length *)
  let key = Printf.sprintf "key-%d%s" i (String.make (i mod 7) 'x') in
  (Par.Slice_tbl.hash_string key, key, float_of_int i /. 16.0)

let probe_all seg n =
  for i = 0 to n - 1 do
    let h, key, v = entry i in
    match Store.Segment.find_string seg ~hash:h ~key with
    | Some got -> exact (Printf.sprintf "probe %s" key) v got
    | None -> Alcotest.failf "key %s lost" key
  done

let test_segment_roundtrip () =
  with_scratch @@ fun dir ->
  let path = Filename.concat dir "seg.blk" in
  let cache = Store.Block_cache.create ~capacity:4 () in
  let seg = Store.Segment.create ~path ~cache in
  let b1 = Store.Segment.append_run seg (Array.init 100 entry) in
  let b2 =
    Store.Segment.append_run seg (Array.init 50 (fun i -> entry (100 + i)))
  in
  List.iter
    (fun b ->
      Alcotest.(check bool) "append reports bytes" true (b > 0);
      Alcotest.(check int) "runs are block-aligned" 0 (b mod 4096))
    [ b1; b2 ];
  Alcotest.(check int)
    "the file holds exactly the appended bytes" (b1 + b2)
    (Unix.stat path).Unix.st_size;
  probe_all seg 150;
  let absent = "no-such-key" in
  Alcotest.(check (option (float 0.0)))
    "absent key" None
    (Store.Segment.find_string seg
       ~hash:(Par.Slice_tbl.hash_string absent)
       ~key:absent);
  Alcotest.(check int)
    "empty run appends nothing" 0
    (Store.Segment.append_run seg [||]);
  Store.Segment.delete seg;
  Alcotest.(check bool) "delete removes the file" false (Sys.file_exists path)

(* Segments are scratch: a file left at the path — by a killed process
   whose pid was reused, say — must never be read back as memo
   entries. *)
let test_segment_create_exclusive () =
  with_scratch @@ fun dir ->
  let path = Filename.concat dir "seg.blk" in
  let create () =
    Store.Segment.create ~path ~cache:(Store.Block_cache.create ~capacity:4 ())
  in
  let stale = create () in
  let _ = Store.Segment.append_run stale (Array.init 100 entry) in
  Store.Segment.close stale;
  match create () with
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | seg ->
      Store.Segment.close seg;
      Alcotest.fail "create opened an existing segment file"

(* A segment file truncated under an open segment: every probe of a
   stored key must raise, never answer [None] or a value. *)
let test_segment_truncated () =
  with_scratch @@ fun dir ->
  let path = Filename.concat dir "seg.blk" in
  let cache = Store.Block_cache.create ~capacity:4 () in
  let seg = Store.Segment.create ~path ~cache in
  Fun.protect ~finally:(fun () -> Store.Segment.delete seg) @@ fun () ->
  let n = 100 in
  let _ = Store.Segment.append_run seg (Array.init n entry) in
  Unix.truncate path 0;
  for i = 0 to n - 1 do
    let h, key, _ = entry i in
    match Store.Segment.find_string seg ~hash:h ~key with
    | exception Failure _ -> ()
    | Some v -> Alcotest.failf "probe %s returned %g after truncation" key v
    | None -> Alcotest.failf "probe %s returned None after truncation" key
  done

(* ---- Store.Block_cache ----------------------------------------------- *)

let test_block_cache_lru () =
  with_scratch @@ fun dir ->
  let bs = 64 in
  let path = Filename.concat dir "blocks.bin" in
  let nblocks = 3 in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o600 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  for i = 0 to nblocks - 1 do
    let block = String.make bs (Char.chr (Char.code 'a' + i)) in
    let n = Unix.write_substring fd block 0 bs in
    Alcotest.(check int) "block written" bs n
  done;
  let c = Store.Block_cache.create ~block_size:bs ~capacity:2 () in
  let buf = Bytes.create bs in
  (* read block [i] and demand a hit or a miss, judged by [stats] alone *)
  let read_block ~hit i =
    let before = Store.Block_cache.stats c in
    Store.Block_cache.read c fd ~off:(i * bs) ~len:bs ~dst:buf ~dst_off:0;
    Alcotest.(check char)
      (Printf.sprintf "block %d content" i)
      (Char.chr (Char.code 'a' + i))
      (Bytes.get buf 0);
    let after = Store.Block_cache.stats c in
    Alcotest.(check (pair int int))
      (Printf.sprintf "block %d %s" i (if hit then "hit" else "miss"))
      (if hit then (1, 0) else (0, 1))
      ( after.Store.Block_cache.hits - before.Store.Block_cache.hits,
        after.Store.Block_cache.misses - before.Store.Block_cache.misses )
  in
  read_block ~hit:false 0;
  read_block ~hit:false 1;
  read_block ~hit:true 0;
  (* capacity 2: the LRU block (1) goes, not the refreshed one (0) *)
  read_block ~hit:false 2;
  read_block ~hit:true 0;
  read_block ~hit:false 1;
  let s = Store.Block_cache.stats c in
  Alcotest.(check int) "two evictions" 2 s.Store.Block_cache.evictions;
  Alcotest.(check int)
    "miss bytes came from the file" (4 * bs)
    s.Store.Block_cache.bytes_read;
  (* a read spanning more blocks than the capacity reassembles the file
     bytes *)
  let span = Bytes.create (2 * bs) in
  Store.Block_cache.read c fd ~off:(bs / 2) ~len:(2 * bs) ~dst:span ~dst_off:0;
  Alcotest.(check char) "span start" 'a' (Bytes.get span (bs / 2 - 1));
  Alcotest.(check char) "span middle" 'b' (Bytes.get span (bs / 2));
  Alcotest.(check char) "span end" 'c' (Bytes.get span (2 * bs - 1))

(* ---- Store.Memo ------------------------------------------------------ *)

let memo_key i = Printf.sprintf "state-%06d-%s" i (String.make (i mod 5) 'p')
let memo_val i = float_of_int i *. 0.0625

let test_memo_exactly_once_across_spills () =
  let n = 5_000 in
  let st = Store.Memo.create ~budget:tiny_budget () in
  Fun.protect ~finally:(fun () -> Store.Memo.close st) @@ fun () ->
  let buf = Bytes.create 64 in
  let claim i =
    let key = memo_key i in
    Bytes.blit_string key 0 buf 0 (String.length key);
    Store.Memo.find_or_claim_slice st buf ~len:(String.length key) ~owner:0
  in
  for i = 0 to n - 1 do
    (match claim i with
    | `Claimed key ->
        Alcotest.(check string) "claim echoes the key" (memo_key i) key;
        (* a re-probe of a live claim by the same owner is the cycle
           signal, never a second claim *)
        (match claim i with
        | `Busy 0 -> ()
        | _ -> Alcotest.fail "re-probe of a live claim must be `Busy");
        Store.Memo.resolve st key (memo_val i)
    | `Value _ | `Busy _ -> Alcotest.fail "fresh key already present");
    match claim i with
    | `Value v -> exact "resolved value readable immediately" (memo_val i) v
    | _ -> Alcotest.fail "resolved key must answer `Value"
  done;
  let s = Store.Memo.stats st in
  Alcotest.(check bool)
    "the budget forced spilling" true
    (s.Store.Memo.spilled_entries > 0 && s.Store.Memo.spill_runs > 0);
  Alcotest.(check int) "every entry resolved once" n (Store.Memo.resolved st);
  (* every key — spilled or resident — still answers bit-exactly *)
  for i = 0 to n - 1 do
    match Store.Memo.get st (memo_key i) with
    | Some v -> exact "get after spills" (memo_val i) v
    | None -> Alcotest.failf "key %d lost across spills" i
  done;
  let s = Store.Memo.stats st in
  Alcotest.(check bool)
    "full sweep read through the disk tier" true
    (s.Store.Memo.disk_hits > 0);
  match Store.Memo.resolve st (memo_key 0) 0.0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double resolve must raise"

(* Claim and resolve keys 0 .. n-1 in a fresh store. *)
let fill st n =
  for i = 0 to n - 1 do
    let key = memo_key i in
    match
      Store.Memo.find_or_claim_slice st (Bytes.of_string key)
        ~len:(String.length key) ~owner:0
    with
    | `Claimed key -> Store.Memo.resolve st key (memo_val i)
    | _ -> Alcotest.fail "fresh key"
  done

(* Truncate every segment file under a live store: each probe of a
   spilled key must answer its true value (from a cached block) or raise
   [Failure], probes keep working after one raises, and the store still
   closes. A shard lock left held by a raising probe would turn the next
   probe on that shard into a lock error or a hang. *)
let test_memo_truncated_segments () =
  with_scratch @@ fun dir ->
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name dir;
  let st =
    Fun.protect
      ~finally:(fun () -> Filename.set_temp_dir_name saved)
      (fun () -> Store.Memo.create ~budget:tiny_budget ())
  in
  Fun.protect ~finally:(fun () -> Store.Memo.close st) @@ fun () ->
  let n = 2_000 in
  fill st n;
  Alcotest.(check bool)
    "the budget forced spilling" true
    ((Store.Memo.stats st).Store.Memo.spill_runs > 0);
  let rec truncate_segments d =
    Array.iter
      (fun f ->
        let f = Filename.concat d f in
        if Sys.is_directory f then truncate_segments f
        else if Filename.check_suffix f ".seg" then Unix.truncate f 0)
      (Sys.readdir d)
  in
  truncate_segments dir;
  let raised = ref 0 in
  for i = 0 to n - 1 do
    match Store.Memo.get st (memo_key i) with
    | exception Failure _ -> incr raised
    | Some v -> exact "a probe that answers answers right" (memo_val i) v
    | None -> Alcotest.failf "key %d answered None after truncation" i
  done;
  Alcotest.(check bool) "probes into the truncated files raised" true
    (!raised > 0)

let test_memo_stats_shape () =
  let st = Store.Memo.create ~budget:tiny_budget () in
  Fun.protect ~finally:(fun () -> Store.Memo.close st) @@ fun () ->
  fill st 2_001;
  let s = Store.Memo.stats st in
  Alcotest.(check bool)
    "write amplification >= 1 once spilled" true
    (Store.Memo.write_amplification s >= 1.0);
  Alcotest.(check bool)
    "hit rate within [0,1]" true
    (let r = Store.Memo.cache_hit_rate s in
     r >= 0.0 && r <= 1.0);
  Alcotest.(check bool)
    "resident estimate positive" true
    (s.Store.Memo.resident_bytes >= 0)

(* ---- budgeted solves are bit-identical to in-RAM solves --------------- *)

(* Only [Model.Weakener_abd]'s wrapper takes a memo budget; every other
   game is solved on a private functor instantiation, which gives the
   test its own memo table too. *)
module Atomic_solver = Mdp.Solver.Make (Model.Weakener_atomic.Game)
module Va_solver = Mdp.Solver.Make (Model.Weakener_va.Game)
module Snapshot_solver = Mdp.Solver.Make (Model.Ghw_snapshot_game.Game)
module Multi_solver = Mdp.Solver.Make (Model.Ghw_multi_game.Game)

let check_spilled label ~evictions (ss : Store.Memo.stats option) =
  match ss with
  | None -> Alcotest.failf "%s: budgeted solve armed no store" label
  | Some s ->
      Alcotest.(check bool)
        (label ^ ": budget forced spilling")
        true
        (s.Store.Memo.spilled_entries > 0);
      if evictions then
        Alcotest.(check bool)
          (label ^ ": budget forced block-cache evictions")
          true
          (s.Store.Memo.evictions > 0)

(* Solve twice — in-RAM, then under a spill-forcing budget — and demand
   bit-identical values and distinct-state counts. *)
let game_determinism ~label ~expect_spill ?(expect_evictions = false) ~reset
    ~states ~store_stats solve =
  reset ();
  let v_ram = solve ~memo_budget:None in
  let st_ram = states () in
  reset ();
  let v_sp = solve ~memo_budget:(Some tiny_budget) in
  let st_sp = states () in
  exact (label ^ ": value bit-identical") v_ram v_sp;
  Alcotest.(check int) (label ^ ": distinct states identical") st_ram st_sp;
  if expect_spill then
    check_spilled label ~evictions:expect_evictions (store_stats ());
  reset ()

let test_games_deterministic () =
  game_determinism ~label:"abd k=1" ~expect_spill:true ~expect_evictions:true
    ~reset:Model.Weakener_abd.reset
    ~states:(fun () -> Model.Weakener_abd.explored_states ())
    ~store_stats:Model.Weakener_abd.store_stats
    (fun ~memo_budget ->
      Model.Weakener_abd.bad_probability ?memo_budget ~k:1 ());
  game_determinism ~label:"va k=1" ~expect_spill:true ~reset:Va_solver.reset
    ~states:Va_solver.explored ~store_stats:Va_solver.store_stats
    (fun ~memo_budget ->
      Va_solver.value ?memo_budget (Model.Weakener_va.init ~k:1));
  game_determinism ~label:"ghw-snapshot k=1"
      (* ~260 states sit under even the clamped budget's watermark *)
    ~expect_spill:false ~reset:Snapshot_solver.reset
    ~states:Snapshot_solver.explored ~store_stats:Snapshot_solver.store_stats
    (fun ~memo_budget ->
      Snapshot_solver.value ?memo_budget (Model.Ghw_snapshot_game.init ~k:1));
  game_determinism ~label:"ghw-multi k=1" ~expect_spill:true
    ~reset:Multi_solver.reset ~states:Multi_solver.explored
    ~store_stats:Multi_solver.store_stats
    (fun ~memo_budget ->
      Multi_solver.value ?memo_budget (Model.Ghw_multi_game.init ~k:1));
  game_determinism ~label:"atomic" ~expect_spill:false
    ~reset:Atomic_solver.reset
    ~states:(fun () -> Atomic_solver.explored ())
    ~store_stats:Atomic_solver.store_stats
    (fun ~memo_budget ->
      Atomic_solver.value ?memo_budget Model.Weakener_atomic.init)

(* A budget arms the store only on an empty memo: one reaching an
   instance that already holds states raises and leaves the RAM memo as
   it was; a budget of 0 arms nothing; after [reset] the budget arms,
   and on an armed instance a budget changes nothing. *)
let test_budget_on_held_states_raises () =
  let solve ?memo_budget () =
    Atomic_solver.value ?memo_budget Model.Weakener_atomic.init
  in
  Atomic_solver.reset ();
  Fun.protect ~finally:Atomic_solver.reset @@ fun () ->
  let v = solve () in
  let held = Atomic_solver.explored () in
  (match solve ~memo_budget:tiny_budget () with
  | exception Invalid_argument _ -> ()
  | v -> Alcotest.failf "budget on a solver holding states returned %g" v);
  Alcotest.(check bool)
    "still in RAM" true
    (Atomic_solver.store_stats () = None);
  Alcotest.(check int) "states kept" held (Atomic_solver.explored ());
  exact "budget 0 arms nothing" v (solve ~memo_budget:0 ());
  Alcotest.(check bool) "budget 0: still in RAM" true
    (Atomic_solver.store_stats () = None);
  Atomic_solver.reset ();
  exact "budget after reset" v (solve ~memo_budget:tiny_budget ());
  Alcotest.(check bool) "armed after reset" true
    (Atomic_solver.store_stats () <> None);
  exact "budget on an armed solver" v (solve ~memo_budget:tiny_budget ())

(* The solve order is fixed, so the budgeted run must also reproduce the
   exact memo hit/miss split and recursion depth. *)
let test_full_stats_identical_seq () =
  Model.Weakener_abd.reset ();
  let _ = Model.Weakener_abd.bad_probability ~k:1 () in
  let st_ram = Model.Weakener_abd.solver_stats () in
  Model.Weakener_abd.reset ();
  let _ = Model.Weakener_abd.bad_probability ~memo_budget:tiny_budget ~k:1 () in
  let st_sp = Model.Weakener_abd.solver_stats () in
  Model.Weakener_abd.reset ();
  Alcotest.(check int) "states" st_ram.Mdp.Solver.states st_sp.Mdp.Solver.states;
  Alcotest.(check int) "memo hits" st_ram.Mdp.Solver.memo_hits
    st_sp.Mdp.Solver.memo_hits;
  Alcotest.(check int) "memo misses" st_ram.Mdp.Solver.memo_misses
    st_sp.Mdp.Solver.memo_misses;
  Alcotest.(check int) "max depth" st_ram.Mdp.Solver.max_depth
    st_sp.Mdp.Solver.max_depth

(* No usable temp dir: the budgeted solve must raise, not fall back to
   RAM or return a value. It starts from an empty memo, as a budget
   requires: earlier suites leave this game's solver holding states. *)
let test_missing_temp_dir () =
  Model.Weakener_abd.reset ();
  with_scratch @@ fun dir ->
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name (Filename.concat dir "missing");
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      Model.Weakener_abd.reset ())
  @@ fun () ->
  match Model.Weakener_abd.bad_probability ~memo_budget:tiny_budget ~k:1 () with
  | exception Sys_error _ -> ()
  | v -> Alcotest.failf "budgeted solve returned %g with no temp dir" v

let tests =
  [
    Alcotest.test_case "segment round-trip" `Quick test_segment_roundtrip;
    Alcotest.test_case "segment create refuses an existing file" `Quick
      test_segment_create_exclusive;
    Alcotest.test_case "segment truncated under a probe raises" `Quick
      test_segment_truncated;
    Alcotest.test_case "block cache LRU order" `Quick test_block_cache_lru;
    Alcotest.test_case "memo exactly-once across spills" `Quick
      test_memo_exactly_once_across_spills;
    Alcotest.test_case "memo stats shape" `Quick test_memo_stats_shape;
    Alcotest.test_case "memo probes of truncated segments raise" `Quick
      test_memo_truncated_segments;
    Alcotest.test_case "budgeted solve without a temp dir raises" `Quick
      test_missing_temp_dir;
    Alcotest.test_case "all games bit-identical when spilled" `Quick
      test_games_deterministic;
    Alcotest.test_case "a budget on a solver holding states raises" `Quick
      test_budget_on_held_states_raises;
    Alcotest.test_case "full solver stats identical at jobs 1" `Slow
      test_full_stats_identical_seq;
  ]
