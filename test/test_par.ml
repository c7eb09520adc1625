(* The parallel engine's determinism contract: Monte-Carlo tallies and
   solver values must be bit-identical at every job count, and the
   canonical state keys the parallel memo tables rely on must agree with
   structural equality on reachable states. *)

let exact = Alcotest.(check (float 0.0))

(* ---- Monte-Carlo: per-trial RNG streams make trials order-free ------- *)

let mc_result ~jobs ~seed ~trials config =
  Adversary.Monte_carlo.estimate ~jobs ~trials ~seed
    ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad config

let check_mc_identical ~seed ~trials config name =
  let base = mc_result ~jobs:1 ~seed ~trials config in
  List.iter
    (fun jobs ->
      let r = mc_result ~jobs ~seed ~trials config in
      Alcotest.(check bool)
        (Fmt.str "%s: jobs=%d tallies identical to sequential" name jobs)
        true
        (r = base))
    [ 2; 4 ]

let test_mc_parallel_identical () =
  check_mc_identical ~seed:7 ~trials:240 Programs.Weakener.atomic_config
    "atomic weakener";
  check_mc_identical ~seed:20260 ~trials:40 Programs.Weakener.abd_config
    "ABD weakener"

(* ---- solver: frontier parallel value = sequential value -------------- *)

module Atomic_solver = Mdp.Solver.Make (Model.Weakener_atomic.Game)
module Abd_solver = Mdp.Solver.Make (Model.Weakener_abd.Game)

let test_par_solver_atomic () =
  let seq = Atomic_solver.value Model.Weakener_atomic.init in
  exact "atomic sequential value" 0.5 seq;
  List.iter
    (fun jobs ->
      exact
        (Fmt.str "atomic value_par jobs=%d" jobs)
        seq
        (Atomic_solver.value_par ~jobs Model.Weakener_atomic.init))
    [ 1; 2; 4 ]

let test_par_solver_abd1 () =
  let s = Model.Weakener_abd.init ~k:1 () in
  let seq = Abd_solver.value s in
  exact "ABD^1 sequential value" 1.0 seq;
  List.iter
    (fun jobs ->
      exact (Fmt.str "ABD^1 value_par jobs=%d" jobs) seq
        (Abd_solver.value_par ~jobs s))
    [ 2; 4 ]

(* ---- canonical keys ------------------------------------------------- *)

(* The five model games, each with a cap on the states a BFS visits. *)
type game =
  | Game :
      (module Mdp.Solver.GAME with type state = 's) * 's * int * string
      -> game

let games =
  [
    Game
      ( (module Model.Weakener_atomic.Game),
        Model.Weakener_atomic.init,
        10_000,
        "weakener_atomic" );
    Game
      ( (module Model.Weakener_abd.Game),
        Model.Weakener_abd.init ~k:1 (),
        4_000,
        "weakener_abd" );
    Game
      ( (module Model.Weakener_abd.Game),
        Model.Weakener_abd.init ~k:1 ~servers:5 ~atomic_c:false (),
        4_000,
        "weakener_abd, 5 servers, C as ABD" );
    Game
      ( (module Model.Weakener_va.Game),
        Model.Weakener_va.init ~k:1,
        4_000,
        "weakener_va" );
    Game
      ( (module Model.Ghw_snapshot_game.Game),
        Model.Ghw_snapshot_game.init ~k:1,
        4_000,
        "ghw_snapshot" );
    Game
      ( (module Model.Ghw_multi_game.Game),
        Model.Ghw_multi_game.init ~k:1,
        4_000,
        "ghw_multi" );
  ]

(* BFS the states reachable from [init], calling [f] on each of the
   first [cap] distinct ones; returns how many were visited. *)
let iter_reachable (type s) (module G : Mdp.Solver.GAME with type state = s)
    ~(init : s) ~cap f =
  let seen : (s, unit) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  Queue.add init queue;
  while (not (Queue.is_empty queue)) && Hashtbl.length seen < cap do
    let s = Queue.pop queue in
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      f s;
      List.iter
        (fun m ->
          match G.apply s m with
          | G.Det s' -> Queue.add s' queue
          | G.Chance dist -> List.iter (fun (_, s') -> Queue.add s' queue) dist)
        (G.moves s)
    end
  done;
  Hashtbl.length seen

(* Require a bijection between structurally distinct states and
   distinct encode strings: an encode collision between structurally
   different states would silently merge them in the memo table; a
   split would only cost speed, but betrays a non-canonical encoder. *)
let test_encode_canonical () =
  List.iter
    (fun (Game (g, init, cap, name)) ->
      let module G = (val g) in
      let by_key = Hashtbl.create 1024 in
      let n =
        iter_reachable (module G) ~init ~cap (fun s ->
            let key = G.encode s in
            Alcotest.(check string)
              (Fmt.str "%s: encode is deterministic" name)
              key (G.encode s);
            match Hashtbl.find_opt by_key key with
            | Some s' ->
                if s' <> s then
                  Alcotest.failf "%s: encode collision between distinct states"
                    name
            | None -> Hashtbl.add by_key key s)
      in
      Alcotest.(check int)
        (Fmt.str "%s: one key per distinct state (%d states)" name n)
        n (Hashtbl.length by_key))
    games

(* The solver probes its memo on a reused buffer slice, so [encode_into]
   must write exactly [encode]'s bytes through ONE shared buffer across
   the whole BFS. A stale-cursor or short-reset bug would surface as a
   prefix/suffix mismatch after the first state whose key is shorter
   than its predecessor's. *)
let test_encode_into_reuse () =
  List.iter
    (fun (Game (g, init, cap, name)) ->
      let module G = (val g) in
      let buf = Mdp.Key.create ~size:8 () in
      let n =
        iter_reachable (module G) ~init ~cap (fun s ->
            Mdp.Key.reset buf;
            G.encode_into s buf;
            if not (String.equal (Mdp.Key.contents buf) (G.encode s)) then
              Alcotest.failf
                "%s: encode_into under buffer reuse diverged from encode" name)
      in
      Alcotest.(check bool)
        (Fmt.str "%s: visited a real state set" name)
        true (n > 10))
    games

(* The ABD key bytes are pinned: committed baselines and fuzz corpora
   hold keys, and a faster writer must not change one byte. The digest
   covers the concatenated [encode] keys of the first 4,000 BFS states;
   it was recorded with the combinator writer the current one replaced. *)
let test_abd_key_digest () =
  List.iter
    (fun (k, servers, atomic_c, expected) ->
      let keys = Buffer.create (1 lsl 20) in
      let n =
        iter_reachable
          (module Model.Weakener_abd.Game)
          ~init:(Model.Weakener_abd.init ~k ~servers ~atomic_c ())
          ~cap:4_000
          (fun s -> Buffer.add_string keys (Model.Weakener_abd.Game.encode s))
      in
      let name =
        Fmt.str "ABD^%d, %d servers, C %s" k servers
          (if atomic_c then "atomic" else "as ABD")
      in
      Alcotest.(check int) (name ^ ": 4,000 states") 4_000 n;
      Alcotest.(check string)
        (name ^ ": MD5 of the keys")
        expected
        (Digest.to_hex (Digest.string (Buffer.contents keys))))
    [
      (1, 3, true, "f0ddcd3f432ac54ac011940307308698");
      (1, 5, false, "774cf96e00a43586cc7439456da66e64");
      (2, 3, false, "a376198e8be43860584947a065a885cc");
    ]

(* ---- the pool itself ------------------------------------------------- *)

let test_pool_map_positional () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let a = Par.Pool.map pool ~n:1000 (fun i -> i * i) in
      Alcotest.(check int) "length" 1000 (Array.length a);
      Array.iteri
        (fun i v -> if v <> i * i then Alcotest.failf "a.(%d) = %d" i v)
        a)

let test_pool_propagates_exception () =
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      match Par.Pool.map pool ~n:100 (fun i -> if i = 57 then failwith "boom" else i) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg)

let test_pool_domain_ids () =
  Alcotest.(check int) "no workers before" 0 (Par.Pool.spawned_domains ());
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let ids = Par.Pool.domain_ids pool in
      Alcotest.(check int) "jobs - 1 workers listed" 3 (List.length ids);
      Alcotest.(check int)
        "ids are distinct" 3
        (List.length (List.sort_uniq compare ids));
      Alcotest.(check bool)
        "caller is not listed" false
        (List.mem (Domain.self () :> int) ids);
      Alcotest.(check int) "spawned count matches" 3 (Par.Pool.spawned_domains ());
      (* stable across reads for the pool's lifetime *)
      Alcotest.(check (list int)) "ids stable" ids (Par.Pool.domain_ids pool));
  Alcotest.(check int) "all joined after with_pool" 0 (Par.Pool.spawned_domains ());
  (* a single-job pool spawns nothing: regions run on the caller *)
  Par.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (list int)) "jobs=1 lists no workers" [] (Par.Pool.domain_ids pool))

(* ---- per-domain telemetry of the last value_par ----------------------- *)

let test_last_par_stats () =
  Atomic_solver.reset ();
  Alcotest.(check bool)
    "no telemetry before any value_par" true
    (Atomic_solver.last_par_stats () = None);
  (* sequential state count: the yardstick the distinct-key count is
     measured against *)
  let _ = Atomic_solver.value Model.Weakener_atomic.init in
  let seq_states = Atomic_solver.explored () in
  Atomic_solver.reset ();
  let _ = Atomic_solver.value_par ~jobs:2 Model.Weakener_atomic.init in
  (match Atomic_solver.last_par_stats () with
  | None -> Alcotest.fail "value_par left no telemetry"
  | Some p ->
      Alcotest.(check bool) "at least one participant" true (p.domains <> []);
      let ids = List.map (fun (d : Mdp.Solver.domain_stats) -> d.domain_id) p.domains in
      Alcotest.(check (list int)) "participants sorted by domain id" (List.sort compare ids) ids;
      let summed =
        List.fold_left
          (fun acc (d : Mdp.Solver.domain_stats) -> acc + d.stats.memo_misses)
          0 p.domains
      in
      Alcotest.(check bool) "some states evaluated on workers" true (summed > 0);
      Alcotest.(check bool)
        "distinct <= total evaluated" true
        (p.distinct_keys <= summed && p.distinct_keys > 0);
      Alcotest.(check int)
        "distinct keys = sequential states" seq_states p.distinct_keys;
      Alcotest.(check int)
        "each distinct key evaluated once" p.distinct_keys summed);
  (* reset discards the retained tables along with the memo *)
  Atomic_solver.reset ();
  Alcotest.(check bool)
    "reset clears telemetry" true
    (Atomic_solver.last_par_stats () = None)

let test_rng_stream_pure () =
  (* streams are pure functions of (seed, index): re-derivation agrees,
     and distinct indices give distinct streams *)
  let draw ~seed ~index =
    let r = Util.Rng.stream ~seed ~index in
    List.init 8 (fun _ -> Util.Rng.int r 1_000_000)
  in
  Alcotest.(check (list int))
    "re-derived stream identical" (draw ~seed:42 ~index:3) (draw ~seed:42 ~index:3);
  Alcotest.(check bool)
    "adjacent indices differ" true
    (draw ~seed:42 ~index:3 <> draw ~seed:42 ~index:4);
  Alcotest.(check bool)
    "seeds differ" true
    (draw ~seed:42 ~index:3 <> draw ~seed:43 ~index:3)

let tests =
  [
    Alcotest.test_case "MC tallies identical at jobs 1/2/4" `Quick
      test_mc_parallel_identical;
    Alcotest.test_case "value_par = value (atomic game)" `Quick
      test_par_solver_atomic;
    Alcotest.test_case "value_par = value (ABD^1)" `Slow test_par_solver_abd1;
    Alcotest.test_case "encode agrees with structural equality" `Quick
      test_encode_canonical;
    Alcotest.test_case "encode_into = encode under buffer reuse" `Quick
      test_encode_into_reuse;
    Alcotest.test_case "ABD key bytes are pinned" `Quick test_abd_key_digest;
    Alcotest.test_case "pool map is positional" `Quick test_pool_map_positional;
    Alcotest.test_case "pool re-raises worker exceptions" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "pool reports worker domain ids" `Quick test_pool_domain_ids;
    Alcotest.test_case "value_par leaves per-domain telemetry" `Quick
      test_last_par_stats;
    Alcotest.test_case "Rng.stream is pure in (seed, index)" `Quick
      test_rng_stream_pure;
  ]
