(* The parallel engine's determinism contract: Monte-Carlo tallies must
   be bit-identical at every job count; and the canonical state keys the
   memo tables rely on must agree with structural equality on reachable
   states. *)

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

(* The ABD key bytes are pinned. A key is a state's identity in the
   memo, so a new state representation or writer must not change one
   byte: a changed layout could merge states the solver must tell apart.
   The digest covers the concatenated [encode] keys of the first 4,000
   BFS states; it was recorded with the [Mdp.Key] combinator writer,
   before the ABD state became its own packed key. *)
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

(* The whole ABD^1 transition relation is pinned, not just its states:
   for every reachable state, in BFS order, the stream holds the state's
   key and then, for each move in [moves] order, each successor's
   probability (as [%h]) and key. Any change to a move's order, a
   successor's bytes, a chance branch's order or its probability changes
   the digest. The stream runs to hundreds of MB, so the digest is MD5
   folded over it in chunks cut at the first state boundary past 1 MiB
   ([d' = MD5 (d ^ chunk)], from the MD5 of the empty string). *)
let transition_digest ~atomic_c =
  let module G = Model.Weakener_abd.Game in
  let seen = Hashtbl.create (1 lsl 16) in
  let queue = Queue.create () in
  let chunk = Buffer.create (1 lsl 21) in
  let digest = ref (Digest.string "") in
  let flush () =
    digest := Digest.string (!digest ^ Buffer.contents chunk);
    Buffer.clear chunk
  in
  let visit s =
    let key = G.encode s in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add s queue
    end;
    key
  in
  let succ pr s =
    Buffer.add_string chunk (Printf.sprintf "%h" pr);
    Buffer.add_string chunk (visit s)
  in
  ignore (visit (Model.Weakener_abd.init ~atomic_c ~k:1 ()));
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Buffer.add_string chunk (G.encode s);
    List.iter
      (fun m ->
        match G.apply s m with
        | G.Det s' -> succ 1.0 s'
        | G.Chance dist -> List.iter (fun (pr, s') -> succ pr s') dist)
      (G.moves s);
    if Buffer.length chunk >= 1 lsl 20 then flush ()
  done;
  flush ();
  (Hashtbl.length seen, Digest.to_hex !digest)

let check_transitions ~atomic_c ~states ~expected () =
  let name = if atomic_c then "ABD^1, C atomic" else "ABD^1, C as ABD" in
  let n, d = transition_digest ~atomic_c in
  Alcotest.(check int) (name ^ ": reachable states") states n;
  Alcotest.(check string) (name ^ ": MD5 of the transition stream") expected d

(* ---- the memo form of a key ------------------------------------------ *)

let pack_string k =
  let src = Mdp.Key.create () and dst = Mdp.Key.create () in
  Mdp.Key.raw src k;
  Mdp.Key.pack src dst;
  Mdp.Key.contents dst

(* [unpack] inverts [pack] on every key the model games reach, through
   one reused pair of buffers, as in the solver. *)
let test_pack_roundtrip () =
  let src = Mdp.Key.create ~size:8 () and dst = Mdp.Key.create ~size:8 () in
  List.iter
    (fun (Game (g, init, cap, name)) ->
      let module G = (val g) in
      ignore
        (iter_reachable (module G) ~init ~cap (fun s ->
             Mdp.Key.reset src;
             G.encode_into s src;
             Mdp.Key.pack src dst;
             let k = G.encode s and p = Mdp.Key.contents dst in
             if not (String.equal (Mdp.Key.unpack p) k) then
               Alcotest.failf "%s: unpack (pack k) <> k" name;
             if not (String.equal (Mdp.Key.contents src) k) then
               Alcotest.failf "%s: pack changed its source" name)))
    games

let test_pack_edges () =
  let form k = Char.code (pack_string k).[0] in
  let check name k ~tag ~len =
    let p = pack_string k in
    Alcotest.(check int) (name ^ ": tag") tag (Char.code p.[0]);
    Alcotest.(check int) (name ^ ": length") len (String.length p);
    Alcotest.(check string) (name ^ ": round trip") k (Mdp.Key.unpack p)
  in
  check "empty" "" ~tag:1 ~len:1;
  check "one byte" "\000" ~tag:2 ~len:2;
  check "odd, 17 bytes" (String.make 17 '\132') ~tag:2 ~len:10;
  check "even, 16 bytes" (String.init 16 (fun i -> Char.chr (119 + (i mod 14))))
    ~tag:1 ~len:9;
  (* every alphabet byte at every position of a 24-byte key *)
  let alphabet = List.init 14 (fun i -> 119 + i) @ [ 0; 1 ] in
  List.iter
    (fun b ->
      for pos = 0 to 23 do
        let k = String.init 24 (fun i -> if i = pos then Char.chr b else '\120') in
        check (Fmt.str "byte %d at %d" b pos) k ~tag:1 ~len:13
      done)
    alphabet;
  (* a byte outside the alphabet, at any position, takes the raw form *)
  List.iter
    (fun b ->
      for len = 1 to 20 do
        for pos = 0 to len - 1 do
          let k = String.init len (fun i -> if i = pos then Char.chr b else '\001') in
          check (Fmt.str "byte %d at %d of %d" b pos len) k ~tag:0 ~len:(len + 1)
        done
      done)
    [ 2; 118; 133; 134; 247; 255 ];
  Alcotest.(check int) "a wide-int escape is raw" 0
    (form (Mdp.Key.run (fun b -> Mdp.Key.int b 1000)));
  Alcotest.(check int) "a 133 byte is raw" 0
    (form (Mdp.Key.run (fun b -> Mdp.Key.int b 13)));
  Alcotest.(check int) "ints -1..12 pack" 1
    (form (Mdp.Key.run (fun b -> for v = -1 to 12 do Mdp.Key.int b v done)));
  List.iter
    (fun p ->
      match Mdp.Key.unpack p with
      | _ -> Alcotest.failf "unpack %S must raise" p
      | exception Invalid_argument _ -> ())
    [ ""; "\003"; "\002"; "\002\255" ]

(* A one-state game over a given key, to drive the solver's memo. *)
module Const_game = struct
  type state = string
  type move = unit
  type transition = Det of state | Chance of (float * state) list

  let moves _ = []
  let apply s () = Det s
  let terminal_value _ = 0.25
  let encode s = s
  let encode_into s b = Mdp.Key.raw b s
  let pp_move ppf () = Fmt.string ppf "()"
end

module Const_solver = Mdp.Solver.Make (Const_game)

(* The memo's key limit holds for the memo form: a key of
   [max_key_length] bytes in the alphabet packs to half that, but one
   outside it is raw, one byte longer, and the solver raises as for any
   over-long key. *)
let test_pack_key_limit () =
  let n = Par.Memo_tbl.max_key_length in
  Const_solver.reset ();
  exact "longest packable key" 0.25 (Const_solver.value (String.make n '\001'));
  exact "longest raw key that fits" 0.25
    (Const_solver.value (String.make (n - 1) '\255'));
  (match Const_solver.value (String.make n '\255') with
  | _ -> Alcotest.fail "a raw key past the memo's limit must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing claimed by the over-long key" 2
    (Const_solver.stats ()).states;
  Const_solver.reset ()

(* Injectivity on the pinned key sets: the first 4,000 BFS states of
   the three pinned ABD games, distinct keys and distinct memo forms. *)
let test_pack_distinct () =
  List.iter
    (fun (k, servers, atomic_c) ->
      let seen = Hashtbl.create 4096 in
      ignore
        (iter_reachable
           (module Model.Weakener_abd.Game)
           ~init:(Model.Weakener_abd.init ~k ~servers ~atomic_c ())
           ~cap:4_000
           (fun s ->
             let key = Model.Weakener_abd.Game.encode s in
             let p = pack_string key in
             match Hashtbl.find_opt seen p with
             | Some key' when not (String.equal key key') ->
                 Alcotest.failf "ABD^%d, %d servers: two keys pack equal" k
                   servers
             | _ -> Hashtbl.replace seen p key));
      Alcotest.(check int)
        (Fmt.str "ABD^%d, %d servers: 4,000 memo forms" k servers)
        4_000 (Hashtbl.length seen))
    [ (1, 3, true); (1, 5, false); (2, 3, false) ]

(* Every ABD^3 state's key takes the packed form: a solve whose every
   probe key is packed on the side and its tag counted. *)
let raw_forms = ref 0

module Abd_counted = struct
  include Model.Weakener_abd.Game

  let side = Mdp.Key.create ()

  let encode_into s b =
    Model.Weakener_abd.Game.encode_into s b;
    Mdp.Key.pack b side;
    if Bytes.get (Mdp.Key.data side) 0 = '\000' then incr raw_forms
end

module Abd_counted_solver = Mdp.Solver.Make (Abd_counted)

let test_abd3_all_packed () =
  raw_forms := 0;
  Abd_counted_solver.reset ();
  ignore (Abd_counted_solver.value (Model.Weakener_abd.init ~k:3 ()));
  Alcotest.(check int) "ABD^3: states" 803_390 (Abd_counted_solver.stats ()).states;
  Abd_counted_solver.reset ();
  Alcotest.(check int) "ABD^3: keys in the raw form" 0 !raw_forms

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

let test_pool_spawns_workers () =
  Alcotest.(check int) "no workers before" 0 (Par.Pool.spawned_domains ());
  Par.Pool.with_pool ~jobs:4 (fun _ ->
      Alcotest.(check int) "jobs - 1 workers spawned" 3 (Par.Pool.spawned_domains ()));
  Alcotest.(check int) "all joined after with_pool" 0 (Par.Pool.spawned_domains ());
  (* a single-job pool spawns nothing: regions run on the caller *)
  Par.Pool.with_pool ~jobs:1 (fun _ ->
      Alcotest.(check int) "jobs=1 spawns no workers" 0 (Par.Pool.spawned_domains ()))

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
    Alcotest.test_case "encode agrees with structural equality" `Quick
      test_encode_canonical;
    Alcotest.test_case "encode_into = encode under buffer reuse" `Quick
      test_encode_into_reuse;
    Alcotest.test_case "ABD key bytes are pinned" `Quick test_abd_key_digest;
    Alcotest.test_case "ABD^1 transitions are pinned (C atomic)" `Quick
      (check_transitions ~atomic_c:true ~states:106_263
         ~expected:"f6dad1b5c84a90f09d0c0ea8116802d8");
    Alcotest.test_case "ABD^1 transitions are pinned (C as ABD)" `Slow
      (check_transitions ~atomic_c:false ~states:471_166
         ~expected:"bee36fe5c4f05857097f7f100cde6c36");
    Alcotest.test_case "unpack (pack k) = k on every game" `Quick
      test_pack_roundtrip;
    Alcotest.test_case "pack: empty, odd, escapes, raw form" `Quick
      test_pack_edges;
    Alcotest.test_case "pack: the memo's key limit still raises" `Quick
      test_pack_key_limit;
    Alcotest.test_case "pack: pinned ABD key sets stay distinct" `Quick
      test_pack_distinct;
    Alcotest.test_case "pack: every ABD^3 key is packed" `Quick
      test_abd3_all_packed;
    Alcotest.test_case "pool map is positional" `Quick test_pool_map_positional;
    Alcotest.test_case "pool re-raises worker exceptions" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "pool spawns its worker domains" `Quick
      test_pool_spawns_workers;
    Alcotest.test_case "Rng.stream is pure in (seed, index)" `Quick
      test_rng_stream_pure;
  ]
