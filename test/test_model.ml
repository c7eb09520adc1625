(* Tests for the exact game models: the solver itself on hand-solvable toy
   games, and the weakener models against the paper's claims. *)

let feq = Alcotest.(check (float 1e-9))

(* A toy game: the adversary picks one of two coins to flip; coin A wins
   with probability 1/3, coin B with 2/3. Optimal value: 2/3. *)
module Toy = struct
  type state = Start | Flipped of bool
  type move = PickA | PickB
  type transition = Det of state | Chance of (float * state) list

  let moves = function Start -> [ PickA; PickB ] | Flipped _ -> []

  let apply _ = function
    | PickA -> Chance [ (1.0 /. 3.0, Flipped true); (2.0 /. 3.0, Flipped false) ]
    | PickB -> Chance [ (2.0 /. 3.0, Flipped true); (1.0 /. 3.0, Flipped false) ]

  let terminal_value = function Flipped true -> 1.0 | _ -> 0.0

  let encode = function
    | Start -> "s"
    | Flipped true -> "t"
    | Flipped false -> "f"

  let encode_into s b = Mdp.Key.raw b (encode s)
  let pp_move ppf _ = Fmt.string ppf "pick"
end

module ToySolver = Mdp.Solver.Make (Toy)

let test_solver_toy () =
  feq "optimal pick" (2.0 /. 3.0) (ToySolver.value Toy.Start);
  Alcotest.(check bool) "best move is B" true (ToySolver.best_move Toy.Start = Some Toy.PickB);
  Alcotest.(check bool) "explored both" true (ToySolver.explored () >= 3)

(* A cyclic game must be reported, not looped on. *)
module Cyclic = struct
  type state = A | B
  type move = Go
  type transition = Det of state | Chance of (float * state) list

  let moves _ = [ Go ]
  let apply s Go = Det (match s with A -> B | B -> A)
  let terminal_value _ = 0.0
  let encode = function A -> "a" | B -> "b"
  let encode_into s b = Mdp.Key.raw b (encode s)
  let pp_move ppf Go = Fmt.string ppf "go"
end

module CyclicSolver = Mdp.Solver.Make (Cyclic)

let test_solver_detects_cycle () =
  Alcotest.check_raises "cycle" Mdp.Solver.Cyclic (fun () ->
      ignore (CyclicSolver.value Cyclic.A))

(* The parallel solve's root pass claims the states above its frontier
   too, so it re-enters its own claim on the cycle. *)
let test_solver_par_detects_cycle () =
  Alcotest.check_raises "cycle" Mdp.Solver.Cyclic (fun () ->
      ignore (CyclicSolver.value_par ~jobs:2 Cyclic.A))

(* A depth-2 max/chance alternation with a suboptimal trap. *)
module Depth2 = struct
  type state = Root | Mid of int | Leaf of float
  type move = M of int
  type transition = Det of state | Chance of (float * state) list

  let moves = function
    | Root -> [ M 0; M 1 ]
    | Mid _ -> [ M 0; M 1 ]
    | Leaf _ -> []

  let apply s (M i) =
    match s with
    | Root -> Chance [ (0.5, Mid i); (0.5, Leaf 0.2) ]
    | Mid j -> Det (Leaf (if i = j then 1.0 else 0.0))
    | Leaf _ -> assert false

  let terminal_value = function Leaf v -> v | _ -> 0.0

  let encode = function
    | Root -> "r"
    | Mid i -> "m" ^ string_of_int i
    | Leaf v -> "l" ^ string_of_float v

  let encode_into s b = Mdp.Key.raw b (encode s)
  let pp_move ppf (M i) = Fmt.pf ppf "m%d" i
end

module Depth2Solver = Mdp.Solver.Make (Depth2)

let test_solver_depth2 () =
  (* adversary matches j at the Mid node: value = 0.5*1 + 0.5*0.2 = 0.6 *)
  feq "depth-2 value" 0.6 (Depth2Solver.value Depth2.Root)

(* ---- the weakener models ---- *)

let test_atomic_weakener_half () =
  (* Appendix A.1: the adversary-optimal bad probability is exactly 1/2 *)
  feq "atomic = 1/2" 0.5 (Model.Weakener_atomic.bad_probability ())

let test_abd1_wins_always () =
  (* Appendix A.2 / Figure 1: with plain ABD the adversary always wins *)
  feq "ABD^1 = 1" 1.0 (Model.Weakener_abd.bad_probability ~k:1 ())

let test_abd2_is_five_eighths () =
  (* Appendix A.3.2 proves bad <= 5/8; the exact game value shows the
     refined analysis is tight *)
  feq "ABD^2 = 5/8" 0.625 (Model.Weakener_abd.bad_probability ~k:2 ())

let test_abd_within_paper_bounds () =
  List.iter
    (fun k ->
      let v = Model.Weakener_abd.bad_probability ~k () in
      let bound = Core.Bound.weakener_instance ~k in
      Alcotest.(check bool)
        (Fmt.str "Thm 4.2 holds at k=%d (%.4f <= %.4f)" k v bound)
        true
        (v <= bound +. 1e-9);
      Alcotest.(check bool)
        (Fmt.str "atomic lower bound at k=%d" k)
        true (v >= 0.5 -. 1e-9))
    [ 1; 2 ]

let test_abd_monotone_k () =
  let v1 = Model.Weakener_abd.bad_probability ~k:1 () in
  let v2 = Model.Weakener_abd.bad_probability ~k:2 () in
  Alcotest.(check bool) "decreasing in k" true (v2 < v1)

let test_abd3_formula () =
  (* the machine-derived exact law for this instance: (k^2 + 1) / (2 k^2) *)
  feq "ABD^3 = 5/9" (5.0 /. 9.0) (Model.Weakener_abd.bad_probability ~k:3 ())

let tests =
  [
    Alcotest.test_case "solver: toy chance game" `Quick test_solver_toy;
    Alcotest.test_case "solver: cycle detection" `Quick test_solver_detects_cycle;
    Alcotest.test_case "solver: value_par cycle detection" `Quick
      test_solver_par_detects_cycle;
    Alcotest.test_case "solver: depth-2 alternation" `Quick test_solver_depth2;
    Alcotest.test_case "A.1: atomic weakener = 1/2" `Quick test_atomic_weakener_half;
    Alcotest.test_case "A.2: ABD^1 = 1" `Slow test_abd1_wins_always;
    Alcotest.test_case "A.3: ABD^2 = 5/8 (refined bound tight)" `Slow
      test_abd2_is_five_eighths;
    Alcotest.test_case "Thm 4.2 sandwiches exact values" `Slow
      test_abd_within_paper_bounds;
    Alcotest.test_case "exact value decreases with k" `Slow test_abd_monotone_k;
    Alcotest.test_case "ABD^3 = 5/9 (exact law)" `Slow test_abd3_formula;
  ]

(* The atomic-C substitution, validated: modelling C as a second ABD^k
   instance leaves the exact values unchanged. *)
let test_abd_c_substitution_k1 () =
  feq "k=1, C as ABD" 1.0 (Model.Weakener_abd.bad_probability ~atomic_c:false ~k:1 ())

let test_abd_c_substitution_k2 () =
  feq "k=2, C as ABD" 0.625
    (Model.Weakener_abd.bad_probability ~atomic_c:false ~k:2 ())

(* Random playouts of the game respect basic invariants: every play
   terminates, terminal payoffs are 0/1, and the in-transit multiset stays
   canonically sorted. *)
let test_model_playout_invariants () =
  let rng = Util.Rng.of_int 2718 in
  for _ = 1 to 200 do
    let rec play s steps =
      if steps > 10_000 then Alcotest.fail "playout did not terminate";
      match Model.Weakener_abd.Game.moves s with
      | [] ->
          let v = Model.Weakener_abd.Game.terminal_value s in
          Alcotest.(check bool) "payoff is 0 or 1" true (v = 0.0 || v = 1.0)
      | ms -> (
          let m = Util.Rng.pick rng ms in
          match Model.Weakener_abd.Game.apply s m with
          | Model.Weakener_abd.Game.Det s' -> play s' (steps + 1)
          | Model.Weakener_abd.Game.Chance dist ->
              let total = List.fold_left (fun acc (p, _) -> acc +. p) 0.0 dist in
              Alcotest.(check (float 1e-9)) "chance sums to 1" 1.0 total;
              play (snd (Util.Rng.pick rng dist)) (steps + 1))
    in
    play (Model.Weakener_abd.init ~k:2 ()) 0
  done

let more_tests =
  [
    Alcotest.test_case "substitution: C as ABD, k=1" `Slow test_abd_c_substitution_k1;
    Alcotest.test_case "substitution: C as ABD, k=2 (tight 5/8)" `Slow
      test_abd_c_substitution_k2;
    Alcotest.test_case "model playout invariants" `Quick test_model_playout_invariants;
  ]

(* ---- the snapshot weakener game (Programs.Ghw_snapshot, exact) ---- *)

let test_ghw_atomic_half () =
  feq "atomic snapshot = 1/2" 0.5 (Model.Ghw_snapshot_game.atomic_bad_probability ())

let test_ghw_afek_equals_atomic () =
  (* the single-update snapshot weakener cannot be weakened through the
     Afek implementation: the deciding pair of equal collects is fixed
     before any post-coin step can influence it *)
  List.iter
    (fun k ->
      feq
        (Fmt.str "afek^%d = 1/2" k)
        0.5
        (Model.Ghw_snapshot_game.afek_bad_probability ~k ()))
    [ 1; 2; 3 ]

let test_ghw_playout_invariants () =
  let rng = Util.Rng.of_int 99 in
  for _ = 1 to 200 do
    let rec play s steps =
      if steps > 5000 then Alcotest.fail "ghw playout did not terminate";
      match Model.Ghw_snapshot_game.Game.moves s with
      | [] ->
          let v = Model.Ghw_snapshot_game.Game.terminal_value s in
          Alcotest.(check bool) "payoff 0/1" true (v = 0.0 || v = 1.0)
      | ms -> (
          match Model.Ghw_snapshot_game.Game.apply s (Util.Rng.pick rng ms) with
          | Model.Ghw_snapshot_game.Game.Det s' -> play s' (steps + 1)
          | Model.Ghw_snapshot_game.Game.Chance dist ->
              play (snd (Util.Rng.pick rng dist)) (steps + 1))
    in
    play (Model.Ghw_snapshot_game.init ~k:2) 0
  done

let ghw_tests =
  [
    Alcotest.test_case "GHW game: atomic snapshot = 1/2" `Quick test_ghw_atomic_half;
    Alcotest.test_case "GHW game: Afek = atomic for all k" `Quick
      test_ghw_afek_equals_atomic;
    Alcotest.test_case "GHW game: playout invariants" `Quick test_ghw_playout_invariants;
  ]

(* ---- multi-update snapshot weakener (borrowed views reachable) ---- *)

let test_multi_ghw_values () =
  feq "multi-update atomic = 1/2" 0.5 (Model.Ghw_multi_game.atomic_bad_probability ());
  List.iter
    (fun k ->
      feq
        (Fmt.str "multi-update afek^%d = 1/2" k)
        0.5
        (Model.Ghw_multi_game.afek_bad_probability ~k ()))
    [ 1; 2 ]

(* The borrow path really fires: a handcrafted schedule makes p2 observe p0
   move twice within one scan body and finish by borrowing. *)
let test_multi_ghw_borrow_reachable () =
  let open Model.Ghw_multi_game in
  let det = function Game.Det s -> s | Game.Chance l -> snd (List.hd l) in
  let step p s =
    let m =
      List.find
        (fun m -> Fmt.str "%a" Game.pp_move m = Fmt.str "step(p%d)" p)
        (Game.moves s)
    in
    Game.apply s m
  in
  let dstep p s = det (step p s) in
  let rec n_times f n s = if n = 0 then s else n_times f (n - 1) (f s) in
  let s = init ~k:1 in
  let s = s |> dstep 2 |> dstep 2 |> dstep 2 in
  let s = n_times (dstep 0) 6 s in
  let s = dstep 0 s in
  let s = s |> dstep 2 |> dstep 2 |> dstep 2 in
  let s = n_times (dstep 0) 6 s in
  let s = dstep 0 s in
  let s = s |> dstep 2 |> dstep 2 in
  match step 2 s with
  | Game.Chance _ -> () (* the body finished at collect 3: borrow fired *)
  | Game.Det _ -> Alcotest.fail "borrow did not fire on the crafted schedule"

let multi_ghw_tests =
  [
    Alcotest.test_case "multi-update GHW game: all values 1/2" `Quick
      test_multi_ghw_values;
    Alcotest.test_case "multi-update GHW game: borrow reachable" `Quick
      test_multi_ghw_borrow_reachable;
  ]

(* ---- the VA weakener game: shared memory blocks the attack ---- *)

let test_va_weakener_atomic_value () =
  (* plain VA already achieves the atomic 1/2 on the weakener: unlike ABD,
     its collect reads are instantaneous — there is no in-transit state to
     freeze pre-coin and deliver post-coin, so the adversary cannot
     condition the linearization order on the coin *)
  List.iter
    (fun k ->
      feq (Fmt.str "VA^%d = 1/2" k) 0.5 (Model.Weakener_va.bad_probability ~k ()))
    [ 1; 2; 3 ]

(* Scripted playout validating the model's VA semantics: once W1's write
   landed (pre-coin) and W0 runs after it, W0 adopts timestamp (2,0) and
   its value 0 dominates every later read. With the coin forced to 1, p2's
   first read returning 0 makes the bad outcome impossible — the model
   must prune to a terminal losing state. *)
let test_va_model_semantics () =
  let open Model.Weakener_va in
  let take_branch i = function
    | Game.Det s -> s
    | Game.Chance l -> snd (List.nth l i)
  in
  let step ?(branch = 0) p s =
    let m =
      List.find
        (fun m -> Fmt.str "%a" Game.pp_move m = Fmt.str "step(p%d)" p)
        (Game.moves s)
    in
    take_branch branch (Game.apply s m)
  in
  let rec n_times f n s = if n = 0 then s else n_times f (n - 1) (f s) in
  let s = init ~k:1 in
  (* W1 runs to completion: start + 3 collect reads + choose + write *)
  let s = n_times (step 1) 6 s in
  (* coin := 1 (second chance branch), then the C write *)
  let s = step ~branch:1 1 s in
  let s = step 1 s in
  (* W0 runs fully after W1: its collect sees (1,(1,1)) -> ts (2,0) *)
  let s = n_times (step 0) 6 s in
  (* p2's first read: start + 3 reads + choose => returns 0 via (0,(2,0)) *)
  let s = n_times (step 2) 5 s in
  (* u1 = 0 <> coin = 1: bad is impossible, the game is over and lost *)
  Alcotest.(check bool) "pruned terminal" true (Game.moves s = []);
  feq "losing terminal" 0.0 (Game.terminal_value s);
  feq "value check" 0.5 (bad_probability ~k:1 ())

let va_tests =
  [
    Alcotest.test_case "VA weakener: atomic value for all k" `Quick
      test_va_weakener_atomic_value;
    Alcotest.test_case "VA model semantics playout" `Quick test_va_model_semantics;
  ]
