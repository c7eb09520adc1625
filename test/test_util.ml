(* Tests for the util substrate: values, RNG, statistics, tables. *)

open Util

let value = Alcotest.testable Value.pp Value.equal

let test_value_compare_total () =
  let vs =
    [
      Value.unit;
      Value.bool true;
      Value.int 3;
      Value.str "x";
      Value.pair (Value.int 1) (Value.int 2);
      Value.list [ Value.int 1 ];
      Value.none;
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          Alcotest.(check bool) "antisymmetric" true (compare c1 0 = compare 0 c2);
          Alcotest.(check bool) "equal iff compare 0" (Value.equal a b) (c1 = 0))
        vs)
    vs

let test_value_triple () =
  let t = Value.triple (Value.int 1) (Value.int 2) (Value.int 3) in
  let a, b, c = Value.to_triple t in
  Alcotest.check value "fst" (Value.int 1) a;
  Alcotest.check value "snd" (Value.int 2) b;
  Alcotest.check value "trd" (Value.int 3) c

let test_value_type_errors () =
  Alcotest.check_raises "to_int of bool"
    (Value.Type_error ("int", Value.bool true))
    (fun () -> ignore (Value.to_int (Value.bool true)))

let test_ts_order () =
  Alcotest.(check bool) "int part dominates" true (Value.ts_compare (Value.ts 1 5) (Value.ts 2 0) < 0);
  Alcotest.(check bool) "pid breaks ties" true (Value.ts_compare (Value.ts 1 0) (Value.ts 1 1) < 0);
  Alcotest.(check int) "reflexive" 0 (Value.ts_compare (Value.ts 3 2) (Value.ts 3 2))

let test_rng_deterministic () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  let da = List.init 50 (fun _ -> Rng.int a 1000) in
  let db = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same stream" da db

let test_rng_split_independent () =
  let a = Rng.of_int 42 in
  let c = Rng.split a in
  let da = List.init 20 (fun _ -> Rng.int a 1000) in
  let dc = List.init 20 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "streams differ" true (da <> dc)

let prop_rng_bounds =
  QCheck.Test.make ~count:200 ~name:"Rng.int respects bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let v = Rng.int rng n in
      0 <= v && v < n)

let prop_shuffle_permutation =
  QCheck.Test.make ~count:100 ~name:"Rng.shuffle is a permutation"
    QCheck.(pair small_int (small_list int))
    (fun (seed, xs) ->
      let rng = Rng.of_int seed in
      List.sort compare (Rng.shuffle rng xs) = List.sort compare xs)

(* The generator's stream, pinned: the simulator's choice codes, the
   committed fuzz corpus and every Monte-Carlo tally are functions of
   these draws, so a change to the generator's representation must keep
   every value. [max_int / 2 + 2] rejects about half of its draws, so the
   [int] list also pins the rejection path's draw count. *)
let test_rng_stream_pinned () =
  let g () = Rng.stream ~seed:7 ~index:3 in
  let first16 =
    [
      431888183886164993L; 362380776599094672L; -4050113041532237490L;
      3229422328327845085L; 5690671179803967672L; -5671683548657199728L;
      2424506982765699379L; -537335204869741486L; 1534957781926808998L;
      5275230975087151691L; 6347057263705591713L; 8700951429017739187L;
      -5658863174118607015L; 2568953093147493994L; 2501096863115361218L;
      4191622401846085236L;
    ]
  in
  let r = g () in
  Alcotest.(check (list int64)) "first 16 bits64" first16
    (List.init 16 (fun _ -> Rng.bits64 r));
  let r = g () in
  Alcotest.(check (list int))
    "int at bounds 2, 3, 5, max_int/2+2, max_int"
    [
      1; 0; 0; 1; 0; 0; 1; 0; 1; 1; 2; 0; 1; 1; 2; 0; 3; 3; 4; 2; 2; 0; 3; 4;
      2116525112197086929; 1088886711391786443; 2067679910619182459;
      1876474243912306718; 733225217912194736; 39062522411311120;
      1922054583504821126; 1085778177380251357; 1425081119770854596;
      1198746563196936241; 2486080546342343656; 4479897632255031157;
      4110478949278948950; 2330901184512971450; 416249474604180501;
      2441907753258452381;
    ]
    (List.concat_map
       (fun b -> List.init 8 (fun _ -> Rng.int r b))
       [ 2; 3; 5; (max_int / 2) + 2; max_int ]);
  (* 40 results from 44 draws: the four rejections happened *)
  Alcotest.(check int64) "draw 45 follows" (-1110503744363856600L) (Rng.bits64 r);
  let r = g () in
  Alcotest.(check string) "singleton pick" "x" (Rng.pick r [ "x" ]);
  Alcotest.(check int64) "singleton pick consumes one draw" (List.nth first16 1)
    (Rng.bits64 r);
  let r = g () and shadow = g () in
  let xs = List.init 10 Fun.id in
  Alcotest.(check (list int))
    "pick is int over the length"
    (List.init 20 (fun _ -> Rng.int shadow 10))
    (List.init 20 (fun _ -> Rng.pick r xs));
  let r = g () in
  ignore (Rng.bits64 r);
  let c = Rng.copy r in
  ignore (Rng.bits64 r);
  Alcotest.(check (list int64)) "copy continues the stream"
    (List.filteri (fun i _ -> i >= 1 && i <= 8) first16)
    (List.init 8 (fun _ -> Rng.bits64 c));
  let r = g () in
  let s = Rng.split r in
  Alcotest.(check (list int64)) "split stream"
    [
      -1990045592304823836L; 8776095787385999293L; 7660944962670766144L;
      -2502688533713390218L;
    ]
    (List.init 4 (fun _ -> Rng.bits64 s));
  Alcotest.(check (list int64)) "split advances the parent by one draw"
    (List.filteri (fun i _ -> i >= 1 && i <= 4) first16)
    (List.init 4 (fun _ -> Rng.bits64 r))

let test_stats_mean_var () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "variance" 1.0 (Stats.variance [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean [])

let test_wilson_interval () =
  let lo, hi = Stats.binomial_ci ~successes:50 ~trials:100 in
  Alcotest.(check bool) "contains p" true (lo < 0.5 && 0.5 < hi);
  Alcotest.(check bool) "nontrivial" true (hi -. lo < 0.25);
  let lo0, hi0 = Stats.binomial_ci ~successes:0 ~trials:100 in
  Alcotest.(check (float 1e-9)) "zero successes lo" 0.0 lo0;
  Alcotest.(check bool) "zero successes hi small" true (hi0 < 0.05)

let test_table_render () =
  let t = Table.create [ "k"; "value" ] in
  Table.add_row t [ "1"; "1.0" ];
  Table.add_row t [ "2"; "0.625" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true (String.length s > 0);
  Alcotest.(check bool) "rows present" true
    (String.split_on_char '\n' s |> List.length = 4)

let prop_value_hash_consistent =
  QCheck.Test.make ~count:200 ~name:"Value.hash consistent with equal"
    QCheck.(pair (int_bound 100) (int_bound 100))
    (fun (a, b) ->
      let va = Value.pair (Value.int a) (Value.int (a * 2)) in
      let vb = Value.pair (Value.int b) (Value.int (b * 2)) in
      (not (Value.equal va vb)) || Value.hash va = Value.hash vb)

let tests =
  [
    Alcotest.test_case "value compare is a total order" `Quick test_value_compare_total;
    Alcotest.test_case "value triple roundtrip" `Quick test_value_triple;
    Alcotest.test_case "value type errors" `Quick test_value_type_errors;
    Alcotest.test_case "timestamp ordering" `Quick test_ts_order;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng stream pinned" `Quick test_rng_stream_pinned;
    Alcotest.test_case "stats mean/variance" `Quick test_stats_mean_var;
    Alcotest.test_case "wilson interval" `Quick test_wilson_interval;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    QCheck_alcotest.to_alcotest prop_rng_bounds;
    QCheck_alcotest.to_alcotest prop_shuffle_permutation;
    QCheck_alcotest.to_alcotest prop_value_hash_consistent;
  ]
