(* Unit tests of the statistics and verdicts behind compare.exe, on
   synthetic run sets. *)

let close = Alcotest.float 1e-12

let quartiles () =
  let q xs =
    let s = Sample.summarize xs in
    [ s.q1; s.median; s.q3 ]
  in
  (* values from Python's statistics.quantiles(data, n=4) *)
  Alcotest.(check (list close))
    "1..10" [ 2.75; 5.5; 8.25 ]
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (list close)) "1..4" [ 1.25; 2.5; 3.75 ] (q [ 4.0; 2.0; 1.0; 3.0 ]);
  Alcotest.(check (list close)) "two points" [ 0.0; 3.0; 6.0 ] (q [ 5.0; 1.0 ]);
  Alcotest.(check (list close)) "one point" [ 7.0; 7.0; 7.0 ] (q [ 7.0 ])

let steady = [ 1.00; 1.01; 0.99; 1.02; 0.98; 1.00; 1.01; 0.99; 1.00; 1.00 ]
let scaled f = List.map (fun x -> x *. f) steady
let verdict = Alcotest.testable (Fmt.of_to_string Verdict.to_string) ( = )

let judge ?(better = Spec.Lower) ?(bound = 0.10) a b = Verdict.judge ~better ~bound a b

let slowdown () =
  Alcotest.check verdict "15% slower wall time" Verdict.Worse
    (judge steady (scaled 1.15));
  Alcotest.check verdict "15% lower throughput" Verdict.Worse
    (judge ~better:Spec.Higher steady (scaled 0.85))

let speedup () =
  Alcotest.check verdict "15% faster" Verdict.Better (judge steady (scaled 0.85));
  Alcotest.check verdict "same runs" Verdict.Unchanged (judge steady steady);
  Alcotest.check verdict "5% slower, within bound" Verdict.Unchanged
    (judge steady (scaled 1.05))

let over_spread () =
  let wide = [ 0.70; 1.30; 0.80; 1.25; 0.90; 1.20; 1.00; 0.75; 1.10; 1.35 ] in
  Alcotest.check verdict "spread wider than bound" Verdict.Unresolved
    (judge wide (List.rev wide));
  Alcotest.check verdict "no bound: pairwise rule only" Verdict.Unchanged
    (Verdict.judge ~better:Spec.Lower wide (List.rev wide))

let doc ?(nproc = 2) ?(ocaml = "5.1.1") ~workload ~seed value =
  {
    Results.workload;
    size = "full";
    traced = false;
    fingerprint = { nproc; domains = nproc; ocaml; commit = "c"; seed; reps = 3 };
    correct = true;
    attempted = 1;
    failed = 0;
    metrics = [ { Results.name = "wall_s"; unit_ = "s"; value; reps = None } ];
  }

let spec =
  {
    Spec.workloads = [ "w" ];
    end_to_end =
      [ { Spec.name = "wall_s"; unit_ = "s"; better = Spec.Lower; bound = Some 0.10 } ];
    per_layer = [];
  }

let rows () =
  let set f = List.mapi (fun i v -> doc ~workload:"w" ~seed:i (v *. f)) steady in
  let rows = Verdict.rows spec ~baseline:(set 1.0) ~candidate:(set 1.15) in
  Alcotest.(check int) "one row" 1 (List.length rows);
  Alcotest.(check int) "one regression" 1 (List.length (Verdict.regressions rows));
  let same = Verdict.rows spec ~baseline:(set 1.0) ~candidate:(set 1.0) in
  Alcotest.(check int) "no regression" 0 (List.length (Verdict.regressions same))

let fingerprints () =
  let ok = [ doc ~workload:"w" ~seed:1 1.0; doc ~workload:"w" ~seed:2 1.0 ] in
  Alcotest.(check bool) "same host" true (Result.is_ok (Verdict.check_fingerprints ok));
  let other_nproc = doc ~nproc:4 ~workload:"w" ~seed:3 1.0 in
  Alcotest.(check bool) "nproc differs" true
    (Result.is_error (Verdict.check_fingerprints (other_nproc :: ok)));
  let other_ocaml = doc ~ocaml:"5.3.0" ~workload:"w" ~seed:3 1.0 in
  Alcotest.(check bool) "compiler differs" true
    (Result.is_error (Verdict.check_fingerprints (ok @ [ other_ocaml ])))

let round_trip () =
  let d = doc ~workload:"w" ~seed:5 1.25 in
  match Results.of_json (Results.to_json d) with
  | Ok d' -> Alcotest.(check bool) "document round-trips" true (d = d')
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "perf"
    [
      ( "compare",
        [
          Alcotest.test_case "quartiles as Python computes them" `Quick quartiles;
          Alcotest.test_case "a 15% slowdown is worse" `Quick slowdown;
          Alcotest.test_case "speedups and no change" `Quick speedup;
          Alcotest.test_case "an over-spread set is unresolved" `Quick over_spread;
          Alcotest.test_case "rows and regressions" `Quick rows;
          Alcotest.test_case "fingerprint mismatch is refused" `Quick fingerprints;
          Alcotest.test_case "results document round-trip" `Quick round_trip;
        ] );
    ]
