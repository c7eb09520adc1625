(* Tests for the regression-diff layer: Obs.Diff severity policy,
   tolerances, invalid documents, and the committed baselines. *)

(* Build a results document programmatically; [rows] are
   (quantity, paper_value option, measured_value) triples and [metrics]
   free-form numeric section metrics. *)
let make_doc ?(id = "E1") ?(title = "test section") ?(rows = []) ?(metrics = [])
    () =
  let doc = Obs.Results.create ~generated_by:"test suite" () in
  let s = Obs.Results.section doc ~id ~title in
  List.iter
    (fun (quantity, paper_value, measured_value) ->
      Obs.Results.row s ?paper_value ~measured_value ~quantity ~paper:"-"
        ~measured:(Fmt.str "%g" measured_value)
        ())
    rows;
  if metrics <> [] then
    Obs.Results.add_section_metrics s
      (List.map (fun (k, v) -> (k, Obs.Json.Float v)) metrics);
  Obs.Results.to_json doc

let run_diff ~baseline ~current =
  match Obs.Diff.diff ~baseline ~current with
  | Ok r -> r
  | Error e -> Alcotest.failf "diff errored: %s" e

let count sev (r : Obs.Diff.report) =
  List.length (List.filter (fun (f : Obs.Diff.finding) -> f.severity = sev) r.findings)

(* ---- Obs.Diff -------------------------------------------------------- *)

let test_self_diff_clean () =
  let doc =
    make_doc
      ~rows:[ ("exact value", Some 0.5, 0.5); ("trials", None, 60.0) ]
      ~metrics:[ ("states", 106_000.0); ("solve_seconds_k1", 2.5) ]
      ()
  in
  let r = run_diff ~baseline:doc ~current:doc in
  Alcotest.(check int) "no findings" 0 (List.length r.findings);
  Alcotest.(check int) "exit 0" 0 (Obs.Diff.exit_code r);
  Alcotest.(check int) "rows compared" 2 r.rows_compared;
  (* no metric is exempt, so a key named like a timing, such as
     solve_seconds_k1, is compared too *)
  Alcotest.(check int) "metrics compared" 2 r.metrics_compared;
  Alcotest.(check int) "sections compared" 1 r.sections_compared

let test_paper_drift_fails () =
  (* paper drift is detected within the CURRENT document alone *)
  let bad = make_doc ~rows:[ ("exact value", Some 0.5, 0.5002) ] () in
  let r = run_diff ~baseline:bad ~current:bad in
  Alcotest.(check int) "one hard failure" 1 (count Obs.Diff.Fail r);
  Alcotest.(check int) "exit 1" 1 (Obs.Diff.exit_code r);
  (* ... and tolerance is respected on both sides of the edge *)
  let within = make_doc ~rows:[ ("exact value", Some 0.5, 0.5 +. 5e-7) ] () in
  let r = run_diff ~baseline:within ~current:within in
  Alcotest.(check int) "within tolerance" 0 (count Obs.Diff.Fail r)

let test_measured_drift_fails_hard () =
  let baseline = make_doc ~rows:[ ("exact value", None, 0.625) ] () in
  let current = make_doc ~rows:[ ("exact value", None, 0.6250001) ] () in
  let r = run_diff ~baseline ~current in
  Alcotest.(check int) "deterministic drift is Fail" 1 (count Obs.Diff.Fail r);
  Alcotest.(check int) "exit 1" 1 (Obs.Diff.exit_code r)

(* No metric is exempt: a results document holds only deterministic
   figures, so a minor-words drift fails hard, as a timing drift does. *)
let test_no_metric_exempt () =
  let doc ?(words = 1000.0) ?(seconds = 1.0) () =
    make_doc ~id:"PAR"
      ~metrics:[ ("gc.minor_words", words); ("solve_seq_seconds", seconds) ]
      ()
  in
  let baseline = doc () in
  let r = run_diff ~baseline ~current:baseline in
  Alcotest.(check int) "both keys compared" 2 r.metrics_compared;
  List.iter
    (fun (key, current) ->
      let r = run_diff ~baseline ~current in
      (match r.findings with
      | [ f ] ->
          Alcotest.(check string) (key ^ " fails") ("metrics." ^ key) f.subject;
          Alcotest.(check bool) (key ^ ": as a Fail") true (f.severity = Obs.Diff.Fail)
      | fs -> Alcotest.failf "%s: expected 1 finding, got %d" key (List.length fs));
      Alcotest.(check int) (key ^ ": exit 1") 1 (Obs.Diff.exit_code r))
    [
      ("gc.minor_words", doc ~words:10_000.0 ());
      ("solve_seq_seconds", doc ~seconds:10.0 ());
    ]

(* PAR's memo counters no longer move with a worker schedule: its memo
   hits fail hard on drift like every other section's. *)
let test_par_memo_hits_compared () =
  let doc ~id ~hits ~misses =
    make_doc ~id
      ~metrics:
        [ ("counters.mdp.memo_hits", hits); ("counters.mdp.memo_misses", misses) ]
      ()
  in
  List.iter
    (fun id ->
      let baseline = doc ~id ~hits:10.0 ~misses:5.0 in
      let r = run_diff ~baseline ~current:baseline in
      Alcotest.(check int) (id ^ ": both counters compared") 2 r.metrics_compared;
      let r = run_diff ~baseline ~current:(doc ~id ~hits:11.0 ~misses:5.0) in
      match r.findings with
      | [ f ] ->
          Alcotest.(check string) (id ^ ": hits fail") "metrics.counters.mdp.memo_hits"
            f.subject;
          Alcotest.(check bool) (id ^ ": as a Fail") true (f.severity = Obs.Diff.Fail)
      | fs -> Alcotest.failf "%s: expected 1 finding, got %d" id (List.length fs))
    [ "PAR"; "E5" ]

let test_missing_section_warns () =
  let baseline =
    Obs.Json.(
      match make_doc ~id:"E1" () with
      | Obj fields ->
          (* a second section the current run will not have *)
          let extra =
            match make_doc ~id:"E5" ~title:"skipped" () with
            | Obj f -> (
                match List.assoc "experiments" f with
                | List l -> l
                | _ -> [])
            | _ -> []
          in
          Obj
            (List.map
               (function
                 | "experiments", List l -> ("experiments", List (l @ extra))
                 | kv -> kv)
               fields)
      | _ -> Alcotest.fail "doc is not an object")
  in
  let current = make_doc ~id:"E1" () in
  let r = run_diff ~baseline ~current in
  Alcotest.(check int) "missing section is Warn" 1 (count Obs.Diff.Warn r);
  Alcotest.(check int) "not a failure" 0 (Obs.Diff.exit_code r);
  (* the reverse direction: a section the baseline has never seen is Info *)
  let r = run_diff ~baseline:current ~current:baseline in
  Alcotest.(check int) "new section is Info" 1 (count Obs.Diff.Info r);
  Alcotest.(check int) "no warnings" 0 (count Obs.Diff.Warn r)

let test_row_set_changes () =
  let baseline =
    make_doc ~rows:[ ("kept", None, 1.0); ("removed", None, 2.0) ] ()
  in
  let current = make_doc ~rows:[ ("kept", None, 1.0); ("added", None, 3.0) ] () in
  let r = run_diff ~baseline ~current in
  let subjects sev =
    List.filter_map
      (fun (f : Obs.Diff.finding) ->
        if f.severity = sev then Some f.subject else None)
      r.findings
  in
  Alcotest.(check (list string)) "removed row warns" [ "removed" ]
    (subjects Obs.Diff.Warn);
  Alcotest.(check (list string)) "added row informs" [ "added" ]
    (subjects Obs.Diff.Info);
  Alcotest.(check int) "still exit 0" 0 (Obs.Diff.exit_code r)

(* A metric the current run no longer writes warns, as a missing row
   does; a metric the baseline never had is not compared. *)
let test_missing_metric_warns () =
  let baseline = make_doc ~metrics:[ ("states", 10.0); ("removed", 2.0) ] () in
  let current = make_doc ~metrics:[ ("states", 10.0); ("added", 3.0) ] () in
  let r = run_diff ~baseline ~current in
  (match r.findings with
  | [ f ] ->
      Alcotest.(check string) "names the metric" "metrics.removed" f.subject;
      Alcotest.(check bool) "as a Warn" true (f.severity = Obs.Diff.Warn)
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
  Alcotest.(check int) "one metric compared" 1 r.metrics_compared;
  Alcotest.(check int) "still exit 0" 0 (Obs.Diff.exit_code r)

let test_invalid_documents_rejected () =
  let good = make_doc () in
  let bogus = Obs.Json.Obj [ ("schema_version", Obs.Json.Int 999) ] in
  (match Obs.Diff.diff ~baseline:bogus ~current:good with
  | Error e ->
      Alcotest.(check bool) "names the baseline" true
        (String.length e > 9 && String.sub e 0 9 = "baseline:")
  | Ok _ -> Alcotest.fail "unversioned baseline accepted");
  match Obs.Diff.diff ~baseline:good ~current:Obs.Json.Null with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "null current accepted"

let test_nested_metrics_and_report_render () =
  (* a nested counters object compares per leaf, and the renderer names
     hard failures *)
  let with_counters steps =
    let doc = Obs.Results.create ~generated_by:"test suite" () in
    let s = Obs.Results.section doc ~id:"E1" ~title:"t" in
    Obs.Results.add_section_metrics s
      [
        ( "counters",
          Obs.Json.Obj
            [ ("sim.steps", Obs.Json.Int steps); ("sim.runs", Obs.Json.Int 5) ] );
      ];
    Obs.Results.to_json doc
  in
  let r = run_diff ~baseline:(with_counters 100) ~current:(with_counters 101) in
  Alcotest.(check int) "both counter leaves compared" 2 r.metrics_compared;
  (match r.findings with
  | [ f ] ->
      Alcotest.(check string) "the drifted leaf fails" "metrics.counters.sim.steps"
        f.subject;
      Alcotest.(check bool) "as a Fail" true (f.severity = Obs.Diff.Fail)
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
  let bad = make_doc ~rows:[ ("q", Some 0.5, 0.75) ] () in
  let r = run_diff ~baseline:bad ~current:bad in
  let rendered = Fmt.str "@[<v>%a@]" Obs.Diff.pp_report r in
  List.iter
    (fun needle ->
      let has =
        let nl = String.length needle and rl = String.length rendered in
        let rec go i = i + nl <= rl && (String.sub rendered i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (Fmt.str "report mentions %S" needle) true has)
    [ "REGRESSION"; "FAIL"; "q" ]

(* ---- committed baselines ------------------------------------------ *)

(* Every committed BENCH_*.json (the dune rule copies them next to the
   test directory) must stay loadable and self-diff clean, so narrowing
   the schema can never orphan a gate's baseline. *)
let test_committed_baselines () =
  let dir = Filename.parent_dir_name in
  let baselines =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 11
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  List.iter
    (fun gated ->
      Alcotest.(check bool) (gated ^ " is committed") true (List.mem gated baselines))
    [ "BENCH_2026-08-08b.json" ];
  List.iter
    (fun f ->
      match Obs.Json.read_file (Filename.concat dir f) with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok doc ->
          (match Obs.Results.validate doc with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s invalid: %s" f e);
          let r = run_diff ~baseline:doc ~current:doc in
          Alcotest.(check int) (f ^ ": self-diff has no Fail") 0 (count Obs.Diff.Fail r))
    baselines

let tests =
  [
    Alcotest.test_case "diff: self-diff is clean" `Quick test_self_diff_clean;
    Alcotest.test_case "diff: paper drift fails hard" `Quick test_paper_drift_fails;
    Alcotest.test_case "diff: measured drift fails hard" `Quick
      test_measured_drift_fails_hard;
    Alcotest.test_case "diff: no metric is exempt" `Quick test_no_metric_exempt;
    Alcotest.test_case "diff: PAR memo hits are compared" `Quick
      test_par_memo_hits_compared;
    Alcotest.test_case "diff: missing/new sections" `Quick test_missing_section_warns;
    Alcotest.test_case "diff: added/removed rows" `Quick test_row_set_changes;
    Alcotest.test_case "diff: missing metrics warn" `Quick test_missing_metric_warns;
    Alcotest.test_case "diff: invalid documents rejected" `Quick
      test_invalid_documents_rejected;
    Alcotest.test_case "diff: nested metrics, rendering" `Quick
      test_nested_metrics_and_report_render;
    Alcotest.test_case "diff: committed baselines load and self-diff" `Quick
      test_committed_baselines;
  ]
