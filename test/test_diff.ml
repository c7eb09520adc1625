(* Tests for the regression-diff layer: Obs.Diff severity policy,
   tolerances and opt-in gates, invalid documents, and the committed
   baselines. *)

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

let run_diff ?config ~baseline ~current () =
  match Obs.Diff.diff ?config ~baseline ~current () with
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
  let r = run_diff ~baseline:doc ~current:doc () in
  Alcotest.(check int) "no findings" 0 (List.length r.findings);
  Alcotest.(check int) "exit 0" 0 (Obs.Diff.exit_code r);
  Alcotest.(check int) "rows compared" 2 r.rows_compared;
  (* only the explicit list is exempt, so a timing key named like
     solve_seconds_k1 is compared too *)
  Alcotest.(check int) "metrics compared" 2 r.metrics_compared;
  Alcotest.(check int) "sections compared" 1 r.sections_compared

let test_paper_drift_fails () =
  (* paper drift is detected within the CURRENT document alone *)
  let bad = make_doc ~rows:[ ("exact value", Some 0.5, 0.5002) ] () in
  let r = run_diff ~baseline:bad ~current:bad () in
  Alcotest.(check int) "one hard failure" 1 (count Obs.Diff.Fail r);
  Alcotest.(check int) "exit 1" 1 (Obs.Diff.exit_code r);
  (* ... and tolerance is respected on both sides of the edge *)
  let within = make_doc ~rows:[ ("exact value", Some 0.5, 0.5 +. 5e-7) ] () in
  let r = run_diff ~baseline:within ~current:within () in
  Alcotest.(check int) "within tolerance" 0 (count Obs.Diff.Fail r)

let test_measured_drift_fails_hard () =
  let baseline = make_doc ~rows:[ ("exact value", None, 0.625) ] () in
  let current = make_doc ~rows:[ ("exact value", None, 0.6250001) ] () in
  let r = run_diff ~baseline ~current () in
  Alcotest.(check int) "deterministic drift is Fail" 1 (count Obs.Diff.Fail r);
  Alcotest.(check int) "exit 1" 1 (Obs.Diff.exit_code r)

(* PAR's memo hits and claim misses move with the worker schedule; its
   memo misses and every other section's hits stay hard. *)
let test_par_memo_hits_not_compared () =
  let doc ?(claim_misses = 0.0) ~id ~hits ~misses () =
    make_doc ~id
      ~metrics:
        [
          ("counters.mdp.memo_hits", hits);
          ("counters.mdp.memo_misses", misses);
          ("counters.mdp.claim_misses", claim_misses);
        ]
      ()
  in
  let r =
    run_diff ~baseline:(doc ~id:"PAR" ~hits:2_624_828.0 ~misses:637_840.0 ())
      ~current:
        (doc ~claim_misses:41.0 ~id:"PAR" ~hits:2_804_192.0 ~misses:637_840.0 ())
      ()
  in
  Alcotest.(check int) "PAR hits drift is no finding" 0 (List.length r.findings);
  Alcotest.(check int) "only PAR memo misses compared" 1 r.metrics_compared;
  let r =
    run_diff ~baseline:(doc ~id:"PAR" ~hits:1.0 ~misses:637_840.0 ())
      ~current:(doc ~id:"PAR" ~hits:1.0 ~misses:637_796.0 ())
      ()
  in
  Alcotest.(check int) "PAR misses drift fails" 1 (count Obs.Diff.Fail r);
  let r =
    run_diff ~baseline:(doc ~id:"E5" ~hits:10.0 ~misses:5.0 ())
      ~current:(doc ~id:"E5" ~hits:11.0 ~misses:5.0 ())
      ()
  in
  Alcotest.(check int) "hits drift elsewhere fails" 1 (count Obs.Diff.Fail r)

let test_timing_keys_not_compared () =
  (* a 10x change in a gate's wall time is no finding at all: perf/ judges
     time *)
  let doc ~seconds ~states =
    make_doc ~id:"PAR" ~metrics:[ ("solve_seq_seconds", seconds); ("states", states) ] ()
  in
  let baseline = doc ~seconds:1.0 ~states:1000.0 in
  let r = run_diff ~baseline ~current:(doc ~seconds:10.0 ~states:1000.0) () in
  Alcotest.(check int) "no findings" 0 (List.length r.findings);
  Alcotest.(check int) "exit 0" 0 (Obs.Diff.exit_code r);
  Alcotest.(check int) "only the hard key compared" 1 r.metrics_compared;
  (* ... while a hard key in the same document still fails *)
  let r = run_diff ~baseline ~current:(doc ~seconds:10.0 ~states:1001.0) () in
  (match r.findings with
  | [ f ] ->
      Alcotest.(check string) "the hard key fails" "metrics.states" f.subject;
      Alcotest.(check bool) "as a Fail" true (f.severity = Obs.Diff.Fail)
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
  Alcotest.(check int) "exit 1" 1 (Obs.Diff.exit_code r);
  (* the exemption is by exact key, not by name: a timing key off the
     list fails loudly instead of slipping past *)
  let doc seconds = make_doc ~id:"PAR" ~metrics:[ ("mc_seq_seconds", seconds) ] () in
  let r = run_diff ~baseline:(doc 1.0) ~current:(doc 10.0) () in
  Alcotest.(check int) "unlisted timing key fails" 1 (count Obs.Diff.Fail r)

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
  let r = run_diff ~baseline ~current () in
  Alcotest.(check int) "missing section is Warn" 1 (count Obs.Diff.Warn r);
  Alcotest.(check int) "not a failure" 0 (Obs.Diff.exit_code r);
  (* the reverse direction: a section the baseline has never seen is Info *)
  let r = run_diff ~baseline:current ~current:baseline () in
  Alcotest.(check int) "new section is Info" 1 (count Obs.Diff.Info r);
  Alcotest.(check int) "no warnings" 0 (count Obs.Diff.Warn r)

let test_row_set_changes () =
  let baseline =
    make_doc ~rows:[ ("kept", None, 1.0); ("removed", None, 2.0) ] ()
  in
  let current = make_doc ~rows:[ ("kept", None, 1.0); ("added", None, 3.0) ] () in
  let r = run_diff ~baseline ~current () in
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
  let r = run_diff ~baseline ~current () in
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
  (match Obs.Diff.diff ~baseline:bogus ~current:good () with
  | Error e ->
      Alcotest.(check bool) "names the baseline" true
        (String.length e > 9 && String.sub e 0 9 = "baseline:")
  | Ok _ -> Alcotest.fail "unversioned baseline accepted");
  match Obs.Diff.diff ~baseline:good ~current:Obs.Json.Null () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "null current accepted"

let test_nested_metrics_and_report_render () =
  (* nested gc/counters objects compare per leaf, and the renderer names
     hard failures *)
  let with_gc words =
    let doc = Obs.Results.create ~generated_by:"test suite" () in
    let s = Obs.Results.section doc ~id:"E1" ~title:"t" in
    Obs.Results.add_section_metrics s
      [
        ( "counters",
          Obs.Json.Obj [ ("sim.steps", Obs.Json.Int 100) ] );
        ("gc", Obs.Json.Obj [ ("minor_words", Obs.Json.Float words) ]);
      ];
    Obs.Results.to_json doc
  in
  let r = run_diff ~baseline:(with_gc 1e6) ~current:(with_gc 1e8) () in
  (* gc.minor_words is machine-dependent: a 100x change is not compared,
     while the counters.sim.steps leaf is *)
  Alcotest.(check int) "gc drift is no finding" 0 (List.length r.findings);
  Alcotest.(check int) "only the counter leaf compared" 1 r.metrics_compared;
  let bad = make_doc ~rows:[ ("q", Some 0.5, 0.75) ] () in
  let r = run_diff ~baseline:bad ~current:bad () in
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

(* The --min-speedup gate reads only the CURRENT document's PAR section:
   at or above the floor it passes with an Info; below the floor, with
   the section or a timing metric missing, or on a run with more jobs
   than the host's recommended domain count, it fails hard. *)
let test_min_speedup_gate () =
  let gated floor = { Obs.Diff.default_config with min_speedup = Some floor } in
  let par ?(jobs = 4.0) ?(domains = Some 4.0) ?(seq = Some 2.0) ?(par = Some 1.0) () =
    let opt k = function Some v -> [ (k, v) ] | None -> [] in
    make_doc ~id:"PAR" ~title:"parallel engine"
      ~metrics:
        ([ ("jobs", jobs) ]
        @ opt "recommended_domain_count" domains
        @ opt "solve_seq_seconds" seq
        @ opt "solve_par_seconds" par)
      ()
  in
  let speedup_findings (r : Obs.Diff.report) =
    List.filter (fun (f : Obs.Diff.finding) -> f.subject = "solve_speedup") r.findings
  in
  let verdict ~floor doc =
    let r = run_diff ~config:(gated floor) ~baseline:doc ~current:doc () in
    match speedup_findings r with
    | [ f ] -> (f, Obs.Diff.exit_code r)
    | fs -> Alcotest.failf "expected 1 speedup finding, got %d" (List.length fs)
  in
  let mentions needle (f : Obs.Diff.finding) =
    let n = String.length needle and m = String.length f.detail in
    let rec go i = i + n <= m && (String.sub f.detail i n = needle || go (i + 1)) in
    go 0
  in
  let passes name ~floor doc =
    let f, rc = verdict ~floor doc in
    Alcotest.(check bool) (name ^ ": Info") true (f.severity = Obs.Diff.Info);
    Alcotest.(check int) (name ^ ": exit 0") 0 rc
  in
  let fails name ~floor doc =
    let f, rc = verdict ~floor doc in
    Alcotest.(check bool) (name ^ ": Fail") true (f.severity = Obs.Diff.Fail);
    Alcotest.(check int) (name ^ ": exit 1") 1 rc;
    f
  in
  passes "2x over a 1.5x floor" ~floor:1.5 (par ());
  passes "exactly at the floor" ~floor:2.0 (par ());
  ignore (fails "below the floor" ~floor:2.5 (par ()));
  ignore (fails "no sequential timing" ~floor:1.0 (par ~seq:None ()));
  ignore (fails "no parallel timing" ~floor:1.0 (par ~par:None ()));
  let f = fails "no PAR section" ~floor:1.0 (make_doc ~id:"E1" ()) in
  Alcotest.(check bool) "names the section" true (mentions "PAR" f);
  (* a one-domain host running 4 jobs: the ratio measures the host *)
  let f =
    fails "oversubscribed" ~floor:1.0 (par ~domains:(Some 1.0) ~seq:(Some 9.0) ())
  in
  Alcotest.(check bool) "names the job count" true (mentions "4 jobs" f);
  Alcotest.(check bool) "names the domain count" true
    (mentions "recommended_domain_count 1" f);
  let f = fails "domain count absent" ~floor:1.0 (par ~domains:None ()) in
  Alcotest.(check bool) "names the missing count" true
    (mentions "recommended_domain_count" f);
  (* ungated, none of this is compared *)
  let r = run_diff ~baseline:(par ()) ~current:(par ~domains:(Some 1.0) ()) () in
  Alcotest.(check int) "ungated: no speedup finding" 0
    (List.length (speedup_findings r))

(* The --max-alloc-ratio gate: per-step allocation past the ceiling is a
   hard Fail, within it an Info; steps normalize away trial-count
   changes; a gated run with no GC data anywhere fails loudly. *)
let alloc_doc ?steps ~minor_words () =
  let doc = Obs.Results.create ~generated_by:"test suite" () in
  let s = Obs.Results.section doc ~id:"E9" ~title:"rounds" in
  Obs.Results.add_section_metrics s
    ([ ("gc", Obs.Json.Obj [ ("minor_words", Obs.Json.Float minor_words) ]) ]
    @
    match steps with
    | Some n -> [ ("counters", Obs.Json.Obj [ ("sim.steps", Obs.Json.Int n) ]) ]
    | None -> []);
  Obs.Results.to_json doc

let test_max_alloc_ratio_gate () =
  let gated ratio = { Obs.Diff.default_config with max_alloc_ratio = Some ratio } in
  let alloc_findings (r : Obs.Diff.report) =
    List.filter (fun (f : Obs.Diff.finding) -> f.subject = "alloc_ratio") r.findings
  in
  (* 1000 -> 900 words over the same steps: well within 1.5x, Info only *)
  let baseline = alloc_doc ~steps:50 ~minor_words:1000.0 () in
  let better = alloc_doc ~steps:50 ~minor_words:900.0 () in
  let r = run_diff ~config:(gated 1.5) ~baseline ~current:better () in
  (match alloc_findings r with
  | [ f ] -> Alcotest.(check bool) "within ceiling is Info" true (f.severity = Obs.Diff.Info)
  | fs -> Alcotest.failf "expected 1 alloc finding, got %d" (List.length fs));
  Alcotest.(check int) "exit 0" 0 (Obs.Diff.exit_code r);
  (* 2x the per-step allocation: Fail past a 1.5x ceiling *)
  let worse = alloc_doc ~steps:50 ~minor_words:2000.0 () in
  let r = run_diff ~config:(gated 1.5) ~baseline ~current:worse () in
  (match alloc_findings r with
  | [ f ] -> Alcotest.(check bool) "past ceiling is Fail" true (f.severity = Obs.Diff.Fail)
  | fs -> Alcotest.failf "expected 1 alloc finding, got %d" (List.length fs));
  Alcotest.(check int) "exit 1" 1 (Obs.Diff.exit_code r);
  (* same total words over 2x the steps: per-step allocation halved, so a
     trial-count change does not read as an allocation change *)
  let more_steps = alloc_doc ~steps:100 ~minor_words:1000.0 () in
  let r = run_diff ~config:(gated 1.01) ~baseline ~current:more_steps () in
  (* (the sim.steps metric itself drifts hard here — only the gate's own
     verdict is under test) *)
  Alcotest.(check int) "per-step normalization passes" 0
    (List.length
       (List.filter (fun (f : Obs.Diff.finding) -> f.severity = Obs.Diff.Fail)
          (alloc_findings r)));
  (* no steps counter on either side: raw minor words compare *)
  let raw_base = alloc_doc ~minor_words:1000.0 () in
  let raw_worse = alloc_doc ~minor_words:1600.0 () in
  let r = run_diff ~config:(gated 1.5) ~baseline:raw_base ~current:raw_worse () in
  Alcotest.(check int) "raw-words fallback fails past ceiling" 1 (count Obs.Diff.Fail r);
  (* ungated, the same drift is not compared *)
  let r = run_diff ~baseline ~current:worse () in
  Alcotest.(check int) "ungated drift is no finding" 0 (List.length r.findings);
  (* a gated run with no GC data anywhere fails loudly instead of
     silently skipping *)
  let dry = make_doc ~metrics:[ ("states", 10.0) ] () in
  let r = run_diff ~config:(gated 1.5) ~baseline:dry ~current:dry () in
  (match alloc_findings r with
  | [ f ] -> Alcotest.(check bool) "missing GC data is Fail" true (f.severity = Obs.Diff.Fail)
  | fs -> Alcotest.failf "expected 1 alloc finding, got %d" (List.length fs));
  Alcotest.(check int) "exit 1 on missing data" 1 (Obs.Diff.exit_code r)

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
    [
      "BENCH_2026-08-08b.json";
      "BENCH_2026-08-08b-par4.json";
      "BENCH_2026-08-08-store.json";
    ];
  List.iter
    (fun f ->
      match Obs.Json.read_file (Filename.concat dir f) with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok doc ->
          (match Obs.Results.validate doc with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s invalid: %s" f e);
          let r = run_diff ~baseline:doc ~current:doc () in
          Alcotest.(check int) (f ^ ": self-diff has no Fail") 0 (count Obs.Diff.Fail r))
    baselines

let tests =
  [
    Alcotest.test_case "diff: self-diff is clean" `Quick test_self_diff_clean;
    Alcotest.test_case "diff: paper drift fails hard" `Quick test_paper_drift_fails;
    Alcotest.test_case "diff: measured drift fails hard" `Quick
      test_measured_drift_fails_hard;
    Alcotest.test_case "diff: timing keys are not compared" `Quick
      test_timing_keys_not_compared;
    Alcotest.test_case "diff: PAR memo hits are not compared" `Quick
      test_par_memo_hits_not_compared;
    Alcotest.test_case "diff: missing/new sections" `Quick test_missing_section_warns;
    Alcotest.test_case "diff: added/removed rows" `Quick test_row_set_changes;
    Alcotest.test_case "diff: missing metrics warn" `Quick test_missing_metric_warns;
    Alcotest.test_case "diff: invalid documents rejected" `Quick
      test_invalid_documents_rejected;
    Alcotest.test_case "diff: nested metrics, rendering" `Quick
      test_nested_metrics_and_report_render;
    Alcotest.test_case "diff: min-speedup gate" `Quick test_min_speedup_gate;
    Alcotest.test_case "diff: max-alloc-ratio gate" `Quick test_max_alloc_ratio_gate;
    Alcotest.test_case "diff: committed baselines load and self-diff" `Quick
      test_committed_baselines;
  ]
