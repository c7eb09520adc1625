(* Tests for the observability layer: metrics registry semantics, the JSON
   printer/parser round-trip, structured trace export (JSONL and Chrome
   trace), solver work statistics, and the results-document schema. *)

open Util

(* ---- metrics -------------------------------------------------------- *)

let test_counter_semantics () =
  let c = Obs.Metrics.counter ~help:"test counter" "test.obs.c1" in
  let before = Obs.Metrics.counter_value c in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "incr + add" (before + 5) (Obs.Metrics.counter_value c);
  (* registration is idempotent by name: same cell comes back *)
  let c' = Obs.Metrics.counter "test.obs.c1" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "same cell" (before + 6) (Obs.Metrics.counter_value c);
  Alcotest.(check (option int))
    "find_counter sees it" (Some (before + 6))
    (Obs.Metrics.find_counter "test.obs.c1");
  (* a name cannot change kind *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Obs.Metrics: \"test.obs.c1\" already registered as a counter")
    (fun () -> ignore (Obs.Metrics.gauge "test.obs.c1"))

let test_gauge_semantics () =
  let g = Obs.Metrics.gauge "test.obs.g1" in
  Obs.Metrics.set_gauge g 3.0;
  Obs.Metrics.max_gauge g 1.0;
  Alcotest.(check (float 0.0)) "max keeps high-water" 3.0 (Obs.Metrics.gauge_value g);
  Obs.Metrics.max_gauge g 7.5;
  Alcotest.(check (float 0.0)) "max raises" 7.5 (Obs.Metrics.gauge_value g)

let test_histogram_semantics () =
  let h = Obs.Metrics.histogram ~buckets:[ 1.0; 10.0; 100.0 ] "test.obs.h1" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 5.0; 50.0; 500.0; 2.0 ];
  let s = Obs.Metrics.histogram_summary h in
  Alcotest.(check int) "count" 5 s.count;
  Alcotest.(check (float 1e-9)) "sum" 557.5 s.sum;
  Alcotest.(check (float 0.0)) "min" 0.5 s.min;
  Alcotest.(check (float 0.0)) "max" 500.0 s.max;
  (* cumulative counts over the non-empty buckets, +inf last *)
  List.iter
    (fun (ub, expect) ->
      match List.assoc_opt ub s.buckets with
      | Some n -> Alcotest.(check int) (Fmt.str "bucket <= %g" ub) expect n
      | None -> Alcotest.failf "bucket %g missing" ub)
    [ (1.0, 1); (10.0, 3); (100.0, 4); (infinity, 5) ]

let test_histogram_percentiles () =
  let h = Obs.Metrics.histogram ~buckets:[ 1.0; 10.0; 100.0 ] "test.obs.h2" in
  (* empty histogram: percentiles are nan, and the snapshot renders them
     (via the JSON printer's non-finite rule) as null *)
  let s0 = Obs.Metrics.histogram_summary h in
  Alcotest.(check bool) "empty p50 is nan" true (Float.is_nan s0.p50);
  List.iter (Obs.Metrics.observe h) [ 0.5; 5.0; 50.0; 500.0; 2.0 ];
  let s = Obs.Metrics.histogram_summary h in
  (* counts per bucket: <=1 -> 1, <=10 -> 2, <=100 -> 1, overflow -> 1.
     p50: rank 2.5 interpolates inside (1, 10]: 1 + 9 * 1.5/2 = 7.75.
     p90/p99: rank 4.5/4.95 inside the overflow bucket (100, vmax=500]. *)
  Alcotest.(check (float 1e-9)) "p50 interpolated" 7.75 s.p50;
  Alcotest.(check (float 1e-9)) "p90 in overflow bucket" 300.0 s.p90;
  Alcotest.(check (float 1e-9)) "p99 in overflow bucket" 480.0 s.p99;
  (* one observation: every percentile collapses to it (clamped to min/max) *)
  let h1 = Obs.Metrics.histogram ~buckets:[ 1.0; 10.0 ] "test.obs.h3" in
  Obs.Metrics.observe h1 3.0;
  let s1 = Obs.Metrics.histogram_summary h1 in
  List.iter
    (fun (name, v) -> Alcotest.(check (float 1e-9)) name 3.0 v)
    [ ("single p50", s1.p50); ("single p90", s1.p90); ("single p99", s1.p99) ];
  (* percentiles are monotone in q and bounded by the observed range *)
  Alcotest.(check bool) "p50 <= p90 <= p99" true (s.p50 <= s.p90 && s.p90 <= s.p99);
  Alcotest.(check bool) "within [min, max]" true (s.min <= s.p50 && s.p99 <= s.max)

(* Regression: one observation must report itself as every percentile
   even when it lands in the overflow bucket or exactly on a bucket
   bound, where the interpolation path (rather than the min/max clamp)
   used to be the only thing producing the answer. *)
let test_histogram_single_sample () =
  List.iter
    (fun v ->
      let name = Fmt.str "test.obs.single_%h" v in
      let h = Obs.Metrics.histogram ~buckets:[ 1.0; 10.0 ] name in
      Obs.Metrics.observe h v;
      let s = Obs.Metrics.histogram_summary h in
      Alcotest.(check int) "count" 1 s.count;
      List.iter
        (fun (which, got) ->
          Alcotest.(check (float 0.0)) (Fmt.str "%s of single %g" which v) v got)
        [ ("p50", s.p50); ("p90", s.p90); ("p99", s.p99); ("min", s.min); ("max", s.max) ])
    [ 0.37 (* interior *); 10.0 (* exact bound *); 250.0 (* overflow bucket *) ]

let test_snapshot_shape_and_reset () =
  let c = Obs.Metrics.counter "test.obs.reset_me" in
  Obs.Metrics.add c 41;
  (match Obs.Metrics.snapshot () with
  | Obs.Json.Obj fields ->
      List.iter
        (fun k ->
          match List.assoc_opt k fields with
          | Some (Obs.Json.Obj _) -> ()
          | _ -> Alcotest.failf "snapshot missing object %S" k)
        [ "counters"; "gauges"; "histograms" ]
  | _ -> Alcotest.fail "snapshot is not an object");
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.counter_value c)

(* ---- json ----------------------------------------------------------- *)

let test_json_round_trip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("s", String "a \"quoted\"\nline\twith \\ escapes");
          ("i", Int (-42));
          ("f", Float 0.125);
          ("b", Bool true);
          ("n", Null);
          ("l", List [ Int 1; Float 2.5; String "x"; List []; Obj [] ]);
        ])
  in
  (match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact round-trip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* the indented printer parses back too *)
  match Obs.Json.of_string (Fmt.str "%a" Obs.Json.pp v) with
  | Ok v' -> Alcotest.(check bool) "pretty round-trip" true (v = v')
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "truex"; "1 2" ]

(* Regression: non-finite floats must render as RFC-legal null, in both
   printers, and a results document carrying one must still validate after
   a round-trip (the nan becomes Null, which the schema accepts wherever a
   number is optional). *)
let test_json_non_finite () =
  List.iter
    (fun v ->
      Alcotest.(check string)
        (Fmt.str "compact %h" v)
        "null"
        (Obs.Json.to_string (Obs.Json.Float v));
      Alcotest.(check string)
        (Fmt.str "pretty %h" v)
        "null"
        (Fmt.str "%a" Obs.Json.pp (Obs.Json.Float v)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* nested: the list/object printers hit the same code path *)
  (match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.List [ Obs.Json.Float Float.nan ])) with
  | Ok (Obs.Json.List [ Obs.Json.Null ]) -> ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Obs.Json.to_string j)
  | Error e -> Alcotest.failf "nested nan did not round-trip: %s" e);
  let doc = Obs.Results.create ~generated_by:"test suite" () in
  let s = Obs.Results.section doc ~id:"E0" ~title:"non-finite" in
  Obs.Results.row s ~paper_value:0.5 ~measured_value:Float.nan
    ~quantity:"states/sec on an instant solve" ~paper:"1/2" ~measured:"nan" ();
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Results.to_json doc)) with
  | Error e -> Alcotest.failf "doc with nan did not parse: %s" e
  | Ok j -> (
      match Obs.Results.validate j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "null measured_value rejected: %s" e)

(* ---- trace export --------------------------------------------------- *)

let weakener_trace () =
  let config = Programs.Weakener.abd_config () in
  let t = Sim.Runtime.create config (Sim.Runtime.Gen (Rng.of_int 3)) in
  (match Sim.Runtime.run t ~max_steps:100_000 Adversary.Schedulers.eager_delivery with
  | Sim.Runtime.Completed -> ()
  | _ -> Alcotest.fail "weakener run did not complete");
  Sim.Runtime.trace t

let test_jsonl_round_trip () =
  let tr = weakener_trace () in
  let lines =
    String.split_on_char '\n' (Sim.Trace_export.to_jsonl tr)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per entry"
    (List.length (Sim.Trace.entries tr))
    (List.length lines);
  List.iteri
    (fun i line ->
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "line %d invalid: %s" i e
      | Ok json ->
          Alcotest.(check (option int))
            (Fmt.str "seq of line %d" i)
            (Some i)
            (Option.bind (Obs.Json.member "seq" json) Obs.Json.to_int_opt);
          (match Option.bind (Obs.Json.member "type" json) Obs.Json.to_string_opt with
          | Some _ -> ()
          | None -> Alcotest.failf "line %d has no type" i))
    lines

let test_chrome_round_trip () =
  let tr = weakener_trace () in
  let events = Sim.Trace_export.chrome_events tr in
  let doc = Obs.Chrome_trace.to_json events in
  (* the document survives our own parser *)
  (match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Error e -> Alcotest.failf "chrome doc invalid: %s" e
  | Ok json -> (
      match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list_opt with
      | None -> Alcotest.fail "no traceEvents array"
      | Some evs ->
          Alcotest.(check int) "all events rendered" (List.length events)
            (List.length evs)));
  (* begin/end slices balance per lane, so Perfetto can nest them *)
  let opens = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.Chrome_trace.event) ->
      let d =
        match e.phase with Obs.Chrome_trace.Begin -> 1 | End -> -1 | _ -> 0
      in
      let cur = Option.value ~default:0 (Hashtbl.find_opt opens e.tid) in
      Hashtbl.replace opens e.tid (cur + d);
      Alcotest.(check bool) "never closes an unopened slice" true (cur + d >= 0))
    events;
  Hashtbl.iter
    (fun tid depth ->
      Alcotest.(check int) (Fmt.str "lane %d balanced" tid) 0 depth)
    opens;
  (* metadata names every lane that carries events *)
  let named =
    List.filter_map
      (fun (e : Obs.Chrome_trace.event) ->
        if e.name = "thread_name" then Some e.tid else None)
      events
  in
  List.iter
    (fun (e : Obs.Chrome_trace.event) ->
      match e.phase with
      | Obs.Chrome_trace.Metadata -> ()
      | _ ->
          Alcotest.(check bool)
            (Fmt.str "lane %d named" e.tid)
            true (List.mem e.tid named))
    events

let test_trace_accessors_cached () =
  let tr = weakener_trace () in
  (* the forward list is cached: same physical list on repeated access *)
  Alcotest.(check bool) "entries cached" true
    (Sim.Trace.entries tr == Sim.Trace.entries tr);
  let sent =
    List.length
      (List.filter
         (function Sim.Trace.Sent _ -> true | _ -> false)
         (Sim.Trace.entries tr))
  in
  Alcotest.(check int) "count_messages = #Sent" sent (Sim.Trace.count_messages tr)

(* ---- spans ---------------------------------------------------------- *)

let test_spans () =
  Obs.Span.reset ();
  let v, dt = Obs.Span.time "test.span" (fun () -> 6 * 7) in
  Alcotest.(check int) "result passed through" 42 v;
  Alcotest.(check bool) "duration non-negative" true (dt >= 0.0);
  (match Obs.Span.spans () with
  | [ s ] ->
      Alcotest.(check string) "span name" "test.span" s.Obs.Span.name;
      Alcotest.(check bool) "span duration" true (s.Obs.Span.dur_us >= 0.0)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  Alcotest.(check int) "one chrome slice" 1
    (List.length
       (List.filter
          (fun (e : Obs.Chrome_trace.event) ->
            match e.phase with Obs.Chrome_trace.Complete _ -> true | _ -> false)
          (Obs.Span.chrome_events ())));
  Obs.Span.reset ()

(* ---- solver stats --------------------------------------------------- *)

(* A tiny acyclic game: countdown from n, two moves per state (one
   deterministic, one a fair chance step that may shortcut to 0). *)
module Tiny = struct
  type state = int
  type move = Walk | Gamble

  let moves s = if s = 0 then [] else [ Walk; Gamble ]

  type transition = Det of state | Chance of (float * state) list

  let apply s = function
    | Walk -> Det (s - 1)
    | Gamble -> Chance [ (0.5, s - 1); (0.5, 0) ]

  let terminal_value _ = 1.0
  let encode = string_of_int
  let encode_into s b = Mdp.Key.raw b (encode s)
  let pp_move ppf m = Fmt.string ppf (match m with Walk -> "walk" | Gamble -> "gamble")
end

module Tiny_solver = Mdp.Solver.Make (Tiny)

let test_solver_stats_memoization () =
  Tiny_solver.reset ();
  let v = Tiny_solver.value 8 in
  Alcotest.(check (float 1e-9)) "value" 1.0 v;
  let s1 = Tiny_solver.stats () in
  Alcotest.(check int) "states 0..8 memoized" 9 s1.states;
  Alcotest.(check int) "one miss per state" 9 s1.memo_misses;
  Alcotest.(check bool) "revisits hit the memo" true (s1.memo_hits > 0);
  Alcotest.(check int) "depth reached the countdown" 8 s1.max_depth;
  (* solving the same root again is a single memo hit: no new work *)
  let _ = Tiny_solver.value 8 in
  let s2 = Tiny_solver.stats () in
  Alcotest.(check int) "no new states" s1.states s2.states;
  Alcotest.(check int) "no new misses" s1.memo_misses s2.memo_misses;
  Alcotest.(check int) "exactly one more hit" (s1.memo_hits + 1) s2.memo_hits;
  Alcotest.(check bool) "hit rate grew" true
    (Mdp.Solver.hit_rate s2 > Mdp.Solver.hit_rate s1);
  (* best_move exists away from terminals and is optimal-value-attaining *)
  (match Tiny_solver.best_move 3 with
  | Some _ -> ()
  | None -> Alcotest.fail "no best move at 3");
  Tiny_solver.reset ();
  let s3 = Tiny_solver.stats () in
  Alcotest.(check int) "reset zeroes stats" 0
    (s3.states + s3.memo_hits + s3.memo_misses + s3.max_depth)

let test_solver_progress_hook () =
  Tiny_solver.reset ();
  let ticks : Mdp.Solver.progress list ref = ref [] in
  Tiny_solver.set_progress ~interval_states:3 (Some (fun p -> ticks := p :: !ticks));
  let _ = Tiny_solver.value 20 in
  let ticks_during = List.rev !ticks in
  (* 21 distinct states (20..0), one miss each: the hook fires at every
     multiple of 3 misses — seven times, from inside the recursion *)
  Alcotest.(check int) "fires every interval" 7 (List.length ticks_during);
  List.iteri
    (fun i (p : Mdp.Solver.progress) ->
      Alcotest.(check int)
        (Fmt.str "tick %d at a 3-state boundary" i)
        (3 * (i + 1))
        p.stats.memo_misses;
      Alcotest.(check bool) "elapsed non-negative" true (p.elapsed_s >= 0.0);
      Alcotest.(check bool)
        "rate consistent with elapsed" true
        (p.states_per_sec >= 0.0 && Float.is_finite p.states_per_sec))
    ticks_during;
  (* progress never fires outside a solve: re-solving the memoized root is
     pure hits, and stats/best_move queries do not tick *)
  let n = List.length !ticks in
  let _ = Tiny_solver.value 20 in
  let _ = Tiny_solver.best_move 5 in
  let _ = Tiny_solver.stats () in
  Alcotest.(check int) "no ticks after the solve" n (List.length !ticks);
  (* None uninstalls the hook *)
  Tiny_solver.set_progress None;
  Tiny_solver.reset ();
  let _ = Tiny_solver.value 9 in
  Alcotest.(check int) "uninstalled hook is silent" n (List.length !ticks);
  Tiny_solver.reset ()

(* ---- results document ----------------------------------------------- *)

let test_results_schema () =
  let doc = Obs.Results.create ~generated_by:"test suite" () in
  let s = Obs.Results.section doc ~id:"E0" ~title:"schema self-test" in
  Obs.Results.row s ~quantity:"prose only" ~paper:"1/2" ~measured:"0.5003" ();
  Obs.Results.row s ~paper_value:0.5 ~measured_value:0.5003 ~quantity:"numeric"
    ~paper:"1/2" ~measured:"0.5003" ();
  Obs.Results.add_section_metrics s [ ("states", Obs.Json.Int 12) ];
  let json = Obs.Results.to_json doc in
  (match Obs.Results.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid doc rejected: %s" e);
  (* the serialized form validates too *)
  (match Obs.Json.of_string (Obs.Json.to_string json) with
  | Ok j -> (
      match Obs.Results.validate j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "round-tripped doc rejected: %s" e)
  | Error e -> Alcotest.failf "doc did not parse: %s" e);
  (* broken documents are named, not accepted *)
  List.iter
    (fun bad ->
      match Obs.Results.validate bad with
      | Ok () -> Alcotest.fail "invalid doc accepted"
      | Error _ -> ())
    [
      Obs.Json.Obj [];
      Obs.Json.Obj [ ("schema_version", Obs.Json.Int 999) ];
      Obs.Json.Null;
    ]

(* The committed BENCH_*.json baselines are v5 and v6, so exactly those
   two versions validate: older documents and unknown future versions
   are rejected. *)
let test_schema_version_compat () =
  Alcotest.(check int) "current schema version" 6 Obs.Results.schema_version;
  let minimal_doc v =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int v);
        ("generated_by", Obs.Json.String "test suite");
        ( "experiments",
          Obs.Json.List
            [
              Obs.Json.Obj
                [
                  ("id", Obs.Json.String "E1");
                  ("title", Obs.Json.String "compat");
                  ("rows", Obs.Json.List []);
                  ("metrics", Obs.Json.Obj []);
                ];
            ] );
        ( "metrics",
          Obs.Json.Obj
            [
              ("counters", Obs.Json.Obj []);
              ("gauges", Obs.Json.Obj []);
              ("histograms", Obs.Json.Obj []);
            ] );
        ("spans", Obs.Json.List []);
      ]
  in
  List.iter
    (fun v ->
      match Obs.Results.validate (minimal_doc v) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "v%d document rejected: %s" v e)
    [ 5; 6 ];
  List.iter
    (fun v ->
      match Obs.Results.validate (minimal_doc v) with
      | Ok () -> Alcotest.failf "v%d document accepted" v
      | Error _ -> ())
    [ 1; 2; 3; 4; 999 ]

(* ---- log levels ----------------------------------------------------- *)

let test_log_levels () =
  List.iter
    (fun s ->
      match Obs.Log.level_of_string s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%S rejected: %s" s e)
    Obs.Log.verbosity_values;
  (match Obs.Log.level_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus level accepted"
  | Error _ -> ());
  match Obs.Log.set_verbosity "quiet" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "quiet rejected: %s" e

let tests =
  [
    Alcotest.test_case "metrics: counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "metrics: gauge semantics" `Quick test_gauge_semantics;
    Alcotest.test_case "metrics: histogram semantics" `Quick test_histogram_semantics;
    Alcotest.test_case "metrics: histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "metrics: single-sample percentiles" `Quick
      test_histogram_single_sample;
    Alcotest.test_case "metrics: snapshot shape, reset" `Quick
      test_snapshot_shape_and_reset;
    Alcotest.test_case "json: round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json: parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json: non-finite floats render null" `Quick
      test_json_non_finite;
    Alcotest.test_case "trace export: JSONL round-trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "trace export: Chrome trace" `Quick test_chrome_round_trip;
    Alcotest.test_case "trace: cached accessors" `Quick test_trace_accessors_cached;
    Alcotest.test_case "spans: timing and export" `Quick test_spans;
    Alcotest.test_case "solver: memo-hit statistics" `Quick
      test_solver_stats_memoization;
    Alcotest.test_case "solver: progress hook" `Quick test_solver_progress_hook;
    Alcotest.test_case "results: schema round-trip" `Quick test_results_schema;
    Alcotest.test_case "results: only v5 and v6 valid" `Quick test_schema_version_compat;
    Alcotest.test_case "log: verbosity levels" `Quick test_log_levels;
  ]
