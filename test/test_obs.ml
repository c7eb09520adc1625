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
    (Obs.Metrics.find_counter "test.obs.c1")

(* Counters are bumped from pool workers (the simulator's [sim.*] under
   parallel Monte-Carlo): no increment may be lost. *)
let test_counter_across_domains () =
  let c = Obs.Metrics.counter "test.obs.c_domains" in
  let before = Obs.Metrics.counter_value c in
  let bump () =
    for _ = 1 to 100_000 do
      Obs.Metrics.incr c
    done
  in
  let others = List.init 3 (fun _ -> Domain.spawn bump) in
  bump ();
  List.iter Domain.join others;
  Alcotest.(check int) "4 x 100k increments" 400_000
    (Obs.Metrics.counter_value c - before);
  let runs () = Option.value ~default:0 (Obs.Metrics.find_counter "sim.runs") in
  let before = runs () in
  let trials = 500 in
  ignore
    (Adversary.Monte_carlo.estimate ~jobs:4 ~trials ~seed:7
       ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
       Programs.Weakener.atomic_config);
  Alcotest.(check int) "4-job Monte-Carlo counts every run" trials
    (runs () - before)

(* The snapshot is the counters object alone, holding every counter's
   current value. *)
let test_snapshot_shape () =
  let c = Obs.Metrics.counter "test.obs.snapshot_me" in
  Obs.Metrics.add c 41;
  match Obs.Metrics.snapshot () with
  | Obs.Json.Obj [ ("counters", (Obs.Json.Obj _ as counters)) ] ->
      Alcotest.(check (option int))
        "counter value" (Some (Obs.Metrics.counter_value c))
        (Option.bind (Obs.Json.member "test.obs.snapshot_me" counters)
           Obs.Json.to_int_opt)
  | _ -> Alcotest.fail "snapshot is not {\"counters\": {..}}"

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
  (* perf's span export emits complete slices and instants, which the
     simulator's export may not: add one of each on p0's lane *)
  let mk = Obs.Chrome_trace.event ~cat:"span" ~pid:0 ~tid:0 in
  let events =
    Sim.Trace_export.chrome_events tr
    @ [
        mk ~args:[ ("n", Obs.Json.Int 3) ] ~name:"solve" ~ts:1.5
          (Obs.Chrome_trace.Complete 2.25);
        mk ~name:"mark" ~ts:4.0 Obs.Chrome_trace.Instant;
      ]
  in
  let doc = Obs.Chrome_trace.to_json events in
  (* the reader perf's smoke check uses gives back exactly what was written *)
  (match Obs.Chrome_trace.of_json doc with
  | Error e -> Alcotest.failf "chrome doc did not parse back: %s" e
  | Ok events' ->
      Alcotest.(check bool) "of_json (to_json events) = events" true (events = events'));
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

(* The lines [f] logs on the solver's source with that source at
   [level], captured by a reporter installed for the call. *)
let mdp_log_lines ~level f =
  let lines = ref [] in
  let report src _ ~over k msgf =
    if Logs.Src.equal src Mdp.Solver.log_src then
      msgf (fun ?header:_ ?tags:_ fmt ->
          Format.kasprintf
            (fun l ->
              lines := l :: !lines;
              over ();
              k ())
            fmt)
    else begin
      over ();
      k ()
    end
  in
  let reporter = Logs.reporter () and saved = Logs.Src.level Mdp.Solver.log_src in
  Logs.set_reporter { Logs.report };
  Logs.Src.set_level Mdp.Solver.log_src level;
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.Src.set_level Mdp.Solver.log_src saved)
    (fun () ->
      f ();
      List.rev !lines)

let test_solver_progress_log () =
  Tiny_solver.reset ();
  (* 120,001 distinct states (120,000..0), one miss each, the m-th at
     depth m - 1: a line at misses 50,000 and 100,000, from inside the
     recursion *)
  let n = 120_000 in
  let lines =
    mdp_log_lines ~level:(Some Logs.Info) (fun () -> ignore (Tiny_solver.value n))
  in
  Alcotest.(check int) "one line per 50,000 misses" 2 (List.length lines);
  List.iteri
    (fun i l ->
      match
        Scanf.sscanf l "progress: %d states, %f%% hit rate, depth %d, %fs elapsed, %f states/s%!"
          (fun _ _ depth elapsed rate -> (depth, elapsed, rate))
      with
      | depth, elapsed, rate ->
          Alcotest.(check int)
            (Fmt.str "line %d at a 50,000-miss boundary" i)
            ((50_000 * (i + 1)) - 1)
            depth;
          Alcotest.(check bool) "elapsed and rate non-negative" true
            (elapsed >= 0.0 && rate >= 0.0)
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
          Alcotest.failf "malformed progress line: %S" l)
    lines;
  (* nothing after the solve: re-solving the memoized root is one hit,
     and stats/best_move queries do not tick *)
  let after =
    mdp_log_lines ~level:(Some Logs.Info) (fun () ->
        ignore (Tiny_solver.value n);
        ignore (Tiny_solver.best_move 5);
        ignore (Tiny_solver.stats ()))
  in
  Alcotest.(check (list string)) "no lines after value returns" [] after;
  (* below info the source is silent *)
  Tiny_solver.reset ();
  let quiet =
    mdp_log_lines ~level:(Some Logs.Warning) (fun () -> ignore (Tiny_solver.value n))
  in
  Alcotest.(check (list string)) "no lines below info" [] quiet;
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

(* Only v8 validates: the committed BENCH_*.json baselines are v8, and
   older documents (which may still carry the top-level registry
   snapshot, span log or store block) and unknown future versions are
   rejected. *)
let test_schema_version_v8_only () =
  Alcotest.(check int) "current schema version" 8 Obs.Results.schema_version;
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
      ]
  in
  (match Obs.Results.validate (minimal_doc 8) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "v8 document rejected: %s" e);
  List.iter
    (fun v ->
      match Obs.Results.validate (minimal_doc v) with
      | Ok () -> Alcotest.failf "v%d document accepted" v
      | Error _ -> ())
    [ 5; 6; 7; 999 ];
  (* the emitter writes none of the retired top-level keys *)
  let doc = Obs.Results.create ~generated_by:"test suite" () in
  ignore (Obs.Results.section doc ~id:"E1" ~title:"keys");
  let json = Obs.Results.to_json doc in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " absent") true (Obs.Json.member k json = None))
    [ "metrics"; "spans"; "store" ]

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
    Alcotest.test_case "metrics: counters exact across domains" `Quick
      test_counter_across_domains;
    Alcotest.test_case "metrics: snapshot shape" `Quick test_snapshot_shape;
    Alcotest.test_case "json: round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json: parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json: non-finite floats render null" `Quick
      test_json_non_finite;
    Alcotest.test_case "trace export: JSONL round-trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "trace export: Chrome trace" `Quick test_chrome_round_trip;
    Alcotest.test_case "trace: cached accessors" `Quick test_trace_accessors_cached;
    Alcotest.test_case "solver: memo-hit statistics" `Quick
      test_solver_stats_memoization;
    Alcotest.test_case "solver: progress log lines" `Quick test_solver_progress_log;
    Alcotest.test_case "results: schema round-trip" `Quick test_results_schema;
    Alcotest.test_case "results: only v8 valid" `Quick test_schema_version_v8_only;
    Alcotest.test_case "log: verbosity levels" `Quick test_log_levels;
  ]
