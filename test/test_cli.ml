(* The [blunting] executable's and the bench harness's output, read the
   way a user reads it. *)

let built path = Filename.concat (Filename.dirname Sys.executable_name) path
let cli = built "../bin/blunting_cli.exe"
let bench = built "../bench/main.exe"

(* Run [exe] (default the CLI) with [args]; its standard output, line by
   line. *)
let run ?(exe = cli) args =
  let out = Filename.temp_file "blunting_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (Filename.quote_command exe args ~stdout:out) in
      Alcotest.(check int) (String.concat " " args ^ ": exit 0") 0 code;
      In_channel.with_open_text out In_channel.input_all
      |> String.split_on_char '\n' |> List.map String.trim)

(* [exe]'s exit code on [args] with the [env] bindings ("NAME=value")
   added to its environment, its output discarded. *)
let exit_code ?(env = []) ?(exe = cli) args =
  let cmd, args =
    if env = [] then (exe, args) else ("env", env @ (exe :: args))
  in
  Sys.command
    (Filename.quote_command cmd args ~stdout:Filename.null
       ~stderr:Filename.null)

let line_with prefix lines =
  match List.find_opt (String.starts_with ~prefix) lines with
  | Some l -> l
  | None -> Alcotest.failf "no line starting %S in:\n%s" prefix (String.concat "\n" lines)

(* [summary: N states, R states/s, H% hit rate, M MB peak heap] *)
let summary lines =
  let l = line_with "summary:" lines in
  match
    Scanf.sscanf l "summary: %d states, %f states/s, %f%% hit rate, %f MB peak heap%!"
      (fun n r h m -> (n, r, h, m))
  with
  | fields -> fields
  | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
      Alcotest.failf "malformed summary line: %S" l

(* The GC publishes its heap high-water mark at major cycles, so a solve
   too small to finish one reports 0.0 MB. *)
let check_fields ~heap_floor name (_, rate, hit, heap) =
  Alcotest.(check bool) (name ^ ": states/s > 0") true (rate > 0.0);
  Alcotest.(check bool) (name ^ ": hit rate in [0, 100]") true (hit >= 0.0 && hit <= 100.0);
  Alcotest.(check bool) (Fmt.str "%s: peak heap > %g MB" name heap_floor) true (heap > heap_floor)

let test_solve_summary () =
  let lines = run [ "solve"; "-k"; "1" ] in
  let ((states, _, _, _) as s) = summary lines in
  check_fields ~heap_floor:1.0 "ABD^1" s;
  let solver_states =
    Scanf.sscanf (line_with "solver:" lines) "solver: %d states" Fun.id
  in
  Alcotest.(check int) "ABD^1: summary states = solver's count" solver_states states;
  Alcotest.(check int) "ABD^1: the committed count" 106_263 states;
  let ((states, _, _, _) as s) = summary (run [ "solve"; "--atomic" ]) in
  check_fields ~heap_floor:(-1.0) "atomic" s;
  ignore (Model.Weakener_atomic.bad_probability ());
  Alcotest.(check int) "atomic: summary states = solver's count"
    (Model.Weakener_atomic.explored_states ())
    states

(* The memo's footprint, from a fresh process: ABD^2's solve peaks at
   24.3 MB of major heap, each binding one index word (load <= 7/8) and
   an arena record holding the key's packed memo form. *)
let test_solve_peak_heap () =
  let ((states, _, _, heap) as s) = summary (run [ "solve"; "-k"; "2" ]) in
  check_fields ~heap_floor:1.0 "ABD^2" s;
  Alcotest.(check int) "ABD^2: the committed count" 318_920 states;
  if heap > 30.0 then Alcotest.failf "ABD^2: %.1f MB peak heap (at most 30)" heap

(* [--progress] turns on the solver's info line and nothing else: the
   106,263-state ABD^1 solve logs it at 50,000 and 100,000 misses. *)
let test_solve_progress_lines () =
  let err = Filename.temp_file "blunting_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let args = [ "solve"; "-k"; "1"; "--progress" ] in
      let code =
        Sys.command
          (Filename.quote_command cli args ~stdout:Filename.null ~stderr:err)
      in
      Alcotest.(check int) "solve -k 1 --progress: exit 0" 0 code;
      let lines =
        In_channel.with_open_text err In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      List.iter
        (fun l ->
          if not (String.starts_with ~prefix:"[INFO] blunting.mdp: progress: " l)
          then Alcotest.failf "stderr line is not a progress line: %S" l)
        lines;
      Alcotest.(check int) "progress lines on stderr" 2 (List.length lines))

let parse_json what text =
  match Obs.Json.of_string text with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s is not JSON: %s" what e

(* The value at a path of object keys. *)
let at path j =
  List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some j) path

let int_at path j = Option.bind (at path j) Obs.Json.to_int_opt

(* The registry holds counters only, so the snapshot's one key is
   [counters]. *)
let test_metrics_counters_only () =
  let j =
    parse_json "metrics --json"
      (String.concat "\n" (run [ "metrics"; "--workload"; "solve"; "-k"; "1"; "--json" ]))
  in
  (match j with
  | Obs.Json.Obj fields ->
      Alcotest.(check (list string)) "only key" [ "counters" ] (List.map fst fields)
  | _ -> Alcotest.fail "metrics --json did not print an object");
  Alcotest.(check (option int)) "ABD^1 states explored" (Some 106_263)
    (int_at [ "counters"; "mdp.states_explored" ] j)

(* A section's metrics describe that section's work alone: its counters
   are deltas. E4 is pure math, so counters accumulated since process
   start would leak E1's simulator and solver work into it. No section
   carries a [gc] object: a document holds only deterministic figures. *)
let test_bench_section_counters () =
  let path = Filename.temp_file "blunting_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (run ~exe:bench [ "--only"; "E1,E4,E8"; "--json"; path ]);
      let doc = parse_json path (In_channel.with_open_text path In_channel.input_all) in
      let section id =
        match Option.bind (Obs.Json.member "experiments" doc) Obs.Json.to_list_opt with
        | Some sections -> (
            match
              List.find_opt
                (fun s -> Option.bind (at [ "id" ] s) Obs.Json.to_string_opt = Some id)
                sections
            with
            | Some s -> s
            | None -> Alcotest.failf "no %s section" id)
        | None -> Alcotest.fail "no experiments"
      in
      (match at [ "metrics"; "counters" ] (section "E4") with
      | None -> ()
      | Some c -> Alcotest.failf "E4 has counter deltas %s" (Obs.Json.to_string c));
      Alcotest.(check (option int)) "E8 sim.steps" (Some 2_142)
        (int_at [ "metrics"; "counters"; "sim.steps" ] (section "E8"));
      List.iter
        (fun id ->
          if at [ "metrics"; "gc" ] (section id) <> None then
            Alcotest.failf "%s has a gc object" id)
        [ "E1"; "E4"; "E8" ])

(* A job count below 1 is a usage error (cmdliner's 124) before any
   work starts, on every command that takes --jobs; so is every other
   count below 1 and a replica count below 3. *)
let test_jobs_must_be_positive () =
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args ^ ": exit 124") 124
        (exit_code args))
    [
      [ "fuzz"; "--budget"; "1"; "--jobs"; "0" ];
      [ "mc"; "--trials"; "1"; "--jobs"; "0" ];
      [ "mc"; "--trials"; "1"; "--jobs=-3" ];
      [ "mc"; "--trials"; "1"; "-j"; "two" ];
      [ "mc"; "--trials"; "0" ];
      [ "mc"; "--trials"; "1"; "-k"; "0" ];
      [ "solve"; "-k"; "0" ];
      [ "solve"; "-s"; "2" ];
      [ "ghw"; "-k"; "0" ];
      [ "bound"; "-n"; "0" ];
      [ "bound"; "-r"; "0" ];
      [ "bound"; "-k"; "0" ];
      [ "trace"; "-k"; "0"; "-o"; Filename.null ];
      [ "metrics"; "-k"; "0" ];
      [ "metrics"; "--trials"; "0" ];
      [ "lin-sweep"; "-k"; "0" ];
      [ "lin-sweep"; "--trials"; "0" ];
    ];
  Alcotest.(check int) "mc --jobs 2: exit 0" 0
    (exit_code [ "mc"; "--trials"; "4"; "--jobs"; "2" ])

(* Bench's usage errors exit 2, never a silent default or an empty run:
   a BLUNTING_KMAX that is set but not a positive integer, and an --only
   id that names no experiment. *)
let test_bench_usage_errors () =
  let only_e4 = [ "--only"; "E4" ] in
  List.iter
    (fun (env, args) ->
      Alcotest.(check int)
        (String.concat " " (env @ args) ^ ": exit 2")
        2
        (exit_code ~env ~exe:bench args))
    [
      ([ "BLUNTING_KMAX=abc" ], only_e4);
      ([ "BLUNTING_KMAX=0" ], only_e4);
      ([], [ "--only"; "E99" ]);
      ([], [ "--only"; "E4,E99" ]);
    ];
  Alcotest.(check int) "BLUNTING_KMAX=1 --only E4: exit 0" 0
    (exit_code ~env:[ "BLUNTING_KMAX=1" ] ~exe:bench only_e4)

(* [trace] is a plain command: its options export the schedule. *)
let test_trace_exports_chrome () =
  let path = Filename.temp_file "blunting_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (run [ "trace"; "--registers"; "abd"; "-o"; path ]);
      match Obs.Json.read_file path with
      | Error e -> Alcotest.failf "%s is not JSON: %s" path e
      | Ok j -> (
          match Obs.Chrome_trace.of_json j with
          | Error e -> Alcotest.failf "%s is not a Chrome trace: %s" path e
          | Ok events ->
              Alcotest.(check bool) "at least one non-metadata event" true
                (List.exists
                   (fun (e : Obs.Chrome_trace.event) ->
                     e.phase <> Obs.Chrome_trace.Metadata)
                   events)))

let tests =
  [
    Alcotest.test_case "--jobs below 1 is a usage error" `Quick
      test_jobs_must_be_positive;
    Alcotest.test_case "solve prints a one-line summary" `Quick test_solve_summary;
    Alcotest.test_case "solve -k 2 peaks under 30 MB of heap" `Quick
      test_solve_peak_heap;
    Alcotest.test_case "metrics --json prints counters only" `Quick
      test_metrics_counters_only;
    Alcotest.test_case "bench counters are per-section" `Quick
      test_bench_section_counters;
    Alcotest.test_case "trace -o writes a Chrome trace" `Quick
      test_trace_exports_chrome;
    Alcotest.test_case "bad BLUNTING_KMAX or --only id is a usage error"
      `Quick test_bench_usage_errors;
    Alcotest.test_case "solve --progress logs two lines at k = 1" `Quick
      test_solve_progress_lines;
  ]
