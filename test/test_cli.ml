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

(* A section's metrics describe that section's work alone. Its
   [gc.minor_words] is the exact allocation inside it: a [Gc.quick_stat]
   delta would read 0 for a section that runs between two minor
   collections, as E8 does. Its counters are deltas: E4 is pure math, so
   counters accumulated since process start would leak E1's simulator
   and solver work into it. *)
let test_bench_section_allocation () =
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
      let e8 = section "E8" in
      Alcotest.(check (option int)) "E8 sim.steps" (Some 2_142)
        (int_at [ "metrics"; "counters"; "sim.steps" ] e8);
      match
        Option.bind (at [ "metrics"; "gc"; "minor_words" ] e8) Obs.Json.to_number_opt
      with
      | Some words -> Alcotest.(check bool) "E8 minor words > 0" true (words > 0.0)
      | None -> Alcotest.fail "E8 has no numeric gc.minor_words")

let tests =
  [
    Alcotest.test_case "solve prints a one-line summary" `Quick test_solve_summary;
    Alcotest.test_case "metrics --json prints counters only" `Quick
      test_metrics_counters_only;
    Alcotest.test_case "bench section minor words are exact" `Quick
      test_bench_section_allocation;
  ]
