(* The [blunting] executable's output, read the way a user reads it. *)

let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/blunting_cli.exe"

(* Run the CLI with [args]; its standard output, line by line. *)
let run args =
  let out = Filename.temp_file "blunting_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (Filename.quote_command cli args ~stdout:out) in
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

let tests =
  [ Alcotest.test_case "solve prints a one-line summary" `Quick test_solve_summary ]
