(* The fuzzing subsystem: shrinker laws, replay determinism, corpus
   round-trips, oracle health on healthy implementations, and the
   committed regression corpus. *)

(* The committed planted failure every shrinker test leans on: seed 7,
   iteration 464 of the planted (ABD-without-write-back) session is a
   linearizability violation — see test/corpus/fuzz-lin-s7-i464.json. *)
let planted_seed = 7
let planted_iter = 464

let planted_failure () =
  let case =
    Fuzz.Case.generate ~planted:true
      (Fuzz.Oracle.case_stream ~seed:planted_seed ~iter:planted_iter)
  in
  let _t, codes =
    Fuzz.Oracle.run_recorded ~seed:planted_seed ~iter:planted_iter case
  in
  let fails =
    Fuzz.Oracle.lin_fails ~seed:planted_seed ~iter:planted_iter case
  in
  (case, codes, fails)

(* ---- shrinker ------------------------------------------------------- *)

let test_shrink_requires_failing_input () =
  match Fuzz.Shrink.minimize ~fails:(fun _ -> false) [| 1; 2; 3 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on a passing schedule"

(* Synthetic predicate with a known unique minimum: fails iff the codes
   at two positions are >= 1 in order. The minimum is [| 1; 1 |]. *)
let test_shrink_synthetic_minimum () =
  let fails codes =
    let hits = Array.to_list codes |> List.filter (fun c -> c >= 1) in
    List.length hits >= 2
  in
  let shrunk = Fuzz.Shrink.minimize ~fails [| 0; 7; 0; 0; 3; 9; 0 |] in
  Alcotest.(check (array int)) "unique minimum" [| 7; 3 |] shrunk;
  Alcotest.(check bool) "still fails" true (fails shrunk)

let test_shrink_planted_violation () =
  let _case, codes, fails = planted_failure () in
  Alcotest.(check bool) "recorded schedule fails" true (fails codes);
  let shrunk = Fuzz.Shrink.minimize ~fails codes in
  Alcotest.(check bool) "shrunk schedule still fails" true (fails shrunk);
  Alcotest.(check bool) "shrunk no longer than input" true
    (Array.length shrunk <= Array.length codes)

let test_shrink_idempotent () =
  let _case, codes, fails = planted_failure () in
  let once = Fuzz.Shrink.minimize ~fails codes in
  let twice = Fuzz.Shrink.minimize ~fails once in
  Alcotest.(check (array int)) "shrinking a shrunk schedule is identity" once
    twice

let test_shrink_one_minimal () =
  let _case, codes, fails = planted_failure () in
  let shrunk = Fuzz.Shrink.minimize ~fails codes in
  (* dropping the last code no longer fails *)
  let n = Array.length shrunk in
  Alcotest.(check bool) "truncating the last code passes" false
    (fails (Array.sub shrunk 0 (n - 1)));
  (* deleting any single code no longer fails *)
  for i = 0 to n - 1 do
    let deleted =
      Array.init (n - 1) (fun j -> if j < i then shrunk.(j) else shrunk.(j + 1))
    in
    if fails deleted then
      Alcotest.failf "deleting code %d still fails (not 1-minimal)" i
  done;
  (* zeroing any non-zero code no longer fails *)
  Array.iteri
    (fun i c ->
      if c <> 0 then begin
        let zeroed = Array.copy shrunk in
        zeroed.(i) <- 0;
        if fails zeroed then
          Alcotest.failf "zeroing code %d still fails (not 1-minimal)" i
      end)
    shrunk

(* ---- replay determinism --------------------------------------------- *)

let test_replay_matches_recording () =
  (* replaying the full recorded schedule reproduces the same history,
     hence the same lin verdict, for healthy and planted cases alike *)
  List.iter
    (fun (seed, iter, planted) ->
      let case =
        Fuzz.Case.generate ~planted (Fuzz.Oracle.case_stream ~seed ~iter)
      in
      let t, codes = Fuzz.Oracle.run_recorded ~seed ~iter case in
      let t' = Fuzz.Oracle.replay ~seed ~iter case codes in
      Alcotest.(check bool)
        (Fmt.str "seed %d iter %d: replay verdict matches" seed iter)
        (Result.is_ok (Fuzz.Oracle.lin_check case t))
        (Result.is_ok (Fuzz.Oracle.lin_check case t')))
    [ (42, 0, false); (42, 3, false); (planted_seed, planted_iter, true) ]

let test_corpus_roundtrip () =
  let entry =
    {
      Fuzz.Corpus.seed = 11;
      iter = 7;
      oracle = "lin";
      case = Some (Fuzz.Case.Registers { impl = Fuzz.Case.Abd; n = 3 });
      schedule = [| 0; 5; 2; 0; 9 |];
      expect = Fuzz.Corpus.Fail;
      detail = "round-trip";
    }
  in
  match Fuzz.Corpus.of_json (Fuzz.Corpus.to_json entry) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok entry' ->
      Alcotest.(check bool) "round-trip preserves the entry" true
        (entry = entry')

let test_corpus_files_byte_identical () =
  (* the same (seed, budget) session writes byte-identical corpus files:
     the acceptance property CI relies on *)
  let tmp1 = Filename.temp_file "fuzz-corpus" "" in
  let tmp2 = Filename.temp_file "fuzz-corpus" "" in
  Sys.remove tmp1;
  Sys.remove tmp2;
  let session dir =
    Fuzz.Engine.run ~corpus_dir:dir ~planted:true ~dist_trials:50
      ~seed:planted_seed
      ~budget:(Fuzz.Engine.Iterations (planted_iter + 1))
      ()
  in
  let read_all path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let s1 = session tmp1 in
  let s2 = session tmp2 in
  Alcotest.(check int) "both sessions found a failure" 1
    (List.length s1.Fuzz.Engine.failures);
  Alcotest.(check (list string)) "same file names"
    (List.map Filename.basename s1.Fuzz.Engine.corpus_files)
    (List.map Filename.basename s2.Fuzz.Engine.corpus_files);
  List.iter2
    (fun p1 p2 ->
      Alcotest.(check string)
        (Fmt.str "%s byte-identical" (Filename.basename p1))
        (read_all p1) (read_all p2))
    s1.Fuzz.Engine.corpus_files s2.Fuzz.Engine.corpus_files

let test_engine_deterministic_summary () =
  let session () =
    Fuzz.Engine.run ~dist_trials:50 ~seed:42
      ~budget:(Fuzz.Engine.Iterations 64) ()
  in
  let s1 = session () in
  let s2 = Fuzz.Engine.run ~jobs:4 ~dist_trials:50 ~seed:42
      ~budget:(Fuzz.Engine.Iterations 64) () in
  Alcotest.(check string) "identical summaries at jobs 1 vs 4"
    (Fmt.str "%a" Fuzz.Engine.pp_summary s1)
    (Fmt.str "%a" Fuzz.Engine.pp_summary s2);
  Alcotest.(check bool) "no failures on healthy implementations" false
    (Fuzz.Engine.has_failures s1);
  ignore (s2 = s1)

(* ---- budget parsing -------------------------------------------------- *)

let test_parse_budget () =
  let check s expected =
    match (Fuzz.Engine.parse_budget s, expected) with
    | Ok b, Some b' ->
        Alcotest.(check bool) (Fmt.str "budget %S" s) true (b = b')
    | Error _, None -> ()
    | Ok _, None -> Alcotest.failf "budget %S unexpectedly parsed" s
    | Error e, Some _ -> Alcotest.failf "budget %S rejected: %s" s e
  in
  check "10000" (Some (Fuzz.Engine.Iterations 10000));
  check "300s" (Some (Fuzz.Engine.Seconds 300.));
  check "5m" (Some (Fuzz.Engine.Seconds 300.));
  check "1h" (Some (Fuzz.Engine.Seconds 3600.));
  check "" None;
  check "bogus" None;
  check "-3" None

(* ---- pool teardown --------------------------------------------------- *)

exception Oracle_failed

let test_with_pool_exception_safe () =
  let before = Par.Pool.spawned_domains () in
  (match
     Par.Pool.with_pool ~jobs:4 (fun pool ->
         ignore (Par.Pool.map pool ~n:8 (fun i -> i * i));
         raise Oracle_failed)
   with
  | exception Oracle_failed -> ()
  | _ -> Alcotest.fail "expected Oracle_failed to propagate");
  Alcotest.(check int) "no live worker domains after a raised failure"
    before
    (Par.Pool.spawned_domains ())

let test_engine_failure_leaves_no_domains () =
  let before = Par.Pool.spawned_domains () in
  (* a planted session finds failures, shrinks and reports them — and
     still unwinds its pool *)
  let s =
    Fuzz.Engine.run ~jobs:4 ~planted:true ~dist_trials:50 ~max_failures:1
      ~seed:planted_seed
      ~budget:(Fuzz.Engine.Iterations (planted_iter + 1))
      ()
  in
  Alcotest.(check bool) "planted session found the failure" true
    (Fuzz.Engine.has_failures s);
  Alcotest.(check int) "no live worker domains after the session" before
    (Par.Pool.spawned_domains ())

(* ---- oracles on healthy implementations ------------------------------ *)

let test_lockstep_oracle_healthy () =
  for iter = 0 to 49 do
    match Fuzz.Oracle.model_lockstep ~seed:1234 ~iter with
    | None -> ()
    | Some f ->
        Alcotest.failf "lockstep oracle failed at iter %d: %s" iter
          f.Fuzz.Oracle.detail
  done

let test_dist_oracle_healthy () =
  match Fuzz.Oracle.dist ~seed:42 ~trials:200 ~k:2 () with
  | None -> ()
  | Some f -> Alcotest.failf "dist oracle failed: %s" f.Fuzz.Oracle.detail

(* ---- committed regression corpus ------------------------------------- *)

let corpus_dir = "corpus"

(* The adversary-decision line each committed entry's replay prints:
   schedule replays ([lin]) attribute the decisions their guide saw;
   the other oracles replay no schedule and print none. *)
let expected_attribution = function
  | "fuzz-lin-s7-i464.json" ->
      Some
        "adversary decisions: 120 (0 forced), enabled set 3..11 (mean 7.6); \
         chosen: 63 steps, 57 deliveries, 0 crashes"
  | "fuzz-lin-s7-i728.json" ->
      Some
        "adversary decisions: 115 (0 forced), enabled set 3..12 (mean 7.9); \
         chosen: 63 steps, 52 deliveries, 0 crashes"
  | _ -> None

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_replay_committed_corpus () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check bool) "committed corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      match Fuzz.Engine.replay_file (Filename.concat corpus_dir f) with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok msg -> (
          match expected_attribution f with
          | Some line ->
              Alcotest.(check bool)
                (Fmt.str "%s attributes its decisions" f)
                true
                (contains ~affix:("\n  " ^ line) msg)
          | None ->
              Alcotest.(check bool)
                (Fmt.str "%s prints no attribution" f)
                false
                (contains ~affix:"adversary decisions" msg)))
    files

let tests =
  [
    Alcotest.test_case "shrink: rejects passing input" `Quick
      test_shrink_requires_failing_input;
    Alcotest.test_case "shrink: synthetic unique minimum" `Quick
      test_shrink_synthetic_minimum;
    Alcotest.test_case "shrink: planted violation shrinks and still fails"
      `Quick test_shrink_planted_violation;
    Alcotest.test_case "shrink: idempotent on planted violation" `Quick
      test_shrink_idempotent;
    Alcotest.test_case "shrink: 1-minimal on planted violation" `Quick
      test_shrink_one_minimal;
    Alcotest.test_case "replay reproduces the recorded verdict" `Quick
      test_replay_matches_recording;
    Alcotest.test_case "corpus entries round-trip through JSON" `Quick
      test_corpus_roundtrip;
    Alcotest.test_case "same seed writes byte-identical corpus files" `Quick
      test_corpus_files_byte_identical;
    Alcotest.test_case "engine summary identical at jobs 1 vs 4" `Quick
      test_engine_deterministic_summary;
    Alcotest.test_case "budget parsing" `Quick test_parse_budget;
    Alcotest.test_case "with_pool joins domains on exception" `Quick
      test_with_pool_exception_safe;
    Alcotest.test_case "failing session leaves no domains" `Quick
      test_engine_failure_leaves_no_domains;
    Alcotest.test_case "lockstep oracle passes on 50 seeds" `Quick
      test_lockstep_oracle_healthy;
    Alcotest.test_case "dist oracle passes on healthy ABD" `Quick
      test_dist_oracle_healthy;
    Alcotest.test_case "committed corpus replays" `Quick
      test_replay_committed_corpus;
  ]
