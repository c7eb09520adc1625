(* smoke_check.exe BENCHMARK.json PERF_EXE

   Runs every workload BENCHMARK.json names through PERF_EXE at
   --size smoke, untraced and traced, plus a k = 1 sweep, two processes
   at a time, and checks the results against the benchmark definition:
   every run passed its correctness checks, including traced outputs
   equal to untraced ones; every untraced run printed every end-to-end
   metric, non-zero, with its unit, and wrote a readable results
   document; every traced run printed the trace overhead and wrote a
   loadable Chrome trace; and the traced runs together printed every
   per-layer metric with its unit. (A full-size traced run prints all
   of them itself; at smoke size each workload reports only the layers
   it calls.) Exits 1 on any failure, printing the failing runs'
   output. *)

let errors = ref []
let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

(* [file] is the Chrome trace a traced run writes, or the results
   document an untraced one writes. *)
type job = { label : string; args : string list; file : string }

(* Runs [jobs] in order, [slots] at a time, each with standard output
   and error in a temporary file; returns each job with its exit status
   and output. *)
let run_all exe ~slots jobs =
  let running = Hashtbl.create slots in
  let spawn job =
    let file = Filename.temp_file "perf-smoke" ".out" in
    let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    let pid =
      Unix.create_process exe (Array.of_list (exe :: job.args)) Unix.stdin fd fd
    in
    Unix.close fd;
    Hashtbl.replace running pid (job, file)
  in
  let reap () =
    let pid, status = Unix.wait () in
    let job, file = Hashtbl.find running pid in
    Hashtbl.remove running pid;
    let text = In_channel.with_open_text file In_channel.input_all in
    Sys.remove file;
    (job, status, text)
  in
  let rec go pending done_ =
    match pending with
    | job :: rest when Hashtbl.length running < slots ->
        spawn job;
        go rest done_
    | _ when Hashtbl.length running > 0 -> go pending (reap () :: done_)
    | _ -> done_
  in
  go jobs []

(* The metrics of a run that exited 0 with every check passed. *)
let metrics_of (job, status, text) =
  match (status, Results.of_line text) with
  | Unix.WEXITED 0, Ok (true, attempted, 0, metrics) when attempted >= 1 ->
      metrics
  | _, Ok (correct, attempted, failed, _) ->
      fail "%s: correct=%b attempted=%d failed=%d\n%s" job.label correct
        attempted failed text;
      []
  | _, Error e ->
      fail "%s: %s\n%s" job.label e text;
      []

let check_chrome job =
  let text = In_channel.with_open_text job.file In_channel.input_all in
  Sys.remove job.file;
  match Result.bind (Obs.Json.of_string text) Obs.Chrome_trace.of_json with
  | Ok (_ :: _) -> ()
  | Ok [] | Error _ -> fail "%s: no loadable Chrome trace" job.label

let check_document job =
  let doc = Results.read job.file in
  Sys.remove job.file;
  match doc with
  | Ok d when d.fingerprint.nproc >= 1 && d.fingerprint.reps >= 1 -> ()
  | Ok _ -> fail "%s: results document without a fingerprint" job.label
  | Error e -> fail "%s: %s" job.label e

let expect label metrics (m : Spec.metric) =
  match List.find_opt (fun (x : Results.metric) -> x.name = m.name) metrics with
  | None -> fail "%s: metric %s missing" label m.name
  | Some x ->
      if x.unit_ <> m.unit_ then
        fail "%s: metric %s has unit %s, BENCHMARK.json says %s" label m.name
          x.unit_ m.unit_

let ratio name = { Spec.name; unit_ = "ratio"; better = Spec.Lower; bound = None }

let () =
  let bench, exe =
    match Sys.argv with
    | [| _; bench; exe |] ->
        (* a bare name would be looked up in PATH *)
        (bench, if Filename.is_implicit exe then Filename.concat "." exe else exe)
    | _ ->
        prerr_endline "usage: smoke_check.exe BENCHMARK.json PERF_EXE";
        exit 2
  in
  let spec =
    match Spec.load bench with
    | Ok s -> s
    | Error e ->
        prerr_endline e;
        exit 2
  in
  let job workload trace =
    let file = Filename.temp_file "perf-smoke" ".json" in
    {
      label = Printf.sprintf "%s --trace %s" workload trace;
      args =
        [ "--workload"; workload; "--seed"; "1"; "--seconds"; "0"; "--trace"; trace;
          "--size"; "smoke"; (if trace = "1" then "--trace-out" else "--out"); file ];
      file;
    }
  in
  let traced = List.map (fun w -> job w "1") spec.workloads in
  let untraced = List.map (fun w -> job w "0") spec.workloads in
  let sweep = { label = "--sweep 1"; args = [ "--sweep"; "1" ]; file = "" } in
  (* traced runs first: they take longest *)
  let results = run_all exe ~slots:2 (traced @ [ sweep ] @ untraced) in
  let ran j = List.find (fun (j', _, _) -> j' == j) results in
  List.iter check_chrome traced;
  List.iter check_document untraced;
  expect sweep.label (metrics_of (ran sweep)) (ratio "mdp.solver.self_share.k1");
  List.iter
    (fun j ->
      let metrics = metrics_of (ran j) in
      List.iter (expect j.label metrics) spec.end_to_end;
      List.iter
        (fun (x : Results.metric) ->
          if x.value = 0.0 then fail "%s: end-to-end metric %s is 0" j.label x.name)
        metrics)
    untraced;
  let traced_metrics =
    List.concat_map
      (fun j ->
        let metrics = metrics_of (ran j) in
        expect j.label metrics (ratio "trace.overhead_share");
        metrics)
      traced
  in
  List.iter (expect "traced runs" traced_metrics) spec.per_layer;
  match !errors with
  | [] ->
      Printf.printf "perf smoke: %d workloads, untraced and traced, and a sweep ok\n"
        (List.length spec.workloads)
  | es ->
      List.iter prerr_endline (List.rev es);
      exit 1
