(* perf.exe --workload W --seed N --seconds S --trace 0|1
           [--size full|smoke] [--out FILE] [--trace-out FILE]
   perf.exe --sweep K

   Runs one workload in this process, single-domain. Untraced, it
   repeats reps (each after a set-up: solver reset and Gc.compact)
   until [--seconds] are used, and reports the end-to-end metrics from
   the fastest rep: on a shared host, contention from other tenants
   slows whole stretches of reps, and the fastest rep of a run is what
   stays put between runs (see README.md, "Host noise"). Set-up time is
   a median. Traced, it runs one untraced and one traced rep,
   checks that their outputs are identical, and reports per-layer
   metrics; groups of layers the workload does not call are measured on
   the smoke-size input of the workload that does. The last line on
   standard output is one JSON object: correct, attempted, failed,
   metrics. [--out] also writes a results document for compare.exe;
   [--trace-out] writes the recorded spans as Chrome-trace JSON.
   [--sweep K] instead solves k = 1..K in RAM, untraced and traced, and
   reports states per second and the layer shares for each k. *)

open Workloads

let usage =
  "perf.exe --workload W --seed N --seconds S --trace 0|1 [--size full|smoke] \
   [--out FILE] [--trace-out FILE]\n       perf.exe --sweep K"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf.exe: " ^ s);
      exit 2)
    fmt

let min_reps = function Full -> 3 | Smoke -> 1

(* Peak resident set size, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let line l =
    match String.index_opt l ':' with
    | Some i when String.sub l 0 i = "VmHWM" ->
        Scanf.sscanf (String.sub l (i + 1) (String.length l - i - 1)) " %d kB"
          (fun kb -> Some (float_of_int kb /. 1024.0))
    | _ -> None
  in
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n' |> List.find_map line |> Option.value ~default:0.0

type measured = {
  checks : (string * bool) list;
  reps : int;
  metrics : Results.metric list;
}

let metric ?reps name unit_ value = { Results.name; unit_; value; reps }

(* ---- untraced: end-to-end metrics ------------------------------------ *)

(* Set-up is what a fresh process does before its first timed rep:
   runtime and library initialisation, argument parsing and the
   workload's set-up. It is measured from spawn to exit of this
   executable run with [--setup-only], several times. *)
let startup_samples = 15

let start_ups w =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let exe = Sys.executable_name in
  let one _ =
    let t0 = Spans.now () in
    let pid =
      Unix.create_process exe
        [| exe; "--workload"; w.name; "--setup-only" |]
        null null null
    in
    let _, status = Unix.waitpid [] pid in
    (float_of_int (Spans.now () - t0) /. 1e9, status = Unix.WEXITED 0)
  in
  let samples = List.init startup_samples one in
  Unix.close null;
  (List.map fst samples, List.for_all snd samples)

let measure w size ~seed ~seconds =
  let setups, setups_ok = start_ups w in
  let t_start = Spans.now () in
  let walls = ref [] and reps = ref [] and cpus = ref [] and rss = ref 0.0 in
  let rec loop () =
    let (), setup = Spans.span "set-up" w.setup in
    let c0 = Sys.time () in
    let r, wall = Spans.span (w.name ^ " rep") (fun () -> w.run size ~seed) in
    cpus := (Sys.time () -. c0) :: !cpus;
    reps := r :: !reps;
    walls := wall :: !walls;
    let n = List.length !walls in
    (* later reps can only raise the high-water mark by what the
       previous reps left behind; a session is one rep *)
    if n = 1 then rss := peak_rss_mb ();
    let elapsed = float_of_int (Spans.now () - t_start) /. 1e9 in
    if n < min_reps size || elapsed +. setup +. wall <= seconds then loop ()
  in
  loop ();
  w.setup ();
  let reps = List.rev !reps and walls = List.rev !walls in
  let first = List.hd reps in
  let checks =
    ("set-up processes exited 0", setups_ok)
    :: List.concat
         (List.mapi
            (fun i r ->
              (Printf.sprintf "rep %d outputs = rep 0 outputs" i, r.outputs = first.outputs)
              :: List.map (fun (c, ok) -> (Printf.sprintf "rep %d: %s" i c, ok)) r.checks)
            reps)
  in
  let walls_s = Sample.summarize walls in
  let rates = List.map (fun w -> float_of_int first.work /. w) walls in
  let cpu_s = Sample.summarize !cpus in
  Printf.eprintf
    "%s: %d reps, wall min %.4f s, median %.4f s [%.4f, %.4f], cpu median %.4f s\n%!"
    w.name (List.length walls) walls_s.min walls_s.median walls_s.q1 walls_s.q3
    cpu_s.median;
  {
    checks;
    reps = List.length walls;
    metrics =
      [
        metric ~reps:walls_s "min_wall_s" "s" walls_s.min;
        metric ~reps:(Sample.summarize rates) "peak_work_per_s" "1/s"
          (float_of_int first.work /. walls_s.min);
        metric "peak_rss_mb" "MB" !rss;
        metric ~reps:(Sample.summarize setups) "setup_s" "s" (Sample.median setups);
      ];
  }

(* ---- traced: per-layer metrics --------------------------------------- *)

type layered = {
  l_checks : (string * bool) list;
  layers : (group * metric list) list;
  overhead : float;
}

let traced_pass w size ~seed =
  w.setup ();
  let u, untraced_wall = Spans.span (w.name ^ " rep") (fun () -> w.run size ~seed) in
  w.setup ();
  let t = w.trace size ~seed ~untraced_wall in
  w.setup ();
  Printf.eprintf "%s (%s): untraced %.4f s, traced %.4f s\n%!" w.name
    (match size with Full -> "full" | Smoke -> "smoke")
    untraced_wall t.wall;
  let tag what = Printf.sprintf "%s: %s" w.name what in
  {
    l_checks =
      List.map (fun (c, ok) -> (tag ("untraced " ^ c), ok)) u.checks
      @ List.map (fun (c, ok) -> (tag ("traced " ^ c), ok)) t.rep.checks
      @ [ (tag "traced outputs = untraced outputs", t.rep.outputs = u.outputs) ];
    layers = t.layers;
    overhead = (t.wall /. untraced_wall) -. 1.0;
  }

let groups = [ Solve; Store; Sim; Fuzz ]

let traced w size ~seed =
  let own = traced_pass w size ~seed in
  (* at full size, every group the workload does not report comes from
     its home workload's smoke-size pass *)
  let missing =
    if size = Smoke then []
    else List.filter (fun g -> not (List.mem_assoc g own.layers)) groups
  in
  let homes =
    List.filter (fun h -> List.exists (fun g -> (home g).name = h.name) missing) all
    |> List.map (fun h -> traced_pass h Smoke ~seed)
  in
  let pick g =
    List.find_map (fun p -> List.assoc_opt g p.layers) (own :: homes)
  in
  let layer_metrics =
    List.concat_map (fun g -> Option.value ~default:[] (pick g)) groups
    |> List.map (fun (x : Workloads.metric) -> metric x.name x.unit_ x.value)
  in
  {
    checks = List.concat_map (fun p -> p.l_checks) (own :: homes);
    reps = 1;
    metrics = layer_metrics @ [ metric "trace.overhead_share" "ratio" own.overhead ];
  }

(* ---- main ------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and size = ref "full" and out = ref "" and trace_out = ref "" in
  let setup_only = ref false and sweep = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S time to spend on untraced reps");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
      ("--size", Arg.Set_string size, "full|smoke input size (default full)");
      ("--out", Arg.Set_string out, "FILE write a results document");
      ("--trace-out", Arg.Set_string trace_out, "FILE write spans as Chrome-trace JSON");
      ("--setup-only", Arg.Set setup_only, " run the workload's set-up and exit");
      ("--sweep", Arg.Set_int sweep, "K traced in-RAM solves at k = 1..K instead of a workload");
    ]
    (fun a -> die "unexpected argument %S" a)
    usage;
  let workload () =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        die "unknown workload %S (expected one of: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.name) Workloads.all))
  in
  let size =
    match !size with
    | "full" -> Full
    | "smoke" -> Smoke
    | s -> die "unknown size %S" s
  in
  let traced_run =
    match !trace with 0 -> false | 1 -> true | n -> die "--trace must be 0 or 1, not %d" n
  in
  let name, r =
    if !sweep > 0 then
      let ks = Workloads.sweep !sweep in
      ("sweep", { checks = List.concat_map fst ks; reps = 1;
                  metrics = List.concat_map (fun (_, ms) ->
                      List.map (fun (x : Workloads.metric) -> metric x.name x.unit_ x.value) ms) ks })
    else
      let w = workload () in
      if !setup_only then begin
        w.setup ();
        exit 0
      end;
      ( w.name,
        if traced_run then traced w size ~seed:!seed
        else measure w size ~seed:!seed ~seconds:!seconds )
  in
  let checks =
    r.checks
    @ List.map
        (fun (x : Results.metric) -> (x.name ^ " is finite", Float.is_finite x.value))
        r.metrics
  in
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  List.iter (fun (c, _) -> Printf.eprintf "FAILED check: %s\n%!" c) failed;
  let doc =
    {
      Results.workload = name;
      size = (match size with Full -> "full" | Smoke -> "smoke");
      traced = traced_run || !sweep > 0;
      fingerprint =
        Results.fingerprint
          ~commit:(if !out = "" then "unknown" else Results.git_commit ())
          ~seed:!seed ~reps:r.reps;
      correct = failed = [];
      attempted = List.length checks;
      failed = List.length failed;
      metrics = r.metrics;
    }
  in
  if !out <> "" then Obs.Json.write_file !out (Results.to_json doc);
  if !trace_out <> "" then Spans.write_chrome !trace_out;
  print_endline (Results.line doc)
