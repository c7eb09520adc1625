(* compare.exe [--bench BENCHMARK.json] A1.json ... -- B1.json ...

   Compares two sets of results documents written by [perf.exe --out]:
   A is the baseline, B the candidate. Prints one row per workload and
   metric with each side's median, quartiles and run count, the change,
   and a verdict (better / worse / unchanged / unresolved).

   Exit status: 0 when no bounded metric got worse, 1 on any regression
   beyond its bound, 2 on a usage error, an unreadable document, or
   documents from hosts with a different nproc or compiler. *)

let usage = "compare.exe [--bench BENCHMARK.json] A.json ... -- B.json ..."

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let split_args args =
  let rec go acc = function
    | [] -> None
    | "--" :: rest -> Some (List.rev acc, rest)
    | x :: rest -> go (x :: acc) rest
  in
  go [] args

let load paths =
  List.map
    (fun p -> match Results.read p with Ok d -> d | Error e -> die "%s" e)
    paths

let pp_side (s : Sample.summary) =
  Printf.sprintf "%.6g [%.6g, %.6g] n=%d" s.median s.q1 s.q3 s.n

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bench, args =
    match args with
    | "--bench" :: path :: rest -> (path, rest)
    | _ -> ("BENCHMARK.json", args)
  in
  let a_paths, b_paths =
    match split_args args with
    | Some (a, b) when a <> [] && b <> [] -> (a, b)
    | _ -> die "usage: %s" usage
  in
  let spec = match Spec.load bench with Ok s -> s | Error e -> die "%s" e in
  let baseline = load a_paths and candidate = load b_paths in
  (match Verdict.check_fingerprints (baseline @ candidate) with
  | Ok () -> ()
  | Error e -> die "%s" e);
  let rows = Verdict.rows spec ~baseline ~candidate in
  Printf.printf "%-12s %-5s %-40s %-7s %-34s %-34s %8s  %s\n" "workload" "trace"
    "metric" "unit" "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun (r : Verdict.row) ->
      let change =
        if r.a.median = 0.0 then 0.0
        else 100.0 *. (r.b.median -. r.a.median) /. Float.abs r.a.median
      in
      Printf.printf "%-12s %-5s %-40s %-7s %-34s %-34s %+7.2f%%  %s%s\n"
        r.workload
        (if r.traced then "1" else "0")
        r.metric r.unit_ (pp_side r.a) (pp_side r.b) change
        (Verdict.to_string r.verdict)
        (match r.bound with
        | Some b -> Printf.sprintf " (bound %.0f%%)" (100.0 *. b)
        | None -> ""))
    rows;
  match Verdict.regressions rows with
  | [] -> ()
  | worse ->
      Printf.printf "%d metric(s) worse beyond their bound\n" (List.length worse);
      exit 1
