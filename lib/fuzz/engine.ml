module M = struct
  open Obs.Metrics

  let cases = counter ~help:"fuzz cases executed" "fuzz.cases"
  let failures = counter ~help:"oracle failures found" "fuzz.failures"

  let shrink_attempts =
    counter ~help:"shrinker predicate evaluations" "fuzz.shrink_attempts"
end

type budget = Iterations of int | Seconds of float

let parse_budget s =
  let s = String.trim s in
  let dur mult digits =
    match int_of_string_opt digits with
    | Some v when v >= 0 -> Ok (Seconds (float_of_int v *. mult))
    | _ -> Error (Fmt.str "invalid budget %S" s)
  in
  if s = "" then Error "empty budget"
  else
    match s.[String.length s - 1] with
    | 's' -> dur 1.0 (String.sub s 0 (String.length s - 1))
    | 'm' -> dur 60.0 (String.sub s 0 (String.length s - 1))
    | 'h' -> dur 3600.0 (String.sub s 0 (String.length s - 1))
    | _ -> (
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok (Iterations n)
        | _ -> Error (Fmt.str "invalid budget %S" s))

type summary = {
  seed : int;
  iterations : int;
  lin_checks : int;
  model_checks : int;
  dist_checks : int;
  par_checks : int;
  prune_checks : int;
  failures : Oracle.failure list;
  corpus_files : string list;
}

let has_failures s = s.failures <> []

let pp_summary ppf s =
  Fmt.pf ppf "fuzz seed=%d iterations=%d@." s.seed s.iterations;
  Fmt.pf ppf "  oracle checks: lin=%d model=%d dist=%d par=%d prune=%d@."
    s.lin_checks s.model_checks s.dist_checks s.par_checks s.prune_checks;
  (match s.failures with
  | [] -> Fmt.pf ppf "  failures: none@."
  | fs ->
      Fmt.pf ppf "  failures: %d@." (List.length fs);
      List.iter (fun f -> Fmt.pf ppf "    %a@." Oracle.pp_failure f) fs);
  match s.corpus_files with
  | [] -> ()
  | files ->
      Fmt.pf ppf "  corpus files:@.";
      List.iter (fun p -> Fmt.pf ppf "    %s@." p) files

(* Every [lockstep_every]-th iteration also runs the model-conformance
   oracle; per-case work stays bounded while a 10k-iteration smoke still
   performs 2.5k lockstep playouts. *)
let lockstep_every = 4

(* One iteration: generate the case, execute it under the recording
   scheduler, evaluate the per-case oracles. Pure in (seed, iter,
   planted), so iterations can run on any pool domain. *)
let iteration ~seed ~planted iter =
  let case = Case.generate ~planted (Oracle.case_stream ~seed ~iter) in
  let t, codes = Oracle.run_recorded ~seed ~iter case in
  Obs.Metrics.incr M.cases;
  let lin =
    match Oracle.lin_check case t with
    | Ok () -> None
    | Error detail ->
        Some
          {
            Oracle.oracle = "lin";
            seed;
            iter;
            case = Some case;
            schedule = codes;
            detail;
          }
  in
  let model =
    if iter mod lockstep_every = 0 then Oracle.model_lockstep ~seed ~iter
    else None
  in
  (lin, model)

let shrink_failure ~seed (f : Oracle.failure) =
  match (f.oracle, f.case) with
  | "lin", Some case ->
      let fails codes = Oracle.lin_fails ~seed ~iter:f.iter case codes in
      let schedule = Shrink.minimize ~fails f.schedule in
      Obs.Metrics.add M.shrink_attempts (Shrink.attempts_used ());
      { f with schedule }
  | _ -> f

let run ?(jobs = 1) ?corpus_dir ?(planted = false) ?(dist_trials = 400)
    ?(max_failures = 10) ~seed ~budget () =
  Par.Pool.with_pool ~jobs @@ fun pool ->
  let deadline =
    match budget with
    | Iterations _ -> None
    | Seconds sec -> Some ((Obs.Span.now_us () /. 1e6) +. sec)
  in
  let total = match budget with Iterations n -> n | Seconds _ -> max_int in
  let failures = ref [] (* newest first *) in
  let nfailures = ref 0 in
  let lin_checks = ref 0 in
  let model_checks = ref 0 in
  let iter = ref 0 in
  let stop = ref false in
  let batch_size = 128 in
  while
    (not !stop) && !iter < total
    && Option.fold ~none:true
         ~some:(fun d -> Obs.Span.now_us () /. 1e6 < d)
         deadline
  do
    let b = min batch_size (total - !iter) in
    let base = !iter in
    let results =
      Par.Pool.map pool ~n:b (fun j -> iteration ~seed ~planted (base + j))
    in
    Array.iteri
      (fun j (lin, model) ->
        incr lin_checks;
        if (base + j) mod lockstep_every = 0 then incr model_checks;
        List.iter
          (fun failure ->
            match failure with
            | None -> ()
            | Some f ->
                failures := f :: !failures;
                incr nfailures;
                Obs.Metrics.incr M.failures)
          [ lin; model ])
      results;
    iter := !iter + b;
    if !nfailures >= max_failures then stop := true
  done;
  (* Session oracles: distribution compatibility (Theorem 4.1),
     seq-vs-par identity and pruning soundness. Run on the calling
     domain, after the sweep, so the first's Monte-Carlo batches can
     reuse the pool; the par oracle spawns a private pool and the prune
     oracle runs on the calling domain, keeping their verdicts (and the
     printed summary) independent of --jobs. *)
  let dist_failure = Oracle.dist ~pool ~seed ~trials:dist_trials ~k:2 () in
  let par_failure = Oracle.par_identity ~seed ~trials:200 () in
  let prune_failure = Oracle.prune_vs_exact ~seed () in
  List.iter
    (function
      | None -> ()
      | Some f ->
          failures := f :: !failures;
          Obs.Metrics.incr M.failures)
    [ dist_failure; par_failure; prune_failure ];
  let shrunk = List.rev_map (shrink_failure ~seed) !failures in
  let corpus_files =
    match corpus_dir with
    | None -> []
    | Some dir ->
        List.map
          (fun (f : Oracle.failure) ->
            Corpus.write ~dir
              {
                Corpus.seed;
                iter = f.iter;
                oracle = f.oracle;
                case = f.case;
                schedule = f.schedule;
                expect = Corpus.Fail;
                detail = f.detail;
              })
          shrunk
  in
  {
    seed;
    iterations = !iter;
    lin_checks = !lin_checks;
    model_checks = !model_checks;
    dist_checks = 1;
    par_checks = 1;
    prune_checks = 1;
    failures = shrunk;
    corpus_files;
  }

(* ---- corpus replay --------------------------------------------------- *)

(* Attribution of a replayed schedule: the enabled-set size of every
   decision and the kind of event chosen, as seen by the replay guide. *)
let pp_decisions ppf ds =
  let n = List.length ds in
  let sizes = List.map fst ds in
  let count p = List.length (List.filter p ds) in
  let chosen kind = count (fun (_, e) -> kind e) in
  let plural n one many = if n = 1 then one else many in
  let steps = chosen (function Sim.Runtime.Step _ -> true | _ -> false)
  and delivers = chosen (function Sim.Runtime.Deliver _ -> true | _ -> false)
  and crashes = chosen (function Sim.Runtime.Crash _ -> true | _ -> false) in
  Fmt.pf ppf
    "adversary decisions: %d (%d forced), enabled set %d..%d (mean %.1f); \
     chosen: %d step%s, %d deliver%s, %d crash%s"
    n
    (count (fun (size, _) -> size <= 1))
    (List.fold_left min max_int sizes)
    (List.fold_left max 0 sizes)
    (float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int n)
    steps (plural steps "" "s") delivers
    (plural delivers "y" "ies")
    crashes
    (plural crashes "" "es")

(* The Ok/Error message names the oracle and its diagnostic; a [lin]
   entry, the one schedule replay, also summarizes what the adversary
   chose at each decision point of the (shrunk) schedule. *)
let replay_entry (e : Corpus.t) =
  let decisions = ref [] in
  let observe n chosen = decisions := (n, chosen) :: !decisions in
  let failure_detail =
    match (e.oracle, e.case) with
    | "lin", Some case -> (
        match
          Oracle.lin_check case
            (Oracle.replay ~observe ~seed:e.seed ~iter:e.iter case e.schedule)
        with
        | Ok () -> None
        | Error detail -> Some detail)
    | "model", _ ->
        Option.map
          (fun (f : Oracle.failure) -> f.detail)
          (Oracle.model_lockstep ~seed:e.seed ~iter:e.iter)
    | "dist", _ ->
        Option.map
          (fun (f : Oracle.failure) -> f.detail)
          (Oracle.dist ~seed:e.seed ~trials:400 ~k:2 ())
    | "par", _ ->
        Option.map
          (fun (f : Oracle.failure) -> f.detail)
          (Oracle.par_identity ~seed:e.seed ~trials:200 ())
    | "prune", _ ->
        Option.map
          (fun (f : Oracle.failure) -> f.detail)
          (Oracle.prune_vs_exact ~seed:e.seed ())
    | oracle, _ -> Fmt.failwith "corpus entry with unknown oracle %S" oracle
  in
  let attribution =
    match !decisions with
    | [] -> ""
    | ds -> Fmt.str "\n  %a" pp_decisions ds
  in
  let oracle_line =
    match failure_detail with
    | Some detail -> Fmt.str "\n  failing oracle: %s — %s" e.oracle detail
    | None -> ""
  in
  match (e.expect, failure_detail <> None) with
  | Corpus.Fail, true ->
      Ok
        (Fmt.str "reproduced expected failure: %a%s%s" Corpus.pp e oracle_line
           attribution)
  | Corpus.Pass, false ->
      Ok (Fmt.str "passed as expected: %a%s" Corpus.pp e attribution)
  | Corpus.Fail, false ->
      Error
        (Fmt.str "expected failure did not reproduce: %a (oracle %s now \
                  passes)%s" Corpus.pp e e.oracle attribution)
  | Corpus.Pass, true ->
      Error
        (Fmt.str "regression: previously passing entry fails: %a%s%s" Corpus.pp
           e oracle_line attribution)

let replay_file path =
  Result.bind (Corpus.read path) replay_entry
