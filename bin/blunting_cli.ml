(* Command-line interface to the reproduction:

     blunting solve -k 2            exact adversary value for ABD^k
     blunting solve --atomic         exact adversary value, atomic registers
     blunting figure1 --coin 0 --trace
     blunting bound -n 3 -r 1 -k 4
     blunting mc --registers abd -k 2 --trials 1000
     blunting lin-sweep --object abd --trials 50
     blunting trace --registers abd -o weakener.trace.json
     blunting metrics --workload mc --json
     blunting bench-diff BASELINE.json CURRENT.json
     blunting fuzz --seed 42 --budget 10000 --jobs 4
     blunting fuzz --replay test/corpus/fuzz-lin-s7-i0.json

   Every subcommand accepts --verbosity LEVEL (quiet|app|error|warning|
   info|debug) to surface the structured logs of the blunting.sim,
   blunting.mdp and blunting.adversary sources.
*)

open Cmdliner
open Util

(* ---- common --------------------------------------------------------- *)

(* Evaluated before each command body: install the Logs reporter. *)
let verbosity_term =
  let arg =
    Arg.(
      value
      & opt string "warning"
      & info [ "verbosity" ] ~docv:"LEVEL"
          ~doc:
            "Log verbosity: $(b,quiet), $(b,app), $(b,error), $(b,warning), \
             $(b,info) or $(b,debug).")
  in
  let setup v =
    match Obs.Log.set_verbosity v with
    | Ok () -> ()
    | Error e ->
        Fmt.epr "%s@." e;
        exit 2
  in
  Term.(const setup $ arg)

(* Counts that must be at least [lo]: anything else is a usage error
   (cmdliner's exit 124) before any work starts, not an exception out of
   the library. *)
let int_at_least lo =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some j when j >= lo -> Ok j
        | _ ->
            Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))),
      Fmt.int )

let positive = int_at_least 1

(* Shared --jobs flag of the Monte-Carlo and fuzz commands. Tallies and
   oracle verdicts are bit-identical at every job count; only wall time
   changes. *)
let jobs_term =
  Arg.(
    value & opt positive 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run on $(docv) domains (default 1). Results are bit-identical at \
           every job count.")

let registers_enum =
  Arg.enum [ ("atomic", `Atomic); ("abd", `Abd); ("abd-k", `Abd_k) ]

let weakener_config registers k =
  match registers with
  | `Atomic -> Programs.Weakener.atomic_config ()
  | `Abd -> Programs.Weakener.abd_config ()
  | `Abd_k -> Programs.Weakener.abd_k_config ~k

(* ---- solve ---------------------------------------------------------- *)

let solve_cmd =
  let k_arg =
    Arg.(value & opt positive 1 & info [ "k" ] ~doc:"Preamble iterations for ABD\\$(b,^k)." ~docv:"K")
  in
  let atomic_arg =
    Arg.(value & flag & info [ "atomic" ] ~doc:"Solve the atomic-register game instead.")
  in
  let servers_arg =
    Arg.(value & opt (int_at_least 3) 3 & info [ "s"; "servers" ] ~doc:"Number of ABD replicas (>= 3).")
  in
  let abd_c_arg =
    Arg.(value & flag & info [ "abd-c" ] ~doc:"Model register C as ABD too (validates the atomic-C reduction).")
  in
  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Log live solver progress to stderr (memoized states, hit rate, \
             states/sec) every 50k states explored: the $(b,blunting.mdp) \
             source's info lines, whatever $(b,--verbosity) says.")
  in
  let prune_arg =
    Arg.(
      value & flag
      & info [ "prune" ]
          ~doc:
            "Cut subtrees against the a-priori upper bound 1 on every game \
             value: a max node stops once a child reaches 1, and a chance \
             node stops once its remaining branches could not lift the sum \
             even if each were worth 1. The reported probability is \
             bit-identical; only the explored state count shrinks.")
  in
  let run () k atomic servers abd_c prune progress =
    (* raise the source to info, never lower it below --verbosity *)
    if progress then
      Logs.Src.set_level Mdp.Solver.log_src
        (max (Some Logs.Info) (Logs.Src.level Mdp.Solver.log_src));
    let timed f =
      let t0 = Obs.Span.now_us () in
      let v = f () in
      (v, (Obs.Span.now_us () -. t0) /. 1e6)
    in
    if atomic then begin
      let v, wall_s =
        timed (fun () -> Model.Weakener_atomic.bad_probability ())
      in
      Fmt.pr "weakener with atomic registers:@.";
      Fmt.pr "  adversary-optimal Prob[p2 loops forever] = %.6f@." v;
      Fmt.pr "  guaranteed termination probability      = %.6f@." (1.0 -. v);
      Fmt.pr "  %a@." (Mdp.Solver.pp_summary ~wall_s)
        (Model.Weakener_atomic.solver_stats ())
    end
    else begin
      let v, wall_s =
        timed (fun () ->
            Model.Weakener_abd.bad_probability ~atomic_c:(not abd_c) ~servers
              ~prune ~k ())
      in
      let st = Model.Weakener_abd.solver_stats () in
      Fmt.pr "weakener with ABD^%d registers (%d replicas%s):@." k servers
        (if abd_c then ", C as ABD too" else "");
      Fmt.pr "  adversary-optimal Prob[p2 loops forever] = %.6f@." v;
      Fmt.pr "  guaranteed termination probability      = %.6f@." (1.0 -. v);
      Fmt.pr "  Theorem 4.2 upper bound on the former   = %.6f@."
        (Core.Bound.weakener_instance ~k);
      Fmt.pr "  solver: %a@." Mdp.Solver.pp_stats st;
      Fmt.pr "  %a@." (Mdp.Solver.pp_summary ~wall_s) st;
      if prune then
        Fmt.pr "  pruned subtrees: %d@." (Model.Weakener_abd.pruned_subtrees ())
    end
  in
  let doc = "Solve the exact adversary-vs-coin game of the weakener program." in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(
      const run $ verbosity_term $ k_arg $ atomic_arg $ servers_arg $ abd_c_arg
      $ prune_arg $ progress_arg)

(* ---- figure1 -------------------------------------------------------- *)

let figure1_cmd =
  let coin_arg =
    Arg.(value & opt int 0 & info [ "coin" ] ~doc:"Force the program coin (0 or 1)." ~docv:"COIN")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Dump the full execution trace.")
  in
  let run () coin trace =
    let t = Adversary.Figure1.run ~coin in
    if trace then Fmt.pr "%a@.@." Sim.Trace.pp (Sim.Runtime.trace t);
    let o = Sim.Runtime.outcome t in
    List.iter
      (fun tag ->
        match History.Outcome.find1 o tag with
        | Some v -> Fmt.pr "%s = %a@." tag Value.pp v
        | None -> Fmt.pr "%s = ?@." tag)
      [ Programs.Weakener.tag_u1; Programs.Weakener.tag_u2; Programs.Weakener.tag_c ];
    Fmt.pr "p2 %s@."
      (if Programs.Weakener.bad o then "LOOPS FOREVER (adversary wins)"
       else "terminates")
  in
  let doc =
    "Replay the Figure 1 strong adversary against the simulated ABD weakener."
  in
  Cmd.v (Cmd.info "figure1" ~doc) Term.(const run $ verbosity_term $ coin_arg $ trace_arg)

(* ---- bound ---------------------------------------------------------- *)

let bound_cmd =
  let n_arg = Arg.(value & opt positive 3 & info [ "n" ] ~doc:"Number of processes.") in
  let r_arg = Arg.(value & opt positive 1 & info [ "r" ] ~doc:"Program random steps.") in
  let k_arg = Arg.(value & opt positive 2 & info [ "k" ] ~doc:"Preamble iterations.") in
  let pa_arg =
    Arg.(value & opt float 0.5 & info [ "prob-atomic" ] ~doc:"Prob[O_a].")
  in
  let pl_arg = Arg.(value & opt float 1.0 & info [ "prob-lin" ] ~doc:"Prob[O].") in
  let run () n r k prob_atomic prob_lin =
    Fmt.pr "blunting fraction 1 - ((k-r)/k)^(n-1) = %.6f@."
      (Core.Bound.blunt_fraction ~n ~r ~k);
    Fmt.pr "Theorem 4.2: Prob[O^k] <= %.6f@."
      (Core.Bound.theorem_4_2 ~n ~r ~k ~prob_atomic ~prob_lin)
  in
  let doc = "Evaluate the Theorem 4.2 blunting bound." in
  Cmd.v (Cmd.info "bound" ~doc)
    Term.(const run $ verbosity_term $ n_arg $ r_arg $ k_arg $ pa_arg $ pl_arg)

(* ---- mc ------------------------------------------------------------- *)

let mc_cmd =
  let registers_arg =
    Arg.(value & opt registers_enum `Abd
         & info [ "registers" ] ~doc:"Register implementation." ~docv:"atomic|abd|abd-k")
  in
  let k_arg = Arg.(value & opt positive 2 & info [ "k" ] ~doc:"k for abd-k.") in
  let trials_arg = Arg.(value & opt positive 1000 & info [ "trials" ] ~doc:"Trials.") in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed.") in
  let run () registers k trials seed jobs =
    let config () = weakener_config registers k in
    let r =
      Adversary.Monte_carlo.estimate ~jobs ~trials ~seed
        ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad config
    in
    Fmt.pr "weakener, fair random scheduling: bad = %a@." Adversary.Monte_carlo.pp r
  in
  let doc = "Monte-Carlo estimate of the weakener's bad outcome under fair scheduling." in
  Cmd.v (Cmd.info "mc" ~doc)
    Term.(
      const run $ verbosity_term $ registers_arg $ k_arg $ trials_arg $ seed_arg
      $ jobs_term)

(* ---- lin-sweep ------------------------------------------------------ *)

let lin_sweep_cmd =
  let obj_arg =
    let impl =
      Arg.enum
        [
          ("abd", `Abd);
          ("abd-k", `Abd_k);
          ("va", `Va);
          ("il", `Il);
          ("snapshot", `Snapshot);
        ]
    in
    Arg.(value & opt impl `Abd & info [ "object" ] ~doc:"Which implementation." ~docv:"OBJ")
  in
  let k_arg = Arg.(value & opt positive 2 & info [ "k" ] ~doc:"k for abd-k.") in
  let trials_arg = Arg.(value & opt positive 50 & info [ "trials" ] ~doc:"Random schedules.") in
  let run () obj k trials =
    let open Sim.Proc.Syntax in
    let reg_spec = History.Spec.register ~init:(Value.int 0) in
    let snap_spec = History.Spec.snapshot ~n:3 ~init:(Value.int 0) in
    let rw o ~self =
      let call tag meth arg = Sim.Obj_impl.call o ~self ~tag ~meth ~arg in
      let* _ = call "w1" "write" (Value.int (self + 10)) in
      let* _ = call "r1" "read" Value.unit in
      Sim.Proc.return ()
    in
    let mk () =
      match obj with
      | `Abd ->
          let o = Objects.Abd.make ~name:"R" ~n:3 ~init:(Value.int 0) in
          (o, rw o, reg_spec)
      | `Abd_k ->
          let o = Objects.Abd.make_k ~k ~name:"R" ~n:3 ~init:(Value.int 0) in
          (o, rw o, reg_spec)
      | `Va ->
          let o = Objects.Vitanyi_awerbuch.make ~name:"R" ~n:3 ~init:(Value.int 0) in
          (o, rw o, reg_spec)
      | `Il ->
          let o = Objects.Israeli_li.make ~name:"R" ~n:3 ~writer:0 ~init:(Value.int 0) in
          let prog ~self =
            let call tag meth arg = Sim.Obj_impl.call o ~self ~tag ~meth ~arg in
            if self = 0 then
              let* _ = call "w" "write" (Value.int 5) in
              Sim.Proc.return ()
            else
              let* _ = call "r" "read" Value.unit in
              Sim.Proc.return ()
          in
          (o, prog, reg_spec)
      | `Snapshot ->
          let o = Objects.Afek_snapshot.make ~name:"S" ~n:3 ~init:(Value.int 0) in
          let prog ~self =
            let call tag meth arg = Sim.Obj_impl.call o ~self ~tag ~meth ~arg in
            let* _ = call "u" "update" (Value.pair (Value.int self) (Value.int self)) in
            let* _ = call "s" "scan" Value.unit in
            Sim.Proc.return ()
          in
          (o, prog, snap_spec)
    in
    let ok = ref 0 in
    for seed = 1 to trials do
      let o, program, spec = mk () in
      let config =
        {
          Sim.Runtime.n = 3;
          objects = [ o ];
          program;
          max_crashes = 0;
        }
      in
      let rng = Rng.of_int seed in
      let t = Sim.Runtime.create config (Sim.Runtime.Gen (Rng.split rng)) in
      (match Sim.Runtime.run t ~max_steps:1_000_000 (Adversary.Schedulers.uniform rng) with
      | Sim.Runtime.Completed ->
          if Lin.Check.check spec (Sim.Runtime.history t) then incr ok
      | _ -> ())
    done;
    Fmt.pr "linearizable histories: %d / %d@." !ok trials
  in
  let doc = "Check linearizability of an implementation over random schedules." in
  Cmd.v (Cmd.info "lin-sweep" ~doc)
    Term.(const run $ verbosity_term $ obj_arg $ k_arg $ trials_arg)

(* ---- ghw ------------------------------------------------------------ *)

let ghw_cmd =
  let k_arg =
    Arg.(value & opt positive 1 & info [ "k" ] ~doc:"Preamble iterations for Snapshot^k.")
  in
  let run () k =
    Fmt.pr "snapshot weakener, adversary-optimal Prob[bad]:@.";
    Fmt.pr "  atomic snapshot:  %.6f@."
      (Model.Ghw_snapshot_game.atomic_bad_probability ());
    Fmt.pr "  Afek snapshot^%d:  %.6f@." k
      (Model.Ghw_snapshot_game.afek_bad_probability ~k ())
  in
  let doc = "Solve the exact snapshot-weakener game (atomic vs Afek^k)." in
  Cmd.v (Cmd.info "ghw" ~doc)
    Term.(const run $ verbosity_term $ k_arg)

(* ---- trace ---------------------------------------------------------- *)

let trace_cmd =
  let registers_arg =
    Arg.(value & opt registers_enum `Abd
         & info [ "registers" ] ~doc:"Register implementation." ~docv:"atomic|abd|abd-k")
  in
  let k_arg = Arg.(value & opt positive 2 & info [ "k" ] ~doc:"k for abd-k.") in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scheduling seed.") in
  let sched_arg =
    let s = Arg.enum [ ("uniform", `Uniform); ("eager", `Eager) ] in
    Arg.(value & opt s `Uniform
         & info [ "scheduler" ] ~doc:"Event scheduler." ~docv:"uniform|eager")
  in
  let out_arg =
    Arg.(value & opt string "weakener.trace.json"
         & info [ "o"; "output" ] ~doc:"Output file." ~docv:"PATH")
  in
  let format_arg =
    let f = Arg.enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ] in
    Arg.(value & opt f `Chrome
         & info [ "format" ]
             ~doc:
               "Export format: $(b,chrome) (load in Perfetto / \
                chrome://tracing) or $(b,jsonl) (one JSON object per entry)."
             ~docv:"chrome|jsonl")
  in
  let run () registers k seed sched output format =
    let config = weakener_config registers k in
    let rng = Rng.of_int seed in
    let t = Sim.Runtime.create config (Sim.Runtime.Gen (Rng.split rng)) in
    let scheduler =
      match sched with
      | `Uniform -> Adversary.Schedulers.uniform rng
      | `Eager -> Adversary.Schedulers.eager_delivery
    in
    let result = Sim.Runtime.run t ~max_steps:2_000_000 scheduler in
    let tr = Sim.Runtime.trace t in
    (try
       match format with
       | `Chrome -> Sim.Trace_export.write_chrome ~path:output tr
       | `Jsonl -> Sim.Trace_export.write_jsonl ~path:output tr
     with Sys_error e ->
       Fmt.epr "cannot write trace: %s@." e;
       exit 1);
    Fmt.pr "run %a: %d steps, %d messages@." Sim.Runtime.pp_run_result result
      (Sim.Trace.count_steps tr) (Sim.Trace.count_messages tr);
    Fmt.pr "%s trace written to %s@."
      (match format with `Chrome -> "Chrome/Perfetto" | `Jsonl -> "JSONL")
      output;
    match format with
    | `Chrome ->
        Fmt.pr "open it at https://ui.perfetto.dev or chrome://tracing@."
    | `Jsonl -> ()
  in
  let doc =
    "Run the weakener once and export the execution as a structured trace \
     (Chrome/Perfetto or JSONL)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ verbosity_term $ registers_arg $ k_arg $ seed_arg $ sched_arg
      $ out_arg $ format_arg)

(* ---- metrics -------------------------------------------------------- *)

let metrics_cmd =
  let workload_arg =
    let w = Arg.enum [ ("mc", `Mc); ("solve", `Solve); ("figure1", `Figure1) ] in
    Arg.(value & opt w `Mc
         & info [ "workload" ]
             ~doc:"Workload to run before dumping the metrics registry."
             ~docv:"mc|solve|figure1")
  in
  let k_arg = Arg.(value & opt positive 1 & info [ "k" ] ~doc:"k for the workload.") in
  let trials_arg = Arg.(value & opt positive 200 & info [ "trials" ] ~doc:"MC trials.") in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Dump the snapshot as JSON instead of a table.")
  in
  let run () workload k trials json =
    (match workload with
    | `Mc ->
        ignore
          (Adversary.Monte_carlo.estimate ~trials ~seed:42
             ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
             Programs.Weakener.abd_config)
    | `Solve -> ignore (Model.Weakener_abd.bad_probability ~k ())
    | `Figure1 -> ignore (Adversary.Figure1.run ~coin:0));
    if json then print_endline (Obs.Json.to_string (Obs.Metrics.snapshot ()))
    else Fmt.pr "%a@." Obs.Metrics.pp ()
  in
  let doc =
    "Run a workload and dump the process-wide metrics registry: every \
     counter's value."
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(const run $ verbosity_term $ workload_arg $ k_arg $ trials_arg $ json_arg)

(* ---- bench-diff ----------------------------------------------------- *)

let bench_diff_cmd =
  let baseline_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline results document (BENCH_*.json).")
  in
  let current_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Current results document to compare.")
  in
  let run () baseline current =
    match Obs.Diff.run_files ~baseline ~current Fmt.stdout with
    | Ok rc -> exit rc
    | Error e ->
        Fmt.epr "%s@." e;
        exit 2
  in
  let doc =
    "Diff two bench results documents: paper-vs-measured drift in CURRENT is \
     a hard failure, and so is CURRENT-vs-BASELINE drift on any row value \
     or section metric (every one is deterministic). Exits 1 on hard \
     failures, 2 on unreadable or schema-invalid input."
  in
  Cmd.v (Cmd.info "bench-diff" ~doc)
    Term.(const run $ verbosity_term $ baseline_arg $ current_arg)

(* ---- fuzz ----------------------------------------------------------- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Session seed. With an iteration budget the whole session — \
             cases, schedules, failures, corpus files — is a pure function \
             of the seed.")
  in
  let budget_arg =
    Arg.(
      value & opt string "10000"
      & info [ "budget" ] ~docv:"BUDGET"
          ~doc:
            "Fuzzing budget: an iteration count ($(b,10000)) or a duration \
             ($(b,300s), $(b,5m)). Durations trade determinism for \
             wall-clock control.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:"Write one replayable corpus file per shrunk failure to $(docv).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a single corpus file instead of fuzzing and check its \
             recorded expectation.")
  in
  let planted_arg =
    Arg.(
      value & flag
      & info [ "planted" ]
          ~doc:
            "Plant a known linearizability bug (ABD without read write-back) \
             in every case; used to exercise the shrinker and corpus paths.")
  in
  let run () seed budget corpus_dir replay planted jobs =
    match replay with
    | Some path -> (
        match Fuzz.Engine.replay_file path with
        | Ok msg ->
            Fmt.pr "%s@." msg;
            exit 0
        | Error msg ->
            Fmt.epr "%s@." msg;
            exit 1)
    | None -> (
        match Fuzz.Engine.parse_budget budget with
        | Error e ->
            Fmt.epr "%s@." e;
            exit 2
        | Ok budget ->
            let summary =
              Fuzz.Engine.run ~jobs ?corpus_dir ~planted ~seed ~budget ()
            in
            Fmt.pr "%a" Fuzz.Engine.pp_summary summary;
            exit (if Fuzz.Engine.has_failures summary then 1 else 0))
  in
  let doc =
    "Fuzz the simulator against its five oracles: per-object \
     linearizability of every generated history, lockstep conformance with \
     the weakener game model, ABD-vs-ABD$(b,^k) outcome-distribution \
     compatibility (Theorem 4.1), Monte-Carlo tally identity at 1 vs 2 \
     jobs and pruning soundness on random layered games. Failures are \
     shrunk to a minimal schedule prefix and written as replayable corpus \
     files. Exits 1 if any oracle failed."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ verbosity_term $ seed_arg $ budget_arg $ corpus_arg
      $ replay_arg $ planted_arg $ jobs_term)

(* ---- main ----------------------------------------------------------- *)

let () =
  let doc =
    "Blunting an adversary against randomized concurrent programs (PODC 2022 \
     reproduction)."
  in
  let info = Cmd.info "blunting" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd;
            figure1_cmd;
            bound_cmd;
            mc_cmd;
            lin_sweep_cmd;
            ghw_cmd;
            trace_cmd;
            metrics_cmd;
            bench_diff_cmd;
            fuzz_cmd;
          ]))
