(* The experiment harness: regenerates every quantitative claim of the
   paper (there are no machine-run tables in the original — the
   "evaluation" is Figure 1 and the Appendix A case-study numbers, plus the
   Theorem 4.2 bound), one section per experiment of DESIGN.md's index.
   It reports values, state counts and bounds; the wall times it prints
   are single-run context, and perf/ is what judges time.

     dune exec bench/main.exe                    # all experiments
     dune exec bench/main.exe -- --json out.json # also write the results document
     dune exec bench/main.exe -- --only E1,E4    # run a subset
     dune exec bench/main.exe -- --progress      # solver progress lines on stderr
     dune exec bench/main.exe -- --verbosity info
     dune exec bench/main.exe -- --jobs 4        # parallel Monte-Carlo; PAR at 4 jobs
     BLUNTING_KMAX=3 dune exec bench/main.exe    # cap the exact solver's k

   Exact solves are sequential. --jobs (default 1) parallelises the
   Monte-Carlo sections, whose tallies are bit-identical at any job
   count, and sets PAR's job count. Logs go to stderr at --verbosity
   (default warning); --progress raises the blunting.mdp source to info,
   whose progress line a running solve logs every 50,000 states. An
   --only id that names no section is a usage error (exit 2).

   The --json document follows the Obs.Results schema (see
   lib/obs/results.mli and EXPERIMENTS.md): per-section paper-vs-measured
   rows and section metrics (solver statistics, Monte-Carlo tallies, and
   the section's counter deltas), every one deterministic.
   `blunting bench-diff BASELINE CURRENT` compares it against a committed
   BENCH_*.json. *)

open Util

(* ---- command line --------------------------------------------------- *)

type options = {
  json_path : string option;
  only : string list option;  (* uppercased section ids *)
  jobs : int;
}

let options =
  let json_path = ref None
  and only = ref None
  and progress = ref false
  (* 1, not the core count: see the header on what --jobs runs in
     parallel *)
  and jobs = ref 1
  and verbosity = ref "warning" in
  let usage () =
    Fmt.epr
      "usage: main.exe [--json PATH] [--only E1,E2,...] \
       [--progress] [--jobs N] [--verbosity LEVEL]@.";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--only" :: ids :: rest ->
        only :=
          Some
            (String.split_on_char ',' ids
            |> List.map String.trim
            |> List.filter (fun s -> s <> "")
            |> List.map String.uppercase_ascii);
        parse rest
    | "--progress" :: rest ->
        progress := true;
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs := j
        | _ ->
            Fmt.epr "--jobs expects a positive integer@.";
            exit 2);
        parse rest
    | "--verbosity" :: v :: rest ->
        verbosity := v;
        parse rest
    | arg :: _ ->
        Fmt.epr "unknown argument %s@." arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* the CLI's reporter and default level; --progress raises the
     solver's source to info, never lowers it below --verbosity *)
  (match Obs.Log.set_verbosity !verbosity with
  | Ok () -> ()
  | Error e ->
      Fmt.epr "%s@." e;
      exit 2);
  if !progress then
    Logs.Src.set_level Mdp.Solver.log_src
      (max (Some Logs.Info) (Logs.Src.level Mdp.Solver.log_src));
  { json_path = !json_path; only = !only; jobs = !jobs }

let runs id =
  match options.only with
  | None -> true
  | Some ids -> List.mem (String.uppercase_ascii id) ids

(* [time f] is [f ()] with its wall time in seconds. *)
let time f =
  let t0 = Obs.Span.now_us () in
  let v = f () in
  (v, (Obs.Span.now_us () -. t0) /. 1e6)

(* BLUNTING_KMAX caps the exact solver's k (default 4); a value that is
   not a positive integer is a usage error, not the default. *)
let kmax =
  match Sys.getenv_opt "BLUNTING_KMAX" with
  | None -> 4
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 -> k
      | _ ->
          Fmt.epr "BLUNTING_KMAX expects a positive integer, got %S@." s;
          exit 2)

(* Per-solve solver work: the stats delta around [f]. *)
let stats_delta (b : Mdp.Solver.stats) (a : Mdp.Solver.stats) : Mdp.Solver.stats =
  {
    states = a.states - b.states;
    memo_hits = a.memo_hits - b.memo_hits;
    memo_misses = a.memo_misses - b.memo_misses;
    max_depth = a.max_depth;
  }

let timed_solve f =
  let before = Model.Weakener_abd.solver_stats () in
  let v, dt = time f in
  let after = Model.Weakener_abd.solver_stats () in
  (v, dt, stats_delta before after)

let pp_hit_rate ppf s = Fmt.pf ppf "%.1f%%" (100.0 *. Mdp.Solver.hit_rate s)

(* ------------------------------------------------------------------ *)

let e1_atomic () =
  let r = Report.section ~id:"E1" ~title:"Appendix A.1 — weakener with atomic registers" () in
  let v, dt = time Model.Weakener_atomic.bad_probability in
  let mc =
    Adversary.Monte_carlo.estimate ~jobs:options.jobs ~trials:2_000 ~seed:101
      ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
      Programs.Weakener.atomic_config
  in
  Report.row r ~quantity:"adversary-optimal Prob[p2 loops]" ~paper:"exactly 1/2"
    ~paper_value:0.5 ~measured_value:v
    ~measured:(Fmt.str "%.6f (exact, %.2fs)" v dt)
    ();
  Report.row r ~quantity:"termination probability" ~paper:">= 1/2" ~paper_value:0.5
    ~measured_value:(1.0 -. v)
    ~measured:(Fmt.str "%.6f" (1.0 -. v))
    ();
  Report.row r ~quantity:"fair-scheduler Prob[p2 loops]" ~paper:"(not adversarial)"
    ~measured_value:mc.fraction
    ~measured:(Fmt.str "%a" Adversary.Monte_carlo.pp mc)
    ();
  Report.metrics r (Report.mc_json mc);
  Report.finish r

let e2_abd () =
  let r =
    Report.section ~id:"E2" ~title:"Figure 1 / Appendix A.2 — weakener with plain ABD" ()
  in
  Model.Weakener_abd.reset ();
  let wins = Adversary.Figure1.always_wins () in
  let v, dt, st =
    timed_solve (fun () ->
        Model.Weakener_abd.bad_probability ~k:1 ())
  in
  Report.row r ~quantity:"Figure 1 adversary vs simulated ABD"
    ~paper:"wins for both coin values"
    ~measured:(if wins then "wins for both coin values" else "FAILED")
    ();
  Report.row r ~quantity:"adversary-optimal Prob[p2 loops] (exact game)"
    ~paper:"1 (termination prob 0)" ~paper_value:1.0 ~measured_value:v
    ~measured:(Fmt.str "%.6f (%.2fs, %d states)" v dt st.states)
    ();
  let vc, dtc, stc =
    timed_solve (fun () ->
        Model.Weakener_abd.bad_probability ~atomic_c:false ~k:1 ())
  in
  Report.row r ~quantity:"same, with C also implemented as ABD"
    ~paper:"(substitution check)" ~measured_value:vc
    ~measured:(Fmt.str "%.6f (%.1fs)" vc dtc)
    ();
  Report.table_row r
    [
      "solver cost (k=1 / k=1 with ABD C)";
      "(not in paper)";
      Fmt.str "%d / %d states, hit rate %a / %a, %.2fs / %.2fs" st.states stc.states
        pp_hit_rate st pp_hit_rate stc dt dtc;
    ];
  Report.metrics r
    (Report.solver_stats_json (Model.Weakener_abd.solver_stats ())
    @ [
        ("states_k1", Obs.Json.Int st.states);
        ("states_k1_abd_c", Obs.Json.Int stc.states);
      ]);
  Report.finish r;
  (* the optimal adversary extracted from the solved game: a machine-derived
     counterpart of Figure 1's schedule *)
  Fmt.pr "@.Machine-derived optimal adversary (k = 1), first moves:@.  ";
  let rec walk s n =
    if n = 0 then Fmt.pr "...@."
    else
      match Model.Weakener_abd.best_move s with
      | None -> Fmt.pr "(outcome fixed)@."
      | Some m -> (
          Fmt.pr "%a; " Model.Weakener_abd.Game.pp_move m;
          match Model.Weakener_abd.Game.apply s m with
          | Model.Weakener_abd.Game.Det s' -> walk s' (n - 1)
          | Model.Weakener_abd.Game.Chance dist ->
              Fmt.pr "<chance>; ";
              walk (snd (List.hd dist)) (n - 1))
  in
  walk (Model.Weakener_abd.init ~k:1 ()) 26;
  (* the Figure 1 execution, abridged: p2's reads and the coin *)
  Fmt.pr "@.Figure 1 witness (coin = 0), final reads:@.";
  let tr = Adversary.Figure1.run ~coin:0 in
  let o = Sim.Runtime.outcome tr in
  List.iter
    (fun tag ->
      match History.Outcome.find1 o tag with
      | Some v -> Fmt.pr "  %s = %a@." tag Value.pp v
      | None -> ())
    [ Programs.Weakener.tag_u1; Programs.Weakener.tag_u2; Programs.Weakener.tag_c ]

let e3_abd2 () =
  let r = Report.section ~id:"E3" ~title:"Appendix A.3 — weakener with ABD^2" () in
  Model.Weakener_abd.reset ();
  let v, dt, st =
    timed_solve (fun () ->
        Model.Weakener_abd.bad_probability ~k:2 ())
  in
  let generic = Core.Bound.weakener_instance ~k:2 in
  Report.row r ~quantity:"generic bound on Prob[p2 loops] (Thm 4.2)" ~paper:"7/8 = 0.875"
    ~paper_value:0.875 ~measured_value:generic
    ~measured:(Fmt.str "%.6f" generic)
    ();
  Report.row r ~quantity:"refined bound on Prob[p2 loops] (A.3.2)" ~paper:"5/8 = 0.625"
    ~paper_value:0.625 ~measured:"5/8 (analytical)" ();
  Report.row r ~quantity:"exact adversary-optimal Prob[p2 loops]" ~paper:"<= 5/8"
    ~paper_value:0.625 ~measured_value:v
    ~measured:(Fmt.str "%.6f (%.2fs) — the refined bound is tight" v dt)
    ();
  Report.row r ~quantity:"termination probability" ~paper:">= 3/8 = 0.375"
    ~paper_value:0.375 ~measured_value:(1.0 -. v)
    ~measured:(Fmt.str "%.6f" (1.0 -. v))
    ();
  let vc, dtc, stc =
    timed_solve (fun () ->
        Model.Weakener_abd.bad_probability ~atomic_c:false ~k:2 ())
  in
  Report.row r ~quantity:"same, with C also implemented as ABD^2"
    ~paper:"(substitution check)" ~measured_value:vc
    ~measured:(Fmt.str "%.6f (%.1fs)" vc dtc)
    ();
  Report.table_row r
    [
      "solver cost (k=2 / k=2 with ABD C)";
      "(not in paper)";
      Fmt.str "%d / %d states, hit rate %a / %a" st.states stc.states pp_hit_rate st
        pp_hit_rate stc;
    ];
  Report.metrics r
    [
      ("states_k2", Obs.Json.Int st.states);
      ("states_k2_abd_c", Obs.Json.Int stc.states);
      ("solver_max_depth", Obs.Json.Int st.max_depth);
    ];
  Report.finish r;
  (* the same one-line summary [blunting solve] prints *)
  Fmt.pr "@.  k=2: %a@." (Mdp.Solver.pp_summary ~wall_s:dt) st;
  Fmt.pr "  k=2, C as ABD: %a@." (Mdp.Solver.pp_summary ~wall_s:dtc) stc

let e4_bound_table () =
  let r =
    Report.section ~id:"E4"
      ~title:"Theorem 4.2 — the blunting bound (the paper's formula)"
      ~headers:[] ()
  in
  Fmt.pr
    "Prob[O^k] <= Prob[O_a] + [1 - (max(0,k-r)/k)^(n-1)] (Prob[O] - Prob[O_a])@.@.";
  Fmt.pr "Blunting fraction 1 - ((k-r)/k)^(n-1):@.";
  let ks = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let t = Table.create ("n \\ r, k" :: List.map (fun k -> Fmt.str "k=%d" k) ks) in
  List.iter
    (fun (n, rr) ->
      Table.add_row t
        (Fmt.str "n=%d r=%d" n rr
        :: List.map (fun k -> Fmt.str "%.4f" (Core.Bound.blunt_fraction ~n ~r:rr ~k)) ks))
    [ (2, 1); (3, 1); (3, 2); (5, 1); (5, 3); (10, 2) ];
  Table.print t;
  Fmt.pr "@.Weakener instance (n=3, r=1, Prob[O_a]=1/2, Prob[O]=1):@.";
  let t2 = Table.create [ "k"; "bound on Prob[p2 loops]"; "guaranteed termination" ] in
  List.iter
    (fun k ->
      let b = Core.Bound.weakener_instance ~k in
      Table.add_row t2 [ string_of_int k; Fmt.str "%.6f" b; Fmt.str "%.6f" (1.0 -. b) ];
      Report.json_row r
        ~quantity:(Fmt.str "Thm 4.2 bound on Prob[p2 loops], k=%d" k)
        ~paper:"1/2 + ((k-1)/k)^2 / 2" ~measured_value:b
        ~measured:(Fmt.str "%.6f" b)
        ())
    [ 1; 2; 3; 4; 8; 16; 64 ];
  Table.print t2;
  Fmt.pr "@.k needed for a target blunting fraction (n=3, r=1):@.";
  let t3 = Table.create [ "epsilon"; "min k" ] in
  List.iter
    (fun eps ->
      let mk = Core.Bound.min_k_for ~n:3 ~r:1 ~epsilon:eps in
      Table.add_row t3 [ Fmt.str "%.3f" eps; string_of_int mk ];
      Report.json_row r
        ~quantity:(Fmt.str "min k for blunting fraction <= %.3f (n=3, r=1)" eps)
        ~paper:"smallest k with 1-((k-1)/k)^2 <= eps"
        ~measured_value:(float_of_int mk) ~measured:(string_of_int mk) ())
    [ 0.5; 0.25; 0.1; 0.01 ];
  Table.print t3;
  Report.finish r

let e5_convergence () =
  let r =
    Report.section ~id:"E5"
      ~title:"Convergence of Prob[ABD^k] to the atomic probability"
      ~headers:
        [ "k"; "exact Prob[bad]"; "Thm 4.2 bound"; "(k^2+1)/(2k^2)"; "states"; "hit rate"; "time" ]
      ()
  in
  Fmt.pr "Exact adversary-optimal values (memoized expectimax over the@.";
  Fmt.pr "message-level game); the paper proves convergence to 1/2.@.@.";
  Model.Weakener_abd.reset ();
  let summaries = ref [] in
  for k = 1 to kmax do
    let v, dt, st =
      timed_solve (fun () ->
          Model.Weakener_abd.bad_probability ~k ())
    in
    summaries := (k, dt, st) :: !summaries;
    let law = (float_of_int (k * k) +. 1.0) /. (2.0 *. float_of_int (k * k)) in
    Report.table_row r
      [
        string_of_int k;
        Fmt.str "%.6f" v;
        Fmt.str "%.6f" (Core.Bound.weakener_instance ~k);
        Fmt.str "%.6f" law;
        string_of_int st.states;
        Fmt.str "%a" pp_hit_rate st;
        Fmt.str "%.1fs" dt;
      ];
    Report.json_row r
      ~quantity:(Fmt.str "exact Prob[bad], ABD^%d" k)
      ~paper:(Fmt.str "<= %.6f (Thm 4.2); law (k^2+1)/(2k^2) = %.6f"
                (Core.Bound.weakener_instance ~k) law)
      ~paper_value:law ~measured_value:v
      ~measured:(Fmt.str "%.6f" v)
      ();
    Report.metrics r [ (Fmt.str "states_k%d" k, Obs.Json.Int st.states) ]
  done;
  Report.metrics r
    (Report.solver_stats_json (Model.Weakener_abd.solver_stats ()));
  Report.finish r;
  (* the same one-line summary [blunting solve] prints, per k *)
  Fmt.pr "@.";
  List.iter
    (fun (k, dt, st) ->
      Fmt.pr "  k=%d: %a@." k (Mdp.Solver.pp_summary ~wall_s:dt) st)
    (List.rev !summaries);
  Fmt.pr
    "@.The exact optimum follows (k^2+1)/(2k^2) on this instance — strictly@.\
     inside the paper's worst-case bound and converging to the atomic 1/2.@."

let run_random_config ?(max_steps = 1_000_000) ~seed config =
  let rng = Rng.of_int seed in
  let t = Sim.Runtime.create config (Sim.Runtime.Gen (Rng.split rng)) in
  match Sim.Runtime.run t ~max_steps (Adversary.Schedulers.uniform rng) with
  | Sim.Runtime.Completed -> t
  | _ -> failwith "bench run did not complete"

let rw_config obj =
  let open Sim.Proc.Syntax in
  let program ~self =
    let call tag meth arg = Sim.Obj_impl.call obj ~self ~tag ~meth ~arg in
    let* _ = call "w1" "write" (Value.int (self + 10)) in
    let* _ = call "r1" "read" Value.unit in
    let* _ = call "w2" "write" (Value.int (self + 20)) in
    let* _ = call "r2" "read" Value.unit in
    Sim.Proc.return ()
  in
  {
    Sim.Runtime.n = 3;
    objects = [ obj ];
    program;
    max_crashes = 0;
  }

let e6_linearizability () =
  let r =
    Report.section ~id:"E6"
      ~title:"Theorem 4.1 — O^k equivalent to O; every object linearizable"
      ~headers:[ "object"; "linearizable histories / random schedules" ] ()
  in
  let reg_spec = History.Spec.register ~init:(Value.int 0) in
  let snap_spec = History.Spec.snapshot ~n:3 ~init:(Value.int 0) in
  let sweep name spec mk_config =
    let trials = 60 in
    let ok = ref 0 in
    for seed = 1 to trials do
      let t = run_random_config ~seed (mk_config ()) in
      if Lin.Check.check spec (Sim.Runtime.history t) then incr ok
    done;
    (name, !ok, trials)
  in
  let snapshot_config () =
    let obj = Objects.Afek_snapshot.make ~name:"S" ~n:3 ~init:(Value.int 0) in
    let open Sim.Proc.Syntax in
    let program ~self =
      let call tag meth arg = Sim.Obj_impl.call obj ~self ~tag ~meth ~arg in
      let* _ =
        call "u" "update" (Value.pair (Value.int self) (Value.int (self + 1)))
      in
      let* _ = call "s" "scan" Value.unit in
      Sim.Proc.return ()
    in
    {
      Sim.Runtime.n = 3;
      objects = [ obj ];
      program;
      max_crashes = 0;
    }
  in
  List.iter
    (fun (name, ok, trials) ->
      Report.table_row r [ name; Fmt.str "%d / %d" ok trials ];
      Report.json_row r
        ~quantity:(Fmt.str "%s linearizable histories" name)
        ~paper:"all (Thm 4.1)" ~paper_value:(float_of_int trials)
        ~measured_value:(float_of_int ok)
        ~measured:(Fmt.str "%d / %d" ok trials)
        ())
    [
      sweep "ABD" reg_spec (fun () ->
          rw_config (Objects.Abd.make ~name:"R" ~n:3 ~init:(Value.int 0)));
      sweep "ABD^2" reg_spec (fun () ->
          rw_config (Objects.Abd.make_k ~k:2 ~name:"R" ~n:3 ~init:(Value.int 0)));
      sweep "ABD^4" reg_spec (fun () ->
          rw_config (Objects.Abd.make_k ~k:4 ~name:"R" ~n:3 ~init:(Value.int 0)));
      sweep "Vitanyi-Awerbuch" reg_spec (fun () ->
          rw_config (Objects.Vitanyi_awerbuch.make ~name:"R" ~n:3 ~init:(Value.int 0)));
      sweep "Vitanyi-Awerbuch^2" reg_spec (fun () ->
          rw_config
            (Objects.Vitanyi_awerbuch.make_k ~k:2 ~name:"R" ~n:3 ~init:(Value.int 0)));
      sweep "Afek snapshot" snap_spec snapshot_config;
    ];
  Report.metrics r
    [
      ( "lin_nodes_visited",
        Obs.Json.Int (Option.value ~default:0 (Obs.Metrics.find_counter "lin.nodes_visited")) );
      ( "lin_backtracks",
        Obs.Json.Int (Option.value ~default:0 (Obs.Metrics.find_counter "lin.backtracks")) );
    ];
  Report.finish r;
  (* Theorem 4.1, sequential-equivalence flavour: identical sequential
     outcomes for O and O^k *)
  let sequential_read k =
    let obj =
      if k = 0 then Objects.Abd.make ~name:"R" ~n:3 ~init:(Value.int 0)
      else Objects.Abd.make_k ~k ~name:"R" ~n:3 ~init:(Value.int 0)
    in
    let config = rw_config obj in
    let t = Sim.Runtime.create config (Sim.Runtime.Gen (Rng.of_int 1)) in
    (match
       Sim.Runtime.run t ~max_steps:1_000_000 Adversary.Schedulers.eager_delivery
     with
    | Sim.Runtime.Completed -> ()
    | _ -> failwith "sequential run failed");
    Fmt.str "%a" History.Outcome.pp (Sim.Runtime.outcome t)
  in
  let base = sequential_read 0 in
  Fmt.pr "@.Sequential outcomes identical for ABD vs ABD^k (Thm 4.1): %b@."
    (List.for_all (fun k -> sequential_read k = base) [ 1; 2; 4 ])

let e7_tail_strong () =
  let r =
    Report.section ~id:"E7" ~title:"Section 5 — tail strong linearizability evidence"
      ~headers:[ "object"; "prefix-preserving f on all complete prefixes" ] ()
  in
  (* Theorem 5.1: the timestamp linearization is prefix-preserving on
     sampled ABD executions (all Π-complete prefixes of each trace). *)
  let check ~k trials =
    let ok = ref 0 in
    for seed = 1 to trials do
      let obj =
        if k = 0 then Objects.Abd.make ~name:"R" ~n:3 ~init:(Value.int 0)
        else Objects.Abd.make_k ~k ~name:"R" ~n:3 ~init:(Value.int 0)
      in
      let t = run_random_config ~seed (rw_config obj) in
      if Lin.Abd_lin.prefix_preserving ~obj_name:"R" (Sim.Runtime.trace t) then incr ok
    done;
    (!ok, trials)
  in
  let add name (ok, n) =
    Report.table_row r [ name; Fmt.str "%d / %d traces" ok n ];
    Report.json_row r
      ~quantity:(Fmt.str "%s prefix-preserving traces" name)
      ~paper:"all (Sec 5)" ~paper_value:(float_of_int n) ~measured_value:(float_of_int ok)
      ~measured:(Fmt.str "%d / %d" ok n)
      ()
  in
  add "ABD (Thm 5.1)" (check ~k:0 40);
  add "ABD^2" (check ~k:2 20);
  let check_obj make_config obj_name trials =
    let ok = ref 0 in
    for seed = 1 to trials do
      let t = run_random_config ~seed (make_config ()) in
      if Lin.Abd_lin.prefix_preserving ~obj_name (Sim.Runtime.trace t) then incr ok
    done;
    (!ok, trials)
  in
  let va_config () =
    rw_config (Objects.Vitanyi_awerbuch.make ~name:"R" ~n:3 ~init:(Value.int 0))
  in
  let il_config () =
    let open Sim.Proc.Syntax in
    let obj = Objects.Israeli_li.make ~name:"R" ~n:3 ~writer:0 ~init:(Value.int 0) in
    let program ~self =
      if self = 0 then
        let* _ = Sim.Obj_impl.call obj ~self ~tag:"w" ~meth:"write" ~arg:(Value.int 1) in
        Sim.Proc.return ()
      else
        let* _ = Sim.Obj_impl.call obj ~self ~tag:"r" ~meth:"read" ~arg:Value.unit in
        Sim.Proc.return ()
    in
    { Sim.Runtime.n = 3; objects = [ obj ]; program; max_crashes = 0 }
  in
  add "Vitanyi-Awerbuch (Sec 5.3)" (check_obj va_config "R" 25);
  add "Israeli-Li (Sec 5.4)" (check_obj il_config "R" 25);
  Report.finish r;
  (* positive control: enumerated atomic-register execution tree is
     strongly linearizable *)
  let reg = Objects.Atomic_register.make ~name:"X" ~init:(Value.int 0) in
  let open Sim.Proc.Syntax in
  let program ~self =
    if self = 0 then
      let* _ = Sim.Obj_impl.call reg ~self ~tag:"w" ~meth:"write" ~arg:(Value.int 1) in
      Sim.Proc.return ()
    else
      let* _ = Sim.Obj_impl.call reg ~self ~tag:"r" ~meth:"read" ~arg:Value.unit in
      Sim.Proc.return ()
  in
  let config =
    {
      Sim.Runtime.n = 2;
      objects = [ reg ];
      program;
      max_crashes = 0;
    }
  in
  let tree = Lin.Enumerate.tree ~preamble_map:Lin.Preamble_map.trivial config in
  let spec = History.Spec.register ~init:(Value.int 0) in
  Fmt.pr "@.Atomic register, exhaustively enumerated (%d execution prefixes):@."
    (Lin.Tree.size tree);
  Fmt.pr "  strongly linearizable: %b (positive control)@."
    (Lin.Tree.strongly_linearizable spec tree)

let e8_cost () =
  let r =
    Report.section ~id:"E8" ~title:"The cost of blunting — message complexity vs k"
      ~headers:
        [ "k"; "client msgs / op"; "total msgs (weakener)"; "total steps (weakener)" ]
      ()
  in
  List.iter
    (fun k ->
      (* deterministic eager run of the weakener with ABD^k for both regs *)
      let config =
        if k = 0 then Programs.Weakener.abd_config ()
        else Programs.Weakener.abd_k_config ~k
      in
      (* counts only (exact at History level) — skip per-event entries *)
      let rt =
        Sim.Runtime.create ~trace_level:Sim.Trace.History config
          (Sim.Runtime.Gen (Rng.of_int 7))
      in
      (match
         Sim.Runtime.run rt ~max_steps:2_000_000 Adversary.Schedulers.eager_delivery
       with
      | Sim.Runtime.Completed -> ()
      | _ -> failwith "eager weakener run failed");
      let tr = Sim.Runtime.trace rt in
      let kk = max k 1 in
      Report.table_row r
        [
          (if k = 0 then "1 (plain)" else string_of_int k);
          Fmt.str "%d broadcasts = %d msgs" (kk + 1) (3 * (kk + 1));
          string_of_int (Sim.Trace.count_messages tr);
          string_of_int (Sim.Trace.count_steps tr);
        ];
      Report.json_row r
        ~quantity:(Fmt.str "weakener total messages, k=%s" (if k = 0 then "plain" else string_of_int k))
        ~paper:"grows linearly in k (Sec 4.2)"
        ~measured_value:(float_of_int (Sim.Trace.count_messages tr))
        ~measured:
          (Fmt.str "%d msgs, %d steps" (Sim.Trace.count_messages tr)
             (Sim.Trace.count_steps tr))
        ())
    [ 0; 2; 3; 4; 6; 8 ];
  Report.finish r;
  Fmt.pr
    "@.Each ABD^k operation performs k query phases plus one update phase:@.\
     latency and message count grow linearly in k while the bad-outcome@.\
     probability shrinks towards the atomic value (E5) — the trade-off of@.\
     Section 4.2.@."

let e9_round_based () =
  let r =
    Report.section ~id:"E9" ~title:"Section 7 — round-based programs with k > T*s"
      ~headers:[ "configuration"; "decided"; "within T rounds" ] ()
  in
  let n = 3 and window = 6 and max_rounds = 100 in
  let k = Core.Round_based.recommended_k ~rounds:window ~steps_per_round:1 in
  let run ~k ~fallback seed =
    let config =
      Programs.Round_based.config ~n ~rounds_before_fallback:fallback ~max_rounds ~k
    in
    let rng = Rng.of_int seed in
    (* agreed_round_of_trace reads labels only — History level suffices *)
    let t =
      Sim.Runtime.create ~trace_level:Sim.Trace.History config
        (Sim.Runtime.Gen (Rng.split rng))
    in
    match Sim.Runtime.run t ~max_steps:10_000_000 (Adversary.Schedulers.uniform rng) with
    | Sim.Runtime.Completed ->
        Programs.Round_based.agreed_round_of_trace (Sim.Runtime.trace t) ~n ~max_rounds
    | _ -> None
  in
  let trials = 25 in
  let stats ~k ~fallback =
    let decided = ref 0 and in_window = ref 0 in
    for seed = 1 to trials do
      match run ~k ~fallback seed with
      | Some r ->
          incr decided;
          if r < window then incr in_window
      | None -> ()
    done;
    (!decided, !in_window)
  in
  let d1, w1 = stats ~k ~fallback:window in
  let d2, w2 = stats ~k:1 ~fallback:0 in
  let add name d w =
    Report.table_row r [ name; Fmt.str "%d/%d" d trials; Fmt.str "%d/%d" w trials ];
    Report.json_row r
      ~quantity:(Fmt.str "%s: decided" name)
      ~paper:"terminates under fair scheduling" ~paper_value:(float_of_int trials)
      ~measured_value:(float_of_int d)
      ~measured:(Fmt.str "%d/%d (in window %d/%d)" d trials w trials)
      ()
  in
  add (Fmt.str "ABD^%d for T=%d rounds, then plain" k window) d1 w1;
  add "plain ABD throughout" d2 w2;
  Report.finish r;
  Fmt.pr
    "@.(Under a fair scheduler both configurations terminate; the blunted@.\
     window is where the k-protection against a strong adversary holds,@.\
     per Section 7's recipe k > T*s = %d.)@."
    (window * 1)

let e10_snapshot_game () =
  let r =
    Report.section ~id:"E10" ~title:"The snapshot weakener, solved exactly"
      ~headers:[ "snapshot implementation"; "adversary-optimal Prob[bad]" ] ()
  in
  let add name ~paper v =
    Report.table_row r [ name; Fmt.str "%.6f" v ];
    Report.json_row r ~quantity:name ~paper ~paper_value:0.5 ~measured_value:v
      ~measured:(Fmt.str "%.6f" v)
      ()
  in
  add "atomic (single-step ops)" ~paper:"1/2"
    (Model.Ghw_snapshot_game.atomic_bad_probability ());
  List.iter
    (fun k ->
      add
        (Fmt.str "Afek et al., Snapshot^%d" k)
        ~paper:"1/2 (negative result: no amplification)"
        (Model.Ghw_snapshot_game.afek_bad_probability ~k ()))
    [ 1; 2; 4 ];
  Report.finish r;
  Fmt.pr
    "@.A machine-checked negative result: on the single-update snapshot@.\
     weakener the Afek implementation already matches the atomic value for@.\
     every k — snapshot scans are monotone and the deciding pair of equal@.\
     collects is fixed before any post-coin step can influence it.@.@.";
  Fmt.pr "Multi-update variant (p0 updates twice; borrowed views reachable):@.";
  let t2 = Table.create [ "snapshot implementation"; "adversary-optimal Prob[bad]" ] in
  Table.add_row t2
    [ "atomic"; Fmt.str "%.6f" (Model.Ghw_multi_game.atomic_bad_probability ()) ];
  List.iter
    (fun k ->
      Table.add_row t2
        [ Fmt.str "Afek et al., Snapshot^%d" k;
          Fmt.str "%.6f" (Model.Ghw_multi_game.afek_bad_probability ~k ()) ])
    [ 1; 2 ];
  Table.print t2;
  Fmt.pr
    "@.Even with the borrowed-view path reachable (and exercised — see the@.\
     test suite), the value stays at the atomic 1/2: every borrowable view@.\
     already contains p0's earlier write, so \"only p1 visible\" and \"only@.\
     p0 visible via borrow\" demand contradictory pre-coin commitments.@.\
     Weakener-style amplification needs overwritable state (registers, E2);@.\
     the snapshot distortions of GHW arise in different programs.@."

let e11_va_weakener () =
  let r =
    Report.section ~id:"E11"
      ~title:"The weakener over Vitanyi-Awerbuch registers, solved exactly"
      ~headers:[ "k"; "exact Prob[bad], VA^k"; "exact Prob[bad], ABD^k (E5)" ] ()
  in
  List.iter
    (fun k ->
      let v = Model.Weakener_va.bad_probability ~k () in
      let law = (float_of_int (k * k) +. 1.0) /. (2.0 *. float_of_int (k * k)) in
      Report.table_row r
        [ string_of_int k; Fmt.str "%.6f" v; Fmt.str "%.6f" law ];
      Report.json_row r
        ~quantity:(Fmt.str "exact Prob[bad], VA^%d" k)
        ~paper:"1/2 (VA blocks the attack)" ~paper_value:0.5 ~measured_value:v
        ~measured:(Fmt.str "%.6f" v)
        ())
    [ 1; 2; 3; 4 ];
  Report.finish r;
  Fmt.pr
    "@.The shared-memory register blocks the attack outright: plain VA@.\
     already achieves the atomic 1/2 on the weakener, for every k. ABD's@.\
     exploit depends on freezing replies in transit pre-coin and delivering@.\
     them post-coin; VA's collect reads are instantaneous, so every order@.\
     commitment happens at a definite step and cannot be conditioned on the@.\
     coin. Not being strongly linearizable (VA is not) is necessary but not@.\
     sufficient for a program to be weakened.@."

(* Sequential vs parallel Monte-Carlo. The tallies are asserted
   bit-identical and the parallel leg is asserted to have run on worker
   domains; the timings are single-run context that bench-diff does not
   compare. The section runs at --jobs when that is above 1 and at 2
   otherwise, so its deterministic quantities do not depend on the host's
   core count. *)
let par_speedup () =
  let jobs = if options.jobs > 1 then options.jobs else 2 in
  let r =
    Report.section ~id:"PAR"
      ~title:(Fmt.str "Monte-Carlo, sequential vs %d jobs" jobs)
      ~headers:[ "workload"; "seq"; "par"; "speedup"; "identical" ] ()
  in
  (* Worker domains are only observable while [estimate]'s pool is
     alive, so the trials' configuration builder counts them: every trial
     of a parallel estimate sees the same [jobs - 1]. *)
  let spawned = Atomic.make 0 in
  let mc j =
    Adversary.Monte_carlo.estimate ~jobs:j ~trials:4_000 ~seed:2026
      ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
      (fun () ->
        Atomic.set spawned (Par.Pool.spawned_domains ());
        Programs.Weakener.atomic_config ())
  in
  let seq, t_seq = time (fun () -> mc 1) in
  let par, t_par = time (fun () -> mc jobs) in
  let spawned = Atomic.get spawned in
  let same = seq = par in
  let speedup = if t_par > 0.0 then t_seq /. t_par else 1.0 in
  let name = "Monte-Carlo, 4000 trials" in
  Report.table_row r
    [
      name;
      Fmt.str "%.2fs" t_seq;
      Fmt.str "%.2fs" t_par;
      Fmt.str "%.2fx" speedup;
      string_of_bool same;
    ];
  let flag b = if b then 1.0 else 0.0 in
  Report.json_row r
    ~quantity:(name ^ ": parallel result identical to sequential")
    ~paper:"bit-identical at every job count" ~paper_value:1.0
    ~measured_value:(flag same)
    ~measured:(Fmt.str "%b (%.2fs -> %.2fs, %.2fx)" same t_seq t_par speedup)
    ();
  (* without worker domains the row above would compare the sequential
     estimate with itself *)
  let ran_par = spawned >= 1 in
  Report.json_row r ~quantity:"Monte-Carlo ran on worker domains"
    ~paper:">= 1 spawned domain" ~paper_value:1.0
    ~measured_value:(flag ran_par)
    ~measured:(Fmt.str "%b (%d spawned)" ran_par spawned)
    ();
  Report.metrics r [ ("jobs", Obs.Json.Int jobs) ];
  Report.finish r;
  Fmt.pr
    "@.(Speedup depends on the machine's core count — %d domain%s available@.\
     here; the deterministic quantities above are identical either way.)@."
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () = 1 then "" else "s")

let () =
  let sections =
    [
      ("E1", e1_atomic);
      ("E2", e2_abd);
      ("E3", e3_abd2);
      ("E4", e4_bound_table);
      ("E5", e5_convergence);
      ("E6", e6_linearizability);
      ("E7", e7_tail_strong);
      ("E8", e8_cost);
      ("E9", e9_round_based);
      ("E10", e10_snapshot_game);
      ("E11", e11_va_weakener);
      ("PAR", par_speedup);
    ]
  in
  (* a typo in --only must not pass as a run that checked nothing *)
  Option.iter
    (List.iter (fun id ->
         if not (List.mem_assoc id sections) then begin
           Fmt.epr "--only: no experiment %s (known: %s)@." id
             (String.concat ", " (List.map fst sections));
           exit 2
         end))
    options.only;
  Fmt.pr
    "Blunting an Adversary Against Randomized Concurrent Programs@.\
     — experiment harness (PODC 2022 reproduction)@.";
  List.iter (fun (id, f) -> if runs id then f ()) sections;
  (match options.json_path with
  | Some path -> Report.write_json ~path
  | None -> ());
  Fmt.pr "@.done.@."
