(* The four workloads. For each: the set-up before a rep, what one rep
   runs through the library's public entry points, the checks that its
   outputs are correct, and a traced twin that runs the same work
   through benchmark-side timing wrappers and reports per-layer
   numbers. A traced rep must produce outputs identical to an untraced
   one. *)

type size = Full | Smoke

(* Per-layer metrics come in groups; a workload reports the groups of
   the layers it calls. *)
type group = Solve | Store | Sim | Fuzz

type metric = { name : string; unit_ : string; value : float }

type rep = {
  work : int;  (** states, trials or cases *)
  outputs : (string * string) list;  (** must match between reps *)
  checks : (string * bool) list;
}

type traced = { rep : rep; wall : float; layers : (group * metric list) list }

type t = {
  name : string;
  setup : unit -> unit;
  run : size -> seed:int -> rep;
  trace : size -> seed:int -> untraced_wall:float -> traced;
}

let m name unit_ value = { name; unit_; value }
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ---- exact solves ----------------------------------------------------- *)

(* Committed in-RAM state counts of the ABD^k weakener game. *)
let committed_states = function
  | 1 -> 106_263
  | 2 -> 318_920
  | 3 -> 803_390
  | 4 -> 1_734_369
  | k -> invalid_arg (Printf.sprintf "no committed state count for k=%d" k)

(* Theorem 4.2's limit is reached exactly here: (k^2 + 1) / (2 k^2). *)
let closed_form k =
  let k2 = fi (k * k) in
  (k2 +. 1.0) /. (2.0 *. k2)

(* The probe stream: the memo keys the solver probes, in order, up to a
   cap. Recorded by the timed [encode_into] and replayed through each
   memo backend. *)
module Probes = struct
  let cap = ref 0
  let keys = ref [||]
  let n = ref 0

  let start c =
    cap := c;
    keys := Array.make c Bytes.empty;
    n := 0

  let record b =
    if !n < !cap then begin
      !keys.(!n) <- Bytes.sub (Mdp.Key.data b) 0 (Mdp.Key.length b);
      incr n
    end

  let take () =
    let ks = Array.sub !keys 0 !n in
    start 0;
    ks
end

let moves_op = Spans.op "model.moves"
let apply_op = Spans.op "model.apply"
let terminal_op = Spans.op "model.terminal_value"
let encode_op = Spans.op "mdp.key.encode"
let key_bytes = ref 0

(* A game whose every callback the solver makes is timed. *)
module Timed (G : Mdp.Solver.GAME) = struct
  type state = G.state
  type move = G.move
  type transition = G.transition = Det of state | Chance of (float * state) list

  let moves s =
    let t0 = Spans.now () in
    let r = G.moves s in
    Spans.stop moves_op t0;
    r

  let apply s mv =
    let w0 = Gc.minor_words () in
    let t0 = Spans.now () in
    let r = G.apply s mv in
    let t1 = Spans.now () in
    Spans.stop_words apply_op t0 t1 (int_of_float (Gc.minor_words () -. w0));
    r

  let terminal_value s =
    let t0 = Spans.now () in
    let r = G.terminal_value s in
    Spans.stop terminal_op t0;
    r

  let encode = G.encode

  let encode_into s b =
    let t0 = Spans.now () in
    G.encode_into s b;
    Spans.stop encode_op t0;
    key_bytes := !key_bytes + Mdp.Key.length b;
    Probes.record b

  let pp_move = G.pp_move
end

module Traced_solver = Mdp.Solver.Make (Timed (Model.Weakener_abd.Game))

(* ns spent in the model's callbacks and in key encoding since the last
   [Spans.reset]. *)
let callback_ns () =
  (fi (moves_op.ns + apply_op.ns + terminal_op.ns), fi encode_op.ns)

let solve_setup () =
  Model.Weakener_abd.reset ();
  Traced_solver.reset ();
  Gc.compact ()

let store_outputs (s : Store.Memo.stats option) =
  match s with
  | None -> []
  | Some s ->
      List.map
        (fun (k, v) -> (k, string_of_int v))
        [
          ("spilled_entries", s.spilled_entries);
          ("spill_runs", s.spill_runs);
          ("disk_hits", s.disk_hits);
          ("cache_hits", s.cache_hits);
          ("cache_misses", s.cache_misses);
          ("evictions", s.evictions);
          ("bytes_read", s.bytes_read);
          ("bytes_written", s.bytes_written);
        ]

let solve_rep ~k ~budget v (st : Mdp.Solver.stats) store =
  let value_check =
    match budget with
    | None -> ("value = (k^2+1)/(2k^2)", Float.abs (v -. closed_form k) <= 1e-12)
    | Some _ ->
        (* the committed in-RAM value; the traced run re-solves in RAM *)
        ( "value bit-identical to in-RAM",
          Int64.equal (Int64.bits_of_float v)
            (Int64.bits_of_float (closed_form k)) )
  in
  let spill_check =
    match budget with
    | None -> []
    | Some _ ->
        [
          ( "spilled_entries > 0",
            match store with
            | Some (s : Store.Memo.stats) -> s.spilled_entries > 0
            | None -> false );
        ]
  in
  {
    work = st.states;
    outputs =
      [
        ("value", Printf.sprintf "%h" v);
        ("states", string_of_int st.states);
        ("hits", string_of_int st.memo_hits);
        ("misses", string_of_int st.memo_misses);
      ]
      @ store_outputs store;
    checks =
      (value_check :: ("states = committed", st.states = committed_states k)
     :: spill_check);
  }

let solve_run ~k ~budget =
  let v = Model.Weakener_abd.bad_probability ?memo_budget:budget ~k () in
  solve_rep ~k ~budget v
    (Model.Weakener_abd.solver_stats ())
    (Model.Weakener_abd.store_stats ())

(* Replays of the recorded probe stream through each memo backend's
   public probe, on fresh tables: ns per probe. The solver resolves a
   claimed key after its children; a replay resolves it at once, so hits
   and misses fall where they did in the solve. *)
let time_per_probe keys f =
  let t0 = Spans.now () in
  Array.iter f keys;
  ratio (fi (Spans.now () - t0)) (fi (Array.length keys))

let replay ~spill_budget keys =
  let slice = Par.Slice_tbl.create ~size:65_536 () in
  let slice_probe key =
    let e =
      Par.Slice_tbl.probe_slice slice key ~len:(Bytes.length key) ~default:0.0
    in
    if Par.Slice_tbl.last_was_new slice then e.value <- 1.0
  in
  let probe_ns = time_per_probe keys slice_probe in
  let hit_ns =
    Sample.median (List.init 3 (fun _ -> time_per_probe keys slice_probe))
  in
  let sharded = Par.Sharded_tbl.create () in
  let sharded_ns =
    time_per_probe keys (fun key ->
        match
          Par.Sharded_tbl.find_or_claim_slice sharded key ~len:(Bytes.length key)
            ~owner:0
        with
        | `Claimed k -> Par.Sharded_tbl.resolve sharded k 1.0
        | `Value _ | `Busy _ -> ())
  in
  let store_ns budget =
    let st = Store.Memo.create ~budget () in
    Fun.protect
      ~finally:(fun () -> Store.Memo.close st)
      (fun () ->
        time_per_probe keys (fun key ->
            match
              Store.Memo.find_or_claim_slice st key ~len:(Bytes.length key)
                ~owner:0
            with
            | `Claimed k -> Store.Memo.resolve st k 1.0
            | `Value _ | `Busy _ -> ()))
  in
  let unbounded = store_ns (1 lsl 40) in
  let spilling = store_ns spill_budget in
  [
    m "par.slice_tbl.probe.ns" "ns" probe_ns;
    m "par.slice_tbl.hit.ns" "ns" hit_ns;
    m "par.sharded_tbl.find_or_claim.ns" "ns" sharded_ns;
    m "store.memo.find_or_claim.ns" "ns" unbounded;
    m "store.memo.find_or_claim.spill.ns" "ns" spilling;
  ]

let replay_cap = function Full -> 500_000 | Smoke -> 50_000

(* The traced solve, then the replay of its probe stream; the spilling
   store is replayed at the solve's budget, or 1 MiB for in-RAM solves.
   Returns the store's telemetry too, as the solver is reset (freeing
   its memo) before the replay. *)
let solve_trace size ~k ~budget =
  Spans.reset ();
  key_bytes := 0;
  Probes.start (replay_cap size);
  let v, wall =
    Spans.span "traced rep" (fun () ->
        Traced_solver.value ?memo_budget:budget (Model.Weakener_abd.init ~k ()))
  in
  let st = Traced_solver.stats () in
  let store = Traced_solver.store_stats () in
  let rep = solve_rep ~k ~budget v st store in
  Traced_solver.reset ();
  let keys = Probes.take () in
  let replayed =
    replay ~spill_budget:(Option.value budget ~default:(1 lsl 20)) keys
  in
  let span_ns = wall *. 1e9 in
  let model_ns, encode_ns = callback_ns () in
  (* the memo backend this solve probed *)
  let probe_ns =
    let backend =
      if budget = None then "par.slice_tbl.probe.ns"
      else "store.memo.find_or_claim.spill.ns"
    in
    (List.find (fun (x : metric) -> x.name = backend) replayed).value
  in
  let probes = fi (st.memo_hits + st.memo_misses) in
  let layers =
    [
      m "model.moves.ns" "ns" (Spans.per_call moves_op);
      m "model.moves.calls" "count" (fi moves_op.calls);
      m "model.apply.ns" "ns" (Spans.per_call apply_op);
      m "model.apply.words" "words" (ratio (fi apply_op.words) (fi apply_op.calls));
      m "model.apply.calls" "count" (fi apply_op.calls);
      m "model.share" "ratio" (ratio model_ns span_ns);
      m "mdp.key.encode.ns" "ns" (Spans.per_call encode_op);
      m "mdp.key.encode.calls" "count" (fi encode_op.calls);
      m "mdp.key.bytes" "bytes" (ratio (fi !key_bytes) (fi encode_op.calls));
      m "mdp.key.encode.share" "ratio" (ratio encode_ns span_ns);
      m "mdp.solver.self_share" "ratio"
        (ratio (span_ns -. model_ns -. encode_ns) span_ns);
      m "mdp.solver.hit_rate" "ratio" (Mdp.Solver.hit_rate st);
      m "mdp.reconcile.unexplained_share" "ratio"
        (1.0 -. ratio (model_ns +. encode_ns +. (probes *. probe_ns)) span_ns);
    ]
    @ replayed
  in
  ({ rep; wall; layers = [ (Solve, layers) ] }, store)

let solve_abd3 =
  let k = function Full -> 3 | Smoke -> 1 in
  {
    name = "solve-abd3";
    setup = solve_setup;
    run = (fun size ~seed:_ -> solve_run ~k:(k size) ~budget:None);
    trace =
      (fun size ~seed:_ ~untraced_wall:_ ->
        fst (solve_trace size ~k:(k size) ~budget:None));
  }

(* The spilled solve: k = 1 under a budget far below its ~9 MB of keys. *)
let spill_k = 1
let spill_budget = function Full -> 1024 * 1024 | Smoke -> 8 * 1024 * 1024

let solve_spill =
  {
    name = "solve-spill";
    setup = solve_setup;
    run =
      (fun size ~seed:_ ->
        solve_run ~k:spill_k ~budget:(Some (spill_budget size)));
    trace =
      (fun size ~seed:_ ~untraced_wall ->
        let t, s =
          solve_trace size ~k:spill_k ~budget:(Some (spill_budget size))
        in
        let s = Option.get s in
        (* the same game in RAM, untraced, for the store's cost *)
        solve_setup ();
        let v, ram_wall =
          Spans.span "in-RAM rep" (fun () ->
              Model.Weakener_abd.bad_probability ~k:spill_k ())
        in
        let ram = Model.Weakener_abd.solver_stats () in
        let same =
          ( "spilled = in-RAM (value bits, states)",
            Printf.sprintf "%h" v = List.assoc "value" t.rep.outputs
            && ram.states = t.rep.work )
        in
        let store =
          [
            m "store.overhead_ratio" "ratio" (ratio untraced_wall ram_wall);
            m "store.self_share" "ratio" (1.0 -. ratio ram_wall untraced_wall);
            m "store.read_amp" "ratio" (Store.Memo.read_amplification s);
            m "store.write_amp" "ratio" (Store.Memo.write_amplification s);
            m "store.cache_hit_rate" "ratio" (Store.Memo.cache_hit_rate s);
            m "store.bytes_read" "bytes" (fi s.bytes_read);
            m "store.bytes_written" "bytes" (fi s.bytes_written);
            m "store.disk_hits" "count" (fi s.disk_hits);
            m "store.evictions" "count" (fi s.evictions);
            m "store.spill_runs" "count" (fi s.spill_runs);
          ]
        in
        {
          t with
          rep = { t.rep with checks = same :: t.rep.checks };
          layers = t.layers @ [ (Store, store) ];
        });
  }

(* In-RAM solves at k = 1 .. kmax, each once untraced (states per
   second) and once traced (where the time went): which layer grows
   with k. Not a workload; [perf.exe --sweep K] runs it. *)
let sweep kmax =
  List.init kmax (fun i ->
      let k = i + 1 in
      solve_setup ();
      let r, wall = Spans.span "sweep rep" (fun () -> solve_run ~k ~budget:None) in
      solve_setup ();
      Spans.reset ();
      let _, traced_wall =
        Spans.span "sweep traced rep" (fun () ->
            Traced_solver.value (Model.Weakener_abd.init ~k ()))
      in
      let same = (Traced_solver.stats ()).states = r.work in
      solve_setup ();
      let span_ns = traced_wall *. 1e9 in
      let model_ns, encode_ns = callback_ns () in
      let name what = Printf.sprintf "%s.k%d" what k in
      ( List.map (fun (c, ok) -> (name c, ok)) (("traced states = untraced", same) :: r.checks),
        [
          m (name "mdp.solver.states_per_s") "1/s" (fi r.work /. wall);
          m (name "mdp.solver.self_share") "ratio"
            (ratio (span_ns -. model_ns -. encode_ns) span_ns);
          m (name "mdp.key.encode.share") "ratio" (ratio encode_ns span_ns);
          m (name "model.share") "ratio" (ratio model_ns span_ns);
        ] ))

(* ---- Monte-Carlo ------------------------------------------------------ *)

let mc_trials = function Full -> 5_000 | Smoke -> 500

(* Bad-outcome fraction of the weakener over ABD^2 under the uniform
   scheduler: 6,584 of 1,000,000 trials (seed 7). A rep must land within
   5 sigma of it. *)
let mc_reference = 0.006584

let mc_config () = Programs.Weakener.abd_k_config ~k:2
let sim_steps = Obs.Metrics.counter "sim.steps"

let mc_rep ~trials (r : Adversary.Monte_carlo.result) ~steps =
  let sigma = sqrt (mc_reference *. (1.0 -. mc_reference) /. fi trials) in
  {
    work = r.trials;
    outputs =
      List.map
        (fun (k, v) -> (k, string_of_int v))
        [
          ("trials", r.trials);
          ("bad", r.bad);
          ("deadlocks", r.deadlocks);
          ("step_limited", r.step_limited);
          ("steps", steps);
        ];
    checks =
      [
        ("no deadlocked trial", r.deadlocks = 0);
        ("no step-limited trial", r.step_limited = 0);
        ( "fraction within 5 sigma of reference",
          Float.abs (r.fraction -. mc_reference) <= 5.0 *. sigma );
      ];
  }

let estimate ~trials ~seed ~scheduler config =
  let s0 = Obs.Metrics.counter_value sim_steps in
  let r =
    Adversary.Monte_carlo.estimate ~jobs:1 ~trials ~seed ~scheduler
      ~bad:Programs.Weakener.bad config
  in
  (r, Obs.Metrics.counter_value sim_steps - s0)

let pick_op = Spans.op "adversary.pick"
let config_op = Spans.op "programs.config"

let montecarlo =
  {
    name = "montecarlo";
    setup = Gc.compact;
    run =
      (fun size ~seed ->
        let trials = mc_trials size in
        let r, steps =
          estimate ~trials ~seed ~scheduler:Adversary.Schedulers.uniform
            mc_config
        in
        mc_rep ~trials r ~steps);
    trace =
      (fun size ~seed ~untraced_wall:_ ->
        Spans.reset ();
        let trials = mc_trials size in
        let scheduler rng =
          let pick = Adversary.Schedulers.uniform rng in
          fun t evs ->
            let t0 = Spans.now () in
            let e = pick t evs in
            Spans.stop pick_op t0;
            e
        in
        let config () =
          let t0 = Spans.now () in
          let c = mc_config () in
          Spans.stop config_op t0;
          c
        in
        let w0 = Gc.minor_words () in
        let (r, steps), wall =
          Spans.span "traced rep" (fun () ->
              estimate ~trials ~seed ~scheduler config)
        in
        let words = Gc.minor_words () -. w0 in
        let span_ns = wall *. 1e9 in
        let steps_f = fi steps in
        {
          rep = mc_rep ~trials r ~steps;
          wall;
          layers =
            [
              ( Sim,
                [
                  m "adversary.pick.ns" "ns" (Spans.per_call pick_op);
                  m "adversary.pick.share" "ratio" (ratio (fi pick_op.ns) span_ns);
                  m "sim.runtime.ns_per_step" "ns"
                    (ratio (span_ns -. fi pick_op.ns -. fi config_op.ns) steps_f);
                  m "sim.steps_per_trial" "count" (ratio steps_f (fi trials));
                  m "sim.words_per_step" "words" (ratio words steps_f);
                  m "programs.config.ns" "ns" (Spans.per_call config_op);
                ] );
            ];
        });
  }

(* ---- fuzzing ---------------------------------------------------------- *)

let fuzz_iterations = function Full -> 5_000 | Smoke -> 500

(* The dist oracle is a statistical test (Wilson intervals over 400
   trials) that flags about one seed in a thousand on the healthy
   implementations (seeds 1006 and 1679 of 1..2000). Its verdict must
   repeat between reps but is not a failed check; every other oracle's
   is. *)
let fuzz_rep ~iterations ~lin_checks ~model_checks ~failures ~dist_flags =
  {
    work = iterations;
    outputs =
      List.map
        (fun (k, v) -> (k, string_of_int v))
        [
          ("iterations", iterations);
          ("lin_checks", lin_checks);
          ("model_checks", model_checks);
          ("failures", failures);
          ("dist_flags", dist_flags);
        ];
    checks =
      [
        ("no lin, model, par or prune oracle failure", failures = 0);
        ("lin_checks = iterations", lin_checks = iterations);
      ];
  }

let case_gen_op = Spans.op "fuzz.case_gen"
let run_recorded_op = Spans.op "fuzz.run_recorded"
let lin_op = Spans.op "lin.check"
let lockstep_op = Spans.op "fuzz.lockstep"
let lin_nodes = Obs.Metrics.counter "lin.nodes_visited"
let lin_backtracks = Obs.Metrics.counter "lin.backtracks"

(* [Fuzz.Engine.iteration] runs the model lockstep oracle on every
   fourth iteration. *)
let lockstep_every = 4

(* The engine's loop at jobs = 1, rebuilt from the oracles it calls. *)
let fuzz_traced ~seed ~iterations =
  let failures = ref 0 and model_checks = ref 0 and dist_flags = ref 0 in
  let fail = function None -> () | Some _ -> incr failures in
  for iter = 0 to iterations - 1 do
    let t0 = Spans.now () in
    let case =
      Fuzz.Case.generate ~planted:false (Fuzz.Oracle.case_stream ~seed ~iter)
    in
    Spans.stop case_gen_op t0;
    let t0 = Spans.now () in
    let t, _codes = Fuzz.Oracle.run_recorded ~seed ~iter case in
    Spans.stop run_recorded_op t0;
    let t0 = Spans.now () in
    let lin = Fuzz.Oracle.lin_check case t in
    Spans.stop lin_op t0;
    if Result.is_error lin then incr failures;
    if iter mod lockstep_every = 0 then begin
      incr model_checks;
      let t0 = Spans.now () in
      let f = Fuzz.Oracle.model_lockstep ~seed ~iter in
      Spans.stop lockstep_op t0;
      fail f
    end
  done;
  (* the session oracles, with Engine.run's parameters *)
  let (), session =
    Spans.span "session oracles" (fun () ->
        if Option.is_some (Fuzz.Oracle.dist ~seed ~trials:400 ~k:2 ()) then
          incr dist_flags;
        fail (Fuzz.Oracle.par_identity ~seed ~trials:200 ());
        fail (Fuzz.Oracle.prune_vs_exact ~seed ()))
  in
  ( fuzz_rep ~iterations ~lin_checks:iterations ~model_checks:!model_checks
      ~failures:!failures ~dist_flags:!dist_flags,
    session )

let fuzz =
  {
    name = "fuzz";
    setup = Gc.compact;
    run =
      (fun size ~seed ->
        let iterations = fuzz_iterations size in
        let s =
          Fuzz.Engine.run ~jobs:1 ~seed ~budget:(Fuzz.Engine.Iterations iterations)
            ()
        in
        let dist, others =
          List.partition
            (fun (f : Fuzz.Oracle.failure) -> f.oracle = "dist")
            s.failures
        in
        fuzz_rep ~iterations:s.iterations ~lin_checks:s.lin_checks
          ~model_checks:s.model_checks ~failures:(List.length others)
          ~dist_flags:(List.length dist));
    trace =
      (fun size ~seed ~untraced_wall ->
        Spans.reset ();
        let iterations = fuzz_iterations size in
        let n0 = Obs.Metrics.counter_value lin_nodes in
        let b0 = Obs.Metrics.counter_value lin_backtracks in
        let (rep, session), wall =
          Spans.span "traced rep" (fun () -> fuzz_traced ~seed ~iterations)
        in
        let per_check c0 c = ratio (fi (Obs.Metrics.counter_value c - c0)) (fi lin_op.calls) in
        let span_ns = wall *. 1e9 in
        let share o = ratio (fi o.Spans.ns) span_ns in
        let us o = Spans.per_call o /. 1e3 in
        let explained =
          fi (case_gen_op.ns + run_recorded_op.ns + lin_op.ns + lockstep_op.ns)
          +. (session *. 1e9)
        in
        {
          rep;
          wall;
          layers =
            [
              ( Fuzz,
                [
                  m "fuzz.case_gen.ns" "ns" (Spans.per_call case_gen_op);
                  m "fuzz.run_recorded.us" "us" (us run_recorded_op);
                  m "fuzz.run_recorded.share" "ratio" (share run_recorded_op);
                  m "lin.check.us" "us" (us lin_op);
                  m "lin.check.share" "ratio" (share lin_op);
                  m "lin.nodes_per_check" "count" (per_check n0 lin_nodes);
                  m "lin.backtracks_per_check" "count" (per_check b0 lin_backtracks);
                  m "fuzz.lockstep.us" "us" (us lockstep_op);
                  m "fuzz.lockstep.share" "ratio" (share lockstep_op);
                  m "fuzz.session_oracles_s" "s" session;
                  m "fuzz.reconcile.unexplained_share" "ratio"
                    (1.0 -. ratio explained (untraced_wall *. 1e9));
                ] );
            ];
        });
  }

let all = [ solve_abd3; solve_spill; montecarlo; fuzz ]
let find name = List.find_opt (fun w -> w.name = name) all

(* The workload whose smoke-size traced rep stands in for a group on
   workloads that do not call its layers. *)
let home = function
  | Solve -> solve_abd3
  | Store -> solve_spill
  | Sim -> montecarlo
  | Fuzz -> fuzz
