open Util

let log_src = Logs.Src.create "blunting.fuzz" ~doc:"Fuzzing engine events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type failure = {
  oracle : string;
  seed : int;
  iter : int;
  case : Case.t option;
  schedule : int array;
  detail : string;
}

let pp_failure ppf f =
  Fmt.pf ppf "[%s] seed %d iter %d%a: %s (schedule length %d)" f.oracle f.seed
    f.iter
    (Fmt.option (fun ppf c -> Fmt.pf ppf " %a" Case.pp c))
    f.case f.detail
    (Array.length f.schedule)

(* Stream indices: iteration [i] owns indices [4i .. 4i+3] — case
   generation, scheduler, random tape, lockstep playout — so no two
   consumers of the seed ever share a stream. *)
let case_stream ~seed ~iter = Rng.stream ~seed ~index:(4 * iter)
let sched_stream ~seed ~iter = Rng.stream ~seed ~index:((4 * iter) + 1)
let tape_stream ~seed ~iter = Rng.stream ~seed ~index:((4 * iter) + 2)
let lockstep_stream ~seed ~iter = Rng.stream ~seed ~index:((4 * iter) + 3)

(* The lin oracle reads only the history, so recorded runs and replays
   keep a [History] trace: actions, labels, notes and crashes, with exact
   step counts. *)
let create_runtime ~seed ~iter case =
  Sim.Runtime.create ~trace_level:Sim.Trace.History (Case.config case)
    (Sim.Runtime.Gen (tape_stream ~seed ~iter))

(* each domain's choice-code buffer, reused from run to run and doubled
   when a run outgrows it *)
let codes_buffer = Domain.DLS.new_key (fun () -> ref (Array.make 256 0))

let run_recorded ~seed ~iter case =
  let t = create_runtime ~seed ~iter case in
  let rng = sched_stream ~seed ~iter in
  (* Half the runs schedule uniformly, half procrastinate deliveries —
     the adversary style that exposes stale-read protocol bugs. The
     recorded codes are policy-agnostic, so replay needs no flag. *)
  let choose =
    if Rng.int rng 2 = 0 then Adversary.Schedulers.uniform rng
    else Adversary.Schedulers.lazy_delivery rng
  in
  (* the codes so far are [!codes.(0 .. !len - 1)]: a step writes one
     int and allocates nothing *)
  let codes = Domain.DLS.get codes_buffer and len = ref 0 in
  let record t n =
    let i = choose t n in
    if !len = Array.length !codes then begin
      let a = Array.make (2 * !len) 0 in
      Array.blit !codes 0 a 0 !len;
      codes := a
    end;
    !codes.(!len) <- i;
    incr len;
    i
  in
  (match Sim.Runtime.run t ~max_steps:(Case.max_steps case) record with
  | Sim.Runtime.Completed -> ()
  | r ->
      Log.warn (fun m ->
          m "fuzz case %a: run %a" Case.pp case Sim.Runtime.pp_run_result r));
  (t, Array.sub !codes 0 !len)

let replay ?(observe = fun _ _ -> ()) ~seed ~iter case codes =
  let t = create_runtime ~seed ~iter case in
  (* [max_steps] stops the run before the codes run out *)
  let pos = ref 0 in
  let guide t n =
    let i = abs codes.(!pos) mod n in
    incr pos;
    observe n (Sim.Runtime.enabled_nth t i);
    i
  in
  ignore (Sim.Runtime.run t ~max_steps:(Array.length codes) guide);
  t

(* ---- oracle 1: linearizability -------------------------------------- *)

let lin_check case t =
  Lin.Multi.check_local_result (Case.specs case) (Sim.Runtime.history t)

let lin_fails ~seed ~iter case codes =
  match lin_check case (replay ~seed ~iter case codes) with
  | Ok () -> false
  | Error _ -> true

(* ---- oracle 3: model conformance (lockstep) ------------------------- *)

(* The atomic weakener is the one configuration where model and simulator
   share a step granularity: every [Model.Weakener_atomic] move is one
   register access or coin flip, which the simulator performs as exactly
   one significant trace entry (plus invisible call/return bookkeeping).
   We drive a random playout of the game and mirror each move in the
   simulator, then abstract the simulator state back into a game state
   and compare canonical [encode] keys. *)

module G = Model.Weakener_atomic.Game

let rid_r = Sim.Base_reg.id ~obj_name:"R" "cell"
let rid_c = Sim.Base_reg.id ~obj_name:"C" "cell"

let value_to_model = function Value.Int i -> i | _ -> -1

(* What the abstraction reads of the trace, folded from the entries each
   step adds: per-process register accesses and coin flips (a process's
   program counter in the game), process 1's coin, and process 2's first
   two reads of R and first read of C. *)
type observed = {
  sig_count : int array;
  mutable seen : int;  (* [Trace.count_steps] already folded *)
  mutable coin : int option;
  mutable u1 : int option;
  mutable u2 : int option;
  mutable cread : int option;
}

let observe_new t o =
  let trace = Sim.Runtime.trace t in
  let total = Sim.Trace.count_steps trace in
  let count p = o.sig_count.(p) <- o.sig_count.(p) + 1 in
  List.iter
    (function
      | Sim.Trace.Reg_read { proc; reg; value; _ } ->
          count proc;
          if proc = 2 then begin
            let v = Some (value_to_model value) in
            if reg = rid_r then begin
              if o.u1 = None then o.u1 <- v
              else if o.u2 = None then o.u2 <- v
            end
            else if reg = rid_c && o.cread = None then o.cread <- v
          end
      | Sim.Trace.Reg_write { proc; _ } -> count proc
      | Sim.Trace.Randomized { proc; result; _ } ->
          count proc;
          if proc = 1 && o.coin = None then o.coin <- Some result
      | _ -> ())
    (Sim.Trace.newest trace (total - o.seen));
  o.seen <- total

(* Advance process [p] through marker/label micro-steps until it performs
   its next register access or coin flip. *)
let advance_significant t o p =
  let before = o.sig_count.(p) in
  let budget = ref 64 in
  while o.sig_count.(p) = before do
    decr budget;
    if !budget < 0 then failwith "lockstep: process stuck without access";
    Sim.Runtime.step t (Sim.Runtime.Step p);
    observe_new t o
  done

let abstract t o : G.state =
  {
    G.r = value_to_model (Sim.Runtime.read_register t rid_r);
    c = value_to_model (Sim.Runtime.read_register t rid_c);
    pc0 = o.sig_count.(0);
    pc1 = o.sig_count.(1);
    pc2 = o.sig_count.(2);
    coin = Option.value o.coin ~default:(-1);
    u1 = o.u1;
    u2 = o.u2;
    cread = o.cread;
  }

let hex s =
  String.to_seq s
  |> Seq.map (fun ch -> Printf.sprintf "%02x" (Char.code ch))
  |> List.of_seq |> String.concat ""

let model_lockstep ~seed ~iter =
  let rng = lockstep_stream ~seed ~iter in
  let coin = Rng.int rng 2 in
  let t =
    Sim.Runtime.create
      (Programs.Weakener.atomic_config ())
      (Sim.Runtime.Tape [| coin |])
  in
  let o =
    {
      sig_count = Array.make (Sim.Runtime.n t) 0;
      seen = 0;
      coin = None;
      u1 = None;
      u2 = None;
      cread = None;
    }
  in
  let fail detail =
    Some
      { oracle = "model"; seed; iter; case = None; schedule = [||]; detail }
  in
  let rec play s step =
    match G.moves s with
    | [] ->
        (* Mop up the simulator's trailing return/label micro-steps, then
           compare terminal classifications. *)
        (match
           Sim.Runtime.run t ~max_steps:1_000 (fun _t _n -> 0)
         with
        | Sim.Runtime.Completed -> ()
        | r ->
            Fmt.failwith "lockstep mop-up: %a" Sim.Runtime.pp_run_result r);
        let sim_bad = Programs.Weakener.bad (Sim.Runtime.outcome t) in
        let model_bad = G.terminal_value s = 1.0 in
        if sim_bad <> model_bad then
          fail
            (Fmt.str
               "terminal disagreement after %d moves: sim bad=%b, model bad=%b"
               step sim_bad model_bad)
        else None
    | moves -> (
        let (G.Step p as move) = Rng.pick rng moves in
        let s' =
          match G.apply s move with
          | G.Det s' -> s'
          | G.Chance dist -> (
              match
                List.find_opt (fun (_, (c : G.state)) -> c.G.coin = coin) dist
              with
              | Some (_, s') -> s'
              | None ->
                  Fmt.invalid_arg "lockstep: no chance branch with coin %d"
                    coin)
        in
        match advance_significant t o p with
        | exception e ->
            fail
              (Fmt.str "move %d (%a): simulator exception %s" step G.pp_move
                 move (Printexc.to_string e))
        | () ->
            let sim_key = G.encode (abstract t o) in
            let model_key = G.encode s' in
            if not (String.equal sim_key model_key) then
              fail
                (Fmt.str
                   "key mismatch at move %d (%a): sim %s vs model %s"
                   step G.pp_move move (hex sim_key) (hex model_key))
            else play s' (step + 1))
  in
  play Model.Weakener_atomic.init 0

(* ---- oracle 2: O^k vs O outcome distributions ----------------------- *)

let dist ~seed ~trials ~k () =
  let estimate ~seed config =
    Adversary.Monte_carlo.estimate ~trials ~seed
      ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
      config
  in
  let base = estimate ~seed Programs.Weakener.abd_config in
  let transformed =
    estimate ~seed:(seed + 1_000_003) (fun () ->
        Programs.Weakener.abd_k_config ~k)
  in
  if
    Stats.binomial_compatible ~successes1:base.bad ~trials1:trials
      ~successes2:transformed.bad ~trials2:trials
  then None
  else
    Some
      {
        oracle = "dist";
        seed;
        iter = 0;
        case = None;
        schedule = [||];
        detail =
          Fmt.str
            "ABD vs ABD^%d bad-outcome distributions incompatible over %d \
             trials: %a vs %a"
            k trials Adversary.Monte_carlo.pp base Adversary.Monte_carlo.pp
            transformed;
      }

(* ---- oracle 5: pruning soundness ------------------------------------ *)

(* A synthetic layered-DAG game family for exercising the solver's
   cutoffs against the bound 1 far outside the hand-written models:
   states are (level, id) pairs, every transition goes to level + 1
   (acyclic by construction), and the whole shape — fan-out, chance
   placement, successors, terminal payoffs — is a pure function of a
   per-check salt via the (deterministic, version-stable on ints)
   polymorphic hash. Chance steps are fair coins, so computed values
   cannot round above 1.0 and the solver's pruning bound of 1 is
   FP-admissible (see "Cutoffs against the bound 1" in [Mdp.Solver]);
   terminal payoffs are k/100 with k <= 100. *)
module Prune_game = struct
  type params = { salt : int; levels : int; width : int; branch : int }

  (* set per check, before any solve on the instantiated solver *)
  let params = ref { salt = 0; levels = 5; width = 4; branch = 3 }

  type state = int * int  (* level, id in [0, width) *)
  type move = Move of int
  type transition = Det of state | Chance of (float * state) list

  let h2 a b =
    let p = !params in
    Hashtbl.hash (p.salt, a, b)

  let moves (l, i) =
    let p = !params in
    if l >= p.levels then []
    else List.init (1 + (h2 (l * 31) i mod p.branch)) (fun j -> Move j)

  let apply (l, i) (Move j) =
    let p = !params in
    let h = h2 (l, i) j in
    let next salt = (l + 1, h2 salt (l, i, j) mod p.width) in
    if h mod 4 = 0 then Chance [ (0.5, next 1); (0.5, next 2) ]
    else Det (next 1)

  let terminal_value (l, i) = float_of_int (h2 (l + 17) i mod 101) /. 100.0

  let encode_into (l, i) b =
    Mdp.Key.int b l;
    Mdp.Key.int b i

  let encode s = Mdp.Key.run (encode_into s)

  let pp_move ppf (Move j) = Fmt.pf ppf "m%d" j
end

module Prune_solver = Mdp.Solver.Make (Prune_game)

(* Pruned solves must agree with unpruned ones bitwise while exploring no
   more states; audit mode re-evaluates every cut subtree and raises
   [Prune_unsound] if a cut would have changed a value. The RNG stream
   uses its own seed family so it can never collide with the
   per-iteration stream indices (4i .. 4i+3) of the same session seed. *)
let prune_vs_exact ?(configs = 4) ~seed () =
  let rng = Rng.stream ~seed:(seed + 7_777_777) ~index:0 in
  let fail detail =
    Some
      { oracle = "prune"; seed; iter = 0; case = None; schedule = [||]; detail }
  in
  let check_config n =
    let p =
      {
        Prune_game.salt = Rng.int rng 1_000_000_007;
        levels = 4 + Rng.int rng 3;
        width = 3 + Rng.int rng 4;
        branch = 2 + Rng.int rng 3;
      }
    in
    Prune_game.params := p;
    let ctx detail =
      fail
        (Fmt.str "config %d (salt %d, levels %d, width %d, branch %d): %s" n
           p.Prune_game.salt p.Prune_game.levels p.Prune_game.width
           p.Prune_game.branch detail)
    in
    let root = (0, 0) in
    Prune_solver.reset ();
    let v_plain = Prune_solver.value root in
    let explored_plain = Prune_solver.explored () in
    Prune_solver.reset ();
    let v_pruned = Prune_solver.value ~prune:true root in
    let explored_pruned = Prune_solver.explored () in
    let cuts = Prune_solver.pruned_subtrees () in
    if v_pruned <> v_plain then
      ctx
        (Fmt.str "pruned value %.17g differs from exact %.17g (%d cuts)"
           v_pruned v_plain cuts)
    else if explored_pruned > explored_plain then
      ctx
        (Fmt.str "pruned solve explored %d states > unpruned %d"
           explored_pruned explored_plain)
    else begin
      (* every cut's interval really excluded the max: audit mode
         recomputes each cut subtree and raises if one could have won *)
      Prune_solver.reset ();
      Prune_solver.set_prune_audit true;
      let audit_result =
        Fun.protect
          ~finally:(fun () -> Prune_solver.set_prune_audit false)
          (fun () ->
            match Prune_solver.value ~prune:true root with
            | v -> Ok v
            | exception Mdp.Solver.Prune_unsound detail -> Error detail)
      in
      match audit_result with
      | Error detail -> ctx ("audit: " ^ detail)
      | Ok v_audit ->
          Prune_solver.reset ();
          if v_audit <> v_plain then
            ctx
              (Fmt.str "audited pruned value %.17g differs from exact %.17g"
                 v_audit v_plain)
          else None
    end
  in
  let rec go n = if n >= configs then None else
    match check_config n with Some f -> Some f | None -> go (n + 1)
  in
  go 0

(* ---- oracle 4: seq-vs-par identity ---------------------------------- *)

(* Two jobs: one spawned domain. With three, a host with fewer cores left
   it to the OS how many of them ran during the oracle's few milliseconds
   of trials, and each that ran touched its own 2 MB minor heap, so a
   fuzz session's peak RSS moved by up to 3 MB from run to run. The
   tallies at 4 jobs stay pinned by test_sim's "Monte-Carlo tallies
   pinned at 1 and 4 jobs". *)
let par_jobs = 2

let par_identity ~seed ~trials () =
  let estimate ~jobs =
    Adversary.Monte_carlo.estimate ~jobs ~trials ~seed
      ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
      Programs.Weakener.abd_config
  in
  let seq = estimate ~jobs:1 in
  let par = estimate ~jobs:par_jobs in
  let fail detail =
    Some
      { oracle = "par"; seed; iter = 0; case = None; schedule = [||]; detail }
  in
  if
    (seq.bad, seq.deadlocks, seq.step_limited, seq.fraction)
    <> (par.bad, par.deadlocks, par.step_limited, par.fraction)
  then
    fail
      (Fmt.str "Monte-Carlo tallies differ at jobs 1 vs %d: %a vs %a" par_jobs
         Adversary.Monte_carlo.pp seq Adversary.Monte_carlo.pp par)
  else None
