let log_src = Logs.Src.create "blunting.mdp" ~doc:"Exact game solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Aggregate, process-wide instrumentation across every solver instance;
   per-instance figures come from [stats ()]. Updated only at the end of a
   root solve (never from the recursion, never from worker domains), so
   the registry needs no synchronization and the hot loop pays nothing. *)
module M = struct
  open Obs.Metrics

  let memo_hits = counter ~help:"memo-table hits" "mdp.memo_hits"
  let memo_misses = counter ~help:"states evaluated (memo misses)" "mdp.memo_misses"
  let states = counter ~help:"distinct states memoized" "mdp.states_explored"
  let pruned = counter ~help:"subtrees cut by interval pruning" "mdp.pruned_subtrees"
  let steals = counter ~help:"work-stealing deque steals" "mdp.steals"
  let claim_misses = counter ~help:"shared-memo probes that hit a live claim" "mdp.claim_misses"
end

module type GAME = sig
  type state
  type move

  type transition = Det of state | Chance of (float * state) list

  val moves : state -> move list
  val apply : state -> move -> transition

  val terminal_value : state -> float
  val encode : state -> string
  val encode_into : state -> Key.buf -> unit
  val pp_move : Format.formatter -> move -> unit
end

exception Cyclic
exception Prune_unsound of string

type stats = {
  states : int;  (** distinct states currently memoized *)
  memo_hits : int;
  memo_misses : int;
  max_depth : int;
}

let hit_rate { memo_hits; memo_misses; _ } =
  let total = memo_hits + memo_misses in
  if total = 0 then 0.0 else float_of_int memo_hits /. float_of_int total

let pp_stats ppf s =
  Fmt.pf ppf "%d states, %d hits / %d misses (%.1f%% hit rate), depth %d" s.states
    s.memo_hits s.memo_misses
    (100.0 *. hit_rate s)
    s.max_depth

let pp_summary ~wall_s ppf s =
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  Fmt.pf ppf "summary: %d states, %.0f states/s, %.1f%% hit rate, %.1f MB peak heap"
    s.states
    (if wall_s > 0.0 then float_of_int s.states /. wall_s else 0.0)
    (100.0 *. hit_rate s)
    peak_mb

type domain_stats = { domain_id : int; stats : stats }

type par_stats = {
  domains : domain_stats list;
  distinct_keys : int;
  steals : int;
  claim_hits : int;
  claim_misses : int;
  pruned_subtrees : int;
}

let pp_par_stats ppf p =
  Fmt.pf ppf
    "%d domains, %d distinct keys, %d steals, %d claim hits / %d claim \
     misses, %d pruned:@,"
    (List.length p.domains) p.distinct_keys p.steals p.claim_hits
    p.claim_misses p.pruned_subtrees;
  List.iter
    (fun d -> Fmt.pf ppf "  domain %d: %a@," d.domain_id pp_stats d.stats)
    p.domains

type progress = { stats : stats; elapsed_s : float; states_per_sec : float }

let pp_progress ppf p =
  Fmt.pf ppf "%d states, %.1f%% hit rate, depth %d, %.1fs elapsed, %.0f states/s"
    p.stats.states
    (100.0 *. hit_rate p.stats)
    p.stats.max_depth p.elapsed_s p.states_per_sec

let default_progress_interval = 50_000

(* ---- out-of-core memo budget ------------------------------------------

   The switch for the third memo backend: a solve given a budget routes
   its memo through {!Store.Memo} — an in-RAM tier that spills resolved
   entries to sorted-run segment files once its byte estimate passes the
   budget. No budget (the default) keeps the plain in-RAM tables and
   costs nothing. *)

let parse_memo_budget s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then Error "empty size"
  else
    let mult, ndigits =
      match Char.uppercase_ascii s.[len - 1] with
      | 'K' -> (1024, len - 1)
      | 'M' -> (1024 * 1024, len - 1)
      | 'G' -> (1024 * 1024 * 1024, len - 1)
      | _ -> (1, len)
    in
    match int_of_string_opt (String.sub s 0 ndigits) with
    | Some n when n >= 0 -> Ok (n * mult)
    | _ ->
        Error
          (Printf.sprintf "invalid size %S (bytes, or a K/M/G suffix)" s)

(* ---- the admissible value bound ----------------------------------------

   Interval pruning needs an a-priori upper bound on every reachable
   state's value. Game values are probabilities, so [hi = 1] bounds the
   exact ones; the cuts also need it to bound the COMPUTED values.
   Terminal payoffs lie in [0, 1] and a max fold returns one of its
   children's values, so only chance folds could overshoot. With every
   child <= 1, each term [p *. v] rounds to at most [p] (round-to-nearest
   is monotone), so a chance value never exceeds the left-to-right float
   sum of its probabilities. That sum is exactly 1 for the power-of-two
   coins, and at most 1 for the uniform 1/n iteration choices of ABD^k,
   VA^k and ghw^k for every n <= 8. It is not for n = 9 or 11, where it
   rounds to 1 + 2^-52: a game with such a distribution must be checked
   in audit mode, which re-evaluates every cut and raises
   [Prune_unsound] on one that changed a value. *)
let hi = 1.0

(* ---- one memo interface, three backends --------------------------------

   States are keyed by their canonical [G.encode] bytes: a probe hashes
   a flat short key instead of walking a deep model state. The key is
   encoded into the caller's reusable buffer and every backend is probed
   on the (buffer, length) slice, so only a fresh claim copies the key.

   [probe] is find-or-claim: the resolved value, the owner of a live
   claim, or a claim installed for the caller, who must later [resolve]
   its token. [get] reads a resolved value by key, for a caller waiting
   on another owner's claim. The backends:
   - the unlocked {!Par.Memo_tbl}, for sequential solves in RAM: a flat
     table whose values are unboxed floats, so a hit allocates only its
     [`Value v] result (5 words; [G.apply] allocates ~80 per call). The
     token is the binding's ordinal, which [resolve] writes in place (no
     second lookup). One participant claims here, so every live claim
     is its own;
   - {!Par.Sharded_tbl}, the same table sharded behind mutexes, shared
     by the workers of a parallel solve; its token is also an ordinal;
   - {!Store.Memo}, the spillable store a memo budget arms, sequential
     or parallel.
   A record of closures instead of a functor keeps the recursion
   single-copy; the indirect call is noise next to the probe it wraps. *)

type 'token probe = [ `Value of float | `Busy of int | `Claimed of 'token ]

type 'token memo = {
  probe : Key.buf -> owner:int -> 'token probe;
  resolve : 'token -> float -> unit;
  get : string -> float option;
}

let ram_memo tbl =
  {
    probe =
      (fun b ~owner ->
        let ord =
          Par.Memo_tbl.find_or_claim tbl (Key.data b) ~len:(Key.length b) ~owner
        in
        if Par.Memo_tbl.last_was_new tbl then `Claimed ord
        else
          match Par.Memo_tbl.owner tbl ord with
          | -1 -> `Value (Par.Memo_tbl.value tbl ord)
          | o -> `Busy o);
    resolve = Par.Memo_tbl.resolve tbl;
    get =
      (fun key ->
        match
          Par.Memo_tbl.find tbl (Bytes.unsafe_of_string key)
            ~len:(String.length key)
        with
        | -1 -> None
        | ord ->
            if Par.Memo_tbl.owner tbl ord < 0 then
              Some (Par.Memo_tbl.value tbl ord)
            else None);
  }

let sharded_memo tbl =
  {
    probe =
      (fun b ~owner ->
        Par.Sharded_tbl.find_or_claim_slice tbl (Key.data b)
          ~len:(Key.length b) ~owner);
    resolve = Par.Sharded_tbl.resolve tbl;
    get = Par.Sharded_tbl.get tbl;
  }

let store_memo st =
  {
    probe =
      (fun b ~owner ->
        Store.Memo.find_or_claim_slice st (Key.data b) ~len:(Key.length b)
          ~owner);
    resolve = Store.Memo.resolve st;
    get = Store.Memo.get st;
  }

(* ---- work counters -------------------------------------------------------

   One record per participant in a solve: the sequential solver is
   worker 0, and a parallel solve runs [jobs] fresh ones over a shared
   backend, merged into the sequential record when the region joins.
   [wid] is the owner id the participant claims under; [keybuf] its
   private encode buffer; [abort] the region's shared failure flag.
   Progress ticks fire every [progress_interval] misses — workers use
   [max_int], so they never fire off the calling domain. [domain] is the
   runtime domain that ran a worker's steal loop (1:1 per solve — a
   domain may run several workers' loops, but only one after another). *)
type counters = {
  wid : int;
  keybuf : Key.buf;
  abort : bool Atomic.t;
  mutable domain : int;
  mutable hits : int;
  mutable misses : int;
  mutable states : int;  (* states resolved with a final value *)
  mutable max_depth : int;
  mutable prune_cuts : int;  (* subtrees cut by interval pruning *)
  mutable claim_misses : int;
  mutable steals : int;
  mutable progress_hook : (progress -> unit) option;
  mutable progress_interval : int;
  mutable solve_start : float;
  mutable solve_base_misses : int;  (* misses when the root call began *)
}

let make_counters ~wid ~abort ~progress_interval =
  {
    wid;
    keybuf = Key.create ();
    abort;
    domain = -1;
    hits = 0;
    misses = 0;
    states = 0;
    max_depth = 0;
    prune_cuts = 0;
    claim_misses = 0;
    steals = 0;
    progress_hook = None;
    progress_interval;
    solve_start = Obs.Span.now_us ();
    solve_base_misses = 0;
  }

let stats_of c =
  { states = c.states; memo_hits = c.hits; memo_misses = c.misses;
    max_depth = c.max_depth }

let progress_of c =
  let elapsed_s = (Obs.Span.now_us () -. c.solve_start) /. 1e6 in
  {
    stats = stats_of c;
    elapsed_s;
    states_per_sec =
      (if elapsed_s > 0.0 then
         float_of_int (c.misses - c.solve_base_misses) /. elapsed_s
       else 0.0);
  }

(* Progress telemetry: long solves (minutes at k >= 3) otherwise give no
   output until they return. The hook fires from inside the recursion,
   every [interval] newly memoized states — so never after [value] has
   returned — alongside an info log on the blunting.mdp source. *)
let progress_tick c =
  if c.misses mod c.progress_interval = 0 then begin
    let p = progress_of c in
    Log.info (fun f -> f "progress: %a" pp_progress p);
    match c.progress_hook with None -> () | Some hook -> hook p
  end

let publish_delta (before : stats) (after : stats) =
  Obs.Metrics.add M.memo_hits (after.memo_hits - before.memo_hits);
  Obs.Metrics.add M.memo_misses (after.memo_misses - before.memo_misses);
  Obs.Metrics.add M.states (after.states - before.states)

(* Internal unwind used when another worker already failed: the real
   exception is kept aside and re-raised by [value_par]; workers seeing
   the abort flag just leave quietly (their claims stay unresolved,
   which is fine — the whole solve is being thrown away). Without it, a
   worker spin-waiting on a claim whose owner died (say, of [Cyclic])
   would wait forever. *)
exception Abort

module Make (G : GAME) = struct
  (* The module-level memo and counters behind the [value]/[stats] API:
     the in-RAM table, or the store once a memo budget arms it. The table
     starts small (1,024 index slots) and doubles as it fills: every
     functor application pays its creation at program start, and most
     processes never solve with most of their games. *)
  let ram = Par.Memo_tbl.create ()
  let ram_m = ram_memo ram
  let store : Store.Memo.t option ref = ref None

  let main =
    make_counters ~wid:0 ~abort:(Atomic.make false)
      ~progress_interval:default_progress_interval

  let set_progress ?(interval_states = default_progress_interval) hook =
    main.progress_interval <- max 1 interval_states;
    main.progress_hook <- hook

  let stats () = stats_of main

  (* Arm the spillable backend. Entries already memoized in RAM migrate
     into the store (a reused solver keeps its cross-solve memoization
     through the backend switch) by the store's own claim-then-resolve
     protocol; claims cannot exist outside a running solve, so only
     final values move, and each claim is fresh. Once armed the solver stays on
     the store until [reset] — mixing backends within one memo would
     split the key space. A budget <= 0 arms nothing. *)
  let arm_store budget =
    match (!store, budget) with
    | None, Some b when b > 0 ->
        let st = Store.Memo.create ~budget:b () in
        Par.Memo_tbl.iter_resolved ram (fun key v ->
            match
              Store.Memo.find_or_claim_slice st (Bytes.unsafe_of_string key)
                ~len:(String.length key) ~owner:0
            with
            | `Claimed key -> Store.Memo.resolve st key v
            | `Value _ | `Busy _ -> assert false);
        Par.Memo_tbl.clear ram;
        store := Some st
    | _ -> ()

  (* [prune_audit] re-evaluates every would-be cut and raises
     [Prune_unsound] if the cut would have changed the parent's max —
     the fuzz oracle's mode. *)
  let prune_audit = ref false
  let set_prune_audit b = prune_audit := b

  (* The expectimax fold over one state's moves: Float.max over moves
     starting at -inf, left-to-right [acc +. (p *. v)] over chance
     branches starting at 0. Every state of every solve is evaluated by
     this one fold, so values agree bitwise across engines.

     With [prune] two admissible cuts apply, neither of which can change
     the value actually returned (so pruned and unpruned solves agree
     bitwise, and only full, exact values are ever memoized):
     - max cut: once [acc >= hi], every remaining child value is <= hi
       <= acc, so the rest of the max-fold is the identity;
     - chance cut: before each chance child, bound the rest of the fold
       by substituting [hi] for every unevaluated child — each +./*. is
       monotone under round-to-nearest, so the substituted fold is >=
       the computed one. If even that bound is <= the parent's [acc],
       the chance value cannot win the max; the partial sum (<= the
       bound) is returned and [Float.max acc partial = acc] as with the
       full value. Chance values are transition values, never memoized,
       so returning the partial sum is invisible outside the cut. *)
  let fold_value ~prune ~on_prune ~child depth s ms =
    let audit = !prune_audit in
    let chance acc dist =
      let rec full partial = function
        | [] -> partial
        | (p, s') :: rest -> full (partial +. (p *. child (depth + 1) s')) rest
      in
      let upper partial rest =
        List.fold_left (fun u (p, _) -> u +. (p *. hi)) partial rest
      in
      let rec go partial = function
        | [] -> partial
        | (p, s') :: rest as pending ->
            if prune && upper partial pending <= acc then begin
              on_prune ();
              if audit then begin
                let v = full partial pending in
                if Float.max acc v <> acc then
                  raise
                    (Prune_unsound
                       (Fmt.str
                          "chance cut at depth %d: bound %.17g <= acc %.17g \
                           but full value %.17g beats it"
                          depth (upper partial pending) acc v));
                v
              end
              else partial
            end
            else go (partial +. (p *. child (depth + 1) s')) rest
      in
      go 0.0 dist
    in
    let rec full acc = function
      | [] -> acc
      | m :: rest ->
          let v =
            match G.apply s m with
            | G.Det s' -> child (depth + 1) s'
            | G.Chance dist -> chance acc dist
          in
          full (Float.max acc v) rest
    in
    let rec go acc = function
      | [] -> acc
      | m :: rest as pending ->
          if prune && acc >= hi then begin
            on_prune ();
            if audit then begin
              let v = full acc pending in
              if v <> acc then
                raise
                  (Prune_unsound
                     (Fmt.str
                        "max cut at depth %d: acc %.17g >= hi %.17g but full \
                         fold reaches %.17g"
                        depth acc hi v));
              v
            end
            else acc
          end
          else
            let v =
              match G.apply s m with
              | G.Det s' -> child (depth + 1) s'
              | G.Chance dist -> chance acc dist
            in
            go (Float.max acc v) rest
    in
    go neg_infinity ms

  (* The one recursion, for every engine. The state is encoded into the
     participant's reusable buffer and the memo probed on the slice: a
     resolved value is a hit; re-entering one's own claim is a cycle
     (sequentially every live claim is owner 0's, so there it is the
     only outcome of [`Busy]); another owner's claim is helped, below;
     a fresh claim is evaluated by [fold_value] and resolved. The buffer
     is dead the moment the probe returns — children clobber it freely.
     Claim, resolve and count happen at the same points for every
     backend, so hit, miss and state counts and every value are
     bit-identical across them. *)
  let rec solve_at ~prune m c depth s =
    if depth > c.max_depth then c.max_depth <- depth;
    let b = c.keybuf in
    Key.reset b;
    G.encode_into s b;
    match m.probe b ~owner:c.wid with
    | `Value v ->
        c.hits <- c.hits + 1;
        v
    | `Busy o when o = c.wid -> raise Cyclic
    | `Busy _ ->
        c.claim_misses <- c.claim_misses + 1;
        (* the await needs the key after the buffer has been clobbered *)
        help ~prune m c depth s (Key.contents b)
    | `Claimed token ->
        c.misses <- c.misses + 1;
        progress_tick c;
        let v =
          match G.moves s with
          | [] -> G.terminal_value s
          | ms ->
              fold_value ~prune
                ~on_prune:(fun () -> c.prune_cuts <- c.prune_cuts + 1)
                ~child:(fun d s' -> solve_at ~prune m c d s')
                depth s ms
        in
        m.resolve token v;
        c.states <- c.states + 1;
        v

  (* Another worker owns the claim on [s]. Evaluate [s]'s children
     through the shared memo — the claim protocol hands each to exactly
     one worker, so this is the owner's own pending work, not a
     duplicate — then wait for the owner's exact value. Note the helper
     never computes a value for [s] itself: [s]'s value must come from
     the owner's single [fold_value], or prune-cut folds could disagree
     with it. *)
  and help ~prune m c depth s key =
    let child s' = ignore (solve_at ~prune m c (depth + 1) s') in
    List.iter
      (fun mv ->
        match G.apply s mv with
        | G.Det s' -> child s'
        | G.Chance dist -> List.iter (fun (_, s') -> child s') dist)
      (G.moves s);
    let rec await probes =
      match m.get key with
      | Some v -> v
      | None ->
          if Atomic.get c.abort then raise Abort;
          (* short spins first: with a core per domain the owner is
             folding over children that are all resolved now, so the
             wait is brief. If the value still hasn't appeared after
             ~256 probes the owner is likely preempted (more domains
             than cores) — sleep so it can actually run; cpu_relax
             never releases the core and would burn the owner's whole
             timeslice. *)
          if probes < 256 then
            for _ = 1 to 32 do
              Domain.cpu_relax ()
            done
          else Unix.sleepf 0.0002;
          await (probes + 1)
    in
    await 0

  (* a sequential solve: worker 0 over the armed backend *)
  let solve ~prune depth s =
    match !store with
    | None -> solve_at ~prune ram_m main depth s
    | Some st -> solve_at ~prune (store_memo st) main depth s

  (* The cross-domain telemetry of the most recent [value_par]. Computed
     eagerly at the end of the parallel region and cleared at the start
     of EVERY root solve — a reused solver must never report a previous
     run's telemetry after a sequential solve overwrote the work it
     describes. *)
  let last_par : par_stats option ref = ref None

  let last_par_stats () = !last_par

  (* Root-call bracketing: arm the per-solve telemetry baselines, then land
     the counter deltas in the process-wide registry once, at the end. *)
  let root_call f =
    last_par := None;
    main.solve_start <- Obs.Span.now_us ();
    main.solve_base_misses <- main.misses;
    let before = stats_of main in
    let pruned_before = main.prune_cuts in
    let finish () =
      publish_delta before (stats_of main);
      Obs.Metrics.add M.pruned (main.prune_cuts - pruned_before)
    in
    Fun.protect ~finally:finish f

  let value ?memo_budget ?(prune = false) s =
    arm_store memo_budget;
    root_call (fun () -> solve ~prune 0 s)

  (* Live out-of-core telemetry: cumulative since the store was armed
     (parallel and sequential budgeted solves share the store), [None]
     while no budget has armed it. *)
  let store_stats () = Option.map Store.Memo.stats !store

  let best_move s =
    match G.moves s with
    | [] -> None
    | ms ->
        root_call @@ fun () ->
        (* a one-move fold is that move's transition value *)
        let score m =
          fold_value ~prune:false ~on_prune:ignore
            ~child:(fun d s' -> solve ~prune:false d s')
            0 s [ m ]
        in
        let scored = List.map (fun m -> (score m, m)) ms in
        Log.debug (fun f ->
            f "best_move: %d candidates: %a" (List.length scored)
              (Fmt.list ~sep:Fmt.comma (fun ppf (v, m) ->
                   Fmt.pf ppf "%a=%.6f" G.pp_move m v))
              scored);
        let best =
          List.fold_left
            (fun (bv, bm) (v, m) -> if v > bv then (v, m) else (bv, bm))
            (List.hd scored) (List.tl scored)
        in
        Log.debug (fun f ->
            f "best_move: chose %a (value %.6f)" G.pp_move (snd best) (fst best));
        Some (snd best)

  let explored () = main.states
  let pruned_subtrees () = main.prune_cuts

  let reset () =
    last_par := None;
    Par.Memo_tbl.clear ram;
    Option.iter Store.Memo.close !store;
    store := None;
    main.hits <- 0;
    main.misses <- 0;
    main.states <- 0;
    main.max_depth <- 0;
    main.prune_cuts <- 0;
    (* re-arm the per-solve telemetry too: a reused solver must not
       compute its second solve's states/sec against the first solve's
       start time or cumulative miss count *)
    main.solve_start <- Obs.Span.now_us ();
    main.solve_base_misses <- 0

  (* ---- parallel solving ------------------------------------------------

     Work-stealing over a shared memo. [frontier] walks the game a few
     plies down (without evaluating) and collects the distinct states at
     the cut; they are dealt round-robin into one Chase–Lev deque per
     worker, and [jobs] workers drain their own deque LIFO, stealing the
     oldest state from a victim when empty. Every worker runs [solve_at]
     over one shared backend whose find-or-claim guarantees exactly one
     worker evaluates each state (so no work is duplicated: summed worker
     misses equal the states resolved), and the claim protocol doubles as
     cycle detection (re-entering your own claim is exactly the
     sequential re-entry). Once the region joins, a root pass — [solve_at]
     from the root on the calling domain, over the same memo — finds
     every frontier state resolved and folds the plies above them, so the
     memo ends up holding exactly the states a sequential solve holds.

     A worker probing another worker's live claim does not idle: it
     HELPS (see [help]). Waits only ever follow game-DAG edges downward
     — a worker holding a claim is executing inside that state's
     subtree, so every wait chain descends strictly and bottoms out at a
     worker that is not waiting; on a cyclic game some worker re-enters
     its own claim and [Cyclic] propagates, as sequentially.

     Values are bit-identical to the sequential solve at every job count
     because each state is evaluated exactly once, by [fold_value]'s
     sequential arithmetic, from child values that are themselves unique;
     induction over the (acyclic) state graph closes the argument. *)

  (* The distinct non-terminal states [limit] plies below [s], in
     first-visit order, and the number of paths reaching them. *)
  let frontier_at limit s =
    let seen = Hashtbl.create 64 and leaves = ref [] and paths = ref 0 in
    let rec walk depth s =
      match G.moves s with
      | [] -> ()
      | _ when depth >= limit ->
          incr paths;
          let key = G.encode s in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            leaves := s :: !leaves
          end
      | ms ->
          List.iter
            (fun m ->
              match G.apply s m with
              | G.Det s' -> walk (depth + 1) s'
              | G.Chance dist ->
                  List.iter (fun (_, s') -> walk (depth + 1) s') dist)
            ms
    in
    walk 0 s;
    (!paths, Array.of_list (List.rev !leaves))

  (* Deepen until the frontier offers real parallel slack, stops
     growing, or lies 16 plies down. Returns its depth and states. *)
  let frontier ~jobs s =
    let rec go limit prev =
      let paths, leaves = frontier_at limit s in
      if paths >= jobs * 8 || paths <= prev || limit >= 16 then (limit, leaves)
      else go (limit + 2) paths
    in
    go 2 (-1)

  let merge_by_domain workers =
    let tbl : (int, stats) Hashtbl.t = Hashtbl.create 8 in
    Array.iter
      (fun w ->
        let s =
          Option.value
            ~default:{ states = 0; memo_hits = 0; memo_misses = 0; max_depth = 0 }
            (Hashtbl.find_opt tbl w.domain)
        in
        Hashtbl.replace tbl w.domain
          {
            states = s.states + w.misses;
            memo_hits = s.memo_hits + w.hits;
            memo_misses = s.memo_misses + w.misses;
            max_depth = max s.max_depth w.max_depth;
          })
      workers;
    Hashtbl.fold (fun domain_id stats acc -> { domain_id; stats } :: acc) tbl []
    |> List.sort (fun a b -> compare a.domain_id b.domain_id)

  (* Run [jobs] workers over the shared memo [m] until every frontier
     state (at tree depth [depth]) is resolved; returns their counters. *)
  let run_workers ?pool ~prune ~jobs m depth leaves =
    let deques = Array.init jobs (fun _ -> Par.Deque.create ()) in
    Array.iteri (fun i _ -> Par.Deque.push deques.(i mod jobs) i) leaves;
    let abort = Atomic.make false in
    let workers =
      Array.init jobs (fun wid ->
          make_counters ~wid ~abort ~progress_interval:max_int)
    in
    let first_error : exn option Atomic.t = Atomic.make None in
    let eval_leaf w i = ignore (solve_at ~prune m w depth leaves.(i)) in
    let worker_loop wid =
      let w = workers.(wid) in
      w.domain <- (Domain.self () :> int);
      (* drain the local deque LIFO; when empty, sweep the other deques
         for the oldest leaf. Leaves are only pushed before the region
         starts, so a sweep seeing every deque [Empty] means no work
         will ever appear again — but a [Contended] verdict is
         inconclusive (the CAS lost to another thief), so the sweep
         restarts after a backoff. *)
      let rec drain () =
        match Par.Deque.pop deques.(wid) with
        | Some i ->
            eval_leaf w i;
            drain ()
        | None -> hunt 0 false
      and hunt k contended =
        if Atomic.get abort then ()
        else if k >= jobs - 1 then begin
          if contended then begin
            Domain.cpu_relax ();
            hunt 0 false
          end
        end
        else
          let victim = (wid + 1 + k) mod jobs in
          match Par.Deque.steal deques.(victim) with
          | Par.Deque.Stolen i ->
              w.steals <- w.steals + 1;
              Obs.Ring.record Obs.Ring.Steal victim i;
              eval_leaf w i;
              drain ()
          | Par.Deque.Contended -> hunt (k + 1) true
          | Par.Deque.Empty -> hunt (k + 1) contended
      in
      (* a worker that fails publishes the exception and trips the abort
         flag so the others stop waiting on its claims; workers
         themselves always return normally, and the caller re-raises the
         first real error after the region joins *)
      try drain () with
      | Abort -> ()
      | e ->
          ignore (Atomic.compare_and_set first_error None (Some e));
          Atomic.set abort true
    in
    (match pool with
    | Some pool -> Par.Pool.scatter pool ~n:jobs worker_loop
    | None ->
        Par.Pool.with_pool ~jobs (fun pool ->
            Par.Pool.scatter pool ~n:jobs worker_loop));
    Option.iter raise (Atomic.get first_error);
    workers

  (* The region (when there is one), then the root pass, over [m]; then a
     deterministic merge of every participant's counters into [main].
     Each state is evaluated exactly once, so the summed misses equal
     [distinct ()], the states the solve resolved in [m], and [stats ()]
     reports the explored figure of a sequential solve of the same root. *)
  let solve_par ?pool ~prune ~jobs m ~distinct ~region depth leaves s =
    let workers =
      if region then run_workers ?pool ~prune ~jobs m depth leaves else [||]
    in
    let top =
      make_counters ~wid:jobs ~abort:(Atomic.make false)
        ~progress_interval:max_int
    in
    top.domain <- (Domain.self () :> int);
    let v = solve_at ~prune m top 0 s in
    let all = Array.append workers [| top |] in
    let distinct = distinct () in
    let sum f = Array.fold_left (fun a w -> a + f w) 0 all in
    Array.iter
      (fun w ->
        main.hits <- main.hits + w.hits;
        main.misses <- main.misses + w.misses;
        main.max_depth <- max main.max_depth w.max_depth;
        main.prune_cuts <- main.prune_cuts + w.prune_cuts)
      all;
    main.states <- main.states + distinct;
    let steals = sum (fun w -> w.steals) in
    let claim_misses = sum (fun w -> w.claim_misses) in
    Obs.Metrics.add M.steals steals;
    Obs.Metrics.add M.claim_misses claim_misses;
    last_par :=
      Some
        {
          domains = merge_by_domain all;
          distinct_keys = distinct;
          steals;
          claim_hits = sum (fun w -> w.hits);
          claim_misses;
          pruned_subtrees = sum (fun w -> w.prune_cuts);
        };
    v

  (* A budgeted solve runs over the instance's persistent store, where
     the region's states are the resolved-count delta. Otherwise the memo
     is fresh: a [Par.Sharded_tbl] for the workers, or — when the
     frontier has fewer states than [jobs], so a region would cost more
     in domains and claim traffic than the whole solve — no region and a
     plain [Par.Memo_tbl] for the root pass alone. *)
  let value_par ?pool ?memo_budget ?(prune = false) ~jobs s =
    if jobs <= 1 then value ?memo_budget ~prune s
    else
      root_call @@ fun () ->
      arm_store memo_budget;
      let depth, leaves = frontier ~jobs s in
      let region = Array.length leaves >= jobs in
      Log.info (fun f ->
          f "value_par: %d frontier states on %d jobs" (Array.length leaves)
            jobs);
      let run m distinct =
        solve_par ?pool ~prune ~jobs m ~distinct ~region depth leaves s
      in
      match !store with
      | Some st ->
          let base = Store.Memo.resolved st in
          run (store_memo st) (fun () -> Store.Memo.resolved st - base)
      | None when region ->
          let tbl = Par.Sharded_tbl.create () in
          run (sharded_memo tbl) (fun () -> Par.Sharded_tbl.resolved tbl)
      | None ->
          let tbl = Par.Memo_tbl.create () in
          run (ram_memo tbl) (fun () -> Par.Memo_tbl.resolved tbl)
end
