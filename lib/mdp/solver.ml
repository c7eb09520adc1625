let log_src = Logs.Src.create "blunting.mdp" ~doc:"Exact game solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Aggregate, process-wide instrumentation across every solver instance;
   per-instance figures come from [stats ()]. Updated only at the end of a
   root solve (never from the recursion), so the hot loop pays nothing. *)
module M = struct
  open Obs.Metrics

  let memo_hits = counter ~help:"memo-table hits" "mdp.memo_hits"
  let memo_misses = counter ~help:"states evaluated (memo misses)" "mdp.memo_misses"
  let states = counter ~help:"distinct states memoized" "mdp.states_explored"
  let pruned =
    counter ~help:"subtrees cut off against the a-priori bound 1"
      "mdp.pruned_subtrees"
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

(* ---- the admissible value bound ----------------------------------------

   The [~prune] cutoffs need an a-priori upper bound on every reachable
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

(* ---- one memo interface, two backends ----------------------------------

   States are keyed by their canonical [G.encode] bytes: a probe hashes
   a flat short key instead of walking a deep model state. The key is
   encoded into one reusable buffer and [Key.pack]ed into another, and
   every backend is probed on the packed (buffer, length) slice, so only
   a fresh claim copies a key, and both backends store the memo form:
   about half the bytes of the encoding (ABD^3: 42 bytes against 82).

   [probe] is find-or-claim: the resolved value, the owner of a live
   claim, or a claim installed for the caller, who must later [resolve]
   its token. The backends:
   - the unlocked {!Par.Memo_tbl}, for sequential solves in RAM: a flat
     table whose values sit unboxed in an 8-byte arena cell beside their
     key, so a hit allocates only its [`Value v] result (5 words; perf
     reads 18.5 words per [G.apply]). A binding costs one 8-byte index
     word at a load of at most 7/8 and a record of 12 bytes (header and
     cell) plus its packed key. The token is the binding's handle, its
     record's arena offset, which [resolve] writes in place (no second
     lookup);
   - {!Store.Memo}, the spillable store a memo budget arms.
   One participant claims, so every live claim is its own.
   A record of closures instead of a functor keeps the recursion
   single-copy; the indirect call is noise next to the probe it wraps. *)

type 'token probe = [ `Value of float | `Busy of int | `Claimed of 'token ]

type 'token memo = {
  probe : Key.buf -> owner:int -> 'token probe;
  resolve : 'token -> float -> unit;
}

let ram_memo tbl =
  {
    probe =
      (fun b ~owner ->
        let h =
          Par.Memo_tbl.find_or_claim tbl (Key.data b) ~len:(Key.length b) ~owner
        in
        if Par.Memo_tbl.last_was_new tbl then `Claimed h
        else
          match Par.Memo_tbl.owner tbl h with
          | -1 -> `Value (Par.Memo_tbl.value tbl h)
          | o -> `Busy o);
    resolve = Par.Memo_tbl.resolve tbl;
  }

let store_memo st =
  {
    probe =
      (fun b ~owner ->
        Store.Memo.find_or_claim_slice st (Key.data b) ~len:(Key.length b)
          ~owner);
    resolve = Store.Memo.resolve st;
  }

(* ---- work counters -------------------------------------------------------

   One record per solver instance: [rawbuf] is its reusable encode
   buffer and [keybuf] the memo form packed from it. *)
type counters = {
  rawbuf : Key.buf;
  keybuf : Key.buf;
  mutable hits : int;
  mutable misses : int;
  mutable states : int;  (* states resolved with a final value *)
  mutable max_depth : int;
  mutable prune_cuts : int;  (* subtrees cut off against the bound 1 *)
  mutable solve_start : float;
  mutable solve_base_misses : int;  (* misses when the root call began *)
}

let make_counters () =
  {
    rawbuf = Key.create ();
    keybuf = Key.create ();
    hits = 0;
    misses = 0;
    states = 0;
    max_depth = 0;
    prune_cuts = 0;
    solve_start = Obs.Span.now_us ();
    solve_base_misses = 0;
  }

let stats_of c =
  { states = c.states; memo_hits = c.hits; memo_misses = c.misses;
    max_depth = c.max_depth }

(* Progress telemetry: long solves (minutes at k >= 3) otherwise give no
   output until they return. An info line on the blunting.mdp source
   every 50,000 newly memoized states, logged from inside the recursion,
   so never after [value] has returned. The rate counts this solve's
   misses only: a reused instance does not count earlier solves' work. *)
let progress_interval = 50_000

let progress_tick c =
  if c.misses mod progress_interval = 0 then
    Log.info (fun f ->
        let elapsed_s = (Obs.Span.now_us () -. c.solve_start) /. 1e6 in
        let rate =
          if elapsed_s > 0.0 then
            float_of_int (c.misses - c.solve_base_misses) /. elapsed_s
          else 0.0
        in
        let st = stats_of c in
        f "progress: %d states, %.1f%% hit rate, depth %d, %.1fs elapsed, \
           %.0f states/s"
          st.states (100.0 *. hit_rate st) st.max_depth elapsed_s rate)

let publish_delta (before : stats) (after : stats) =
  Obs.Metrics.add M.memo_hits (after.memo_hits - before.memo_hits);
  Obs.Metrics.add M.memo_misses (after.memo_misses - before.memo_misses);
  Obs.Metrics.add M.states (after.states - before.states)

module Make (G : GAME) = struct
  (* The module-level memo and counters behind the [value]/[stats] API:
     the in-RAM table, or the store once a memo budget arms it. The table
     starts small (an 8 KiB index with room for 895 bindings, no arena)
     and its index doubles whenever a claim fills 7/8 of it: every
     functor application pays its creation at program start, and most
     processes never solve with most of their games. *)
  let ram = Par.Memo_tbl.create ()
  let ram_m = ram_memo ram
  let store : Store.Memo.t option ref = ref None

  let main = make_counters ()

  let stats () = stats_of main

  (* Arm the spillable backend: a budget > 0 on an instance still in
     RAM switches its memo to a fresh store, where it stays until
     [reset] (mixing backends within one memo would split the key
     space). The RAM table must be empty: a budget reaching an instance
     that already holds states raises rather than copy them across. A
     budget <= 0, or one on an armed instance, changes nothing. *)
  let arm_store budget =
    match (!store, budget) with
    | None, Some b when b > 0 ->
        if Par.Memo_tbl.length ram > 0 then
          invalid_arg
            "Mdp.Solver.value: ~memo_budget on a solver that already holds \
             states (reset it first)";
        store := Some (Store.Memo.create ~budget:b ())
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
     instance's reusable buffer, packed into the other, and the memo
     probed on the packed slice: a resolved value is a hit; a live claim
     can only be one the recursion itself holds further up, so
     re-entering it is a cycle; a fresh claim is evaluated by
     [fold_value] and resolved. The buffers are dead the moment the
     probe returns — children clobber them freely. Claim, resolve and
     count happen at the same points for every backend, so hit, miss and
     state counts and every value are bit-identical across them. *)
  let rec solve_at ~prune m c depth s =
    if depth > c.max_depth then c.max_depth <- depth;
    let raw = c.rawbuf and b = c.keybuf in
    Key.reset raw;
    G.encode_into s raw;
    Key.pack raw b;
    match m.probe b ~owner:0 with
    | `Value v ->
        c.hits <- c.hits + 1;
        v
    | `Busy _ -> raise Cyclic
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

  (* a solve over the armed backend *)
  let solve ~prune depth s =
    match !store with
    | None -> solve_at ~prune ram_m main depth s
    | Some st -> solve_at ~prune (store_memo st) main depth s

  (* Root-call bracketing: arm the per-solve telemetry baselines, then land
     the counter deltas in the process-wide registry once, at the end. *)
  let root_call f =
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
     (every budgeted solve shares the store), [None]
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
end
