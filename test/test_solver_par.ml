(* The work-stealing solver's soundness battery: the Chase–Lev deque and
   the sharded claim table uphold their exactly-once contracts under
   concurrency, value_par is bit-identical to the sequential solve at
   every job count with and without pruning, pruning only ever shrinks
   the explored set while preserving values, and the parallel telemetry
   is fresh (never describes work an intervening solve overwrote). *)

let exact = Alcotest.(check (float 0.0))

(* ---- Par.Deque ------------------------------------------------------- *)

let test_deque_orders () =
  let q = Par.Deque.create () in
  Alcotest.(check bool) "fresh deque empty" true (Par.Deque.is_empty q);
  Alcotest.(check (option int)) "pop on empty" None (Par.Deque.pop q);
  for i = 1 to 10 do
    Par.Deque.push q i
  done;
  Alcotest.(check int) "length" 10 (Par.Deque.length q);
  (* owner end is LIFO: freshly pushed (hot) work first *)
  for i = 10 downto 1 do
    Alcotest.(check (option int)) "pop is LIFO" (Some i) (Par.Deque.pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Par.Deque.pop q);
  (* thief end is FIFO: the oldest (largest) subtree first *)
  for i = 1 to 10 do
    Par.Deque.push q i
  done;
  for i = 1 to 10 do
    match Par.Deque.steal q with
    | Par.Deque.Stolen x -> Alcotest.(check int) "steal is FIFO" i x
    | _ -> Alcotest.fail "steal on non-empty deque"
  done;
  match Par.Deque.steal q with
  | Par.Deque.Empty -> ()
  | _ -> Alcotest.fail "steal on drained deque"

let test_deque_interleaved () =
  let q = Par.Deque.create () in
  Par.Deque.push q 1;
  Par.Deque.push q 2;
  Alcotest.(check (option int)) "pop newest" (Some 2) (Par.Deque.pop q);
  Par.Deque.push q 3;
  Alcotest.(check (option int)) "pop newest again" (Some 3) (Par.Deque.pop q);
  Alcotest.(check (option int)) "pop oldest" (Some 1) (Par.Deque.pop q);
  Alcotest.(check (option int)) "empty" None (Par.Deque.pop q)

let test_deque_growth () =
  let q = Par.Deque.create ~capacity:4 () in
  let c0 = Par.Deque.capacity q in
  Alcotest.(check bool) "minimum capacity" true (c0 >= 4);
  let n = 1_000 in
  for i = 0 to n - 1 do
    Par.Deque.push q i
  done;
  Alcotest.(check bool)
    "capacity grew to hold the items" true
    (Par.Deque.capacity q >= n);
  Alcotest.(check int) "nothing lost across growth" n (Par.Deque.length q);
  let seen = Array.make n false in
  for _ = 1 to n do
    match Par.Deque.pop q with
    | Some x -> seen.(x) <- true
    | None -> Alcotest.fail "premature empty"
  done;
  Alcotest.(check bool)
    "every pushed item came back" true
    (Array.for_all Fun.id seen)

(* Conservation under concurrent stealing: the owner pushes (and
   sometimes pops) while three thieves steal; afterwards, every pushed
   item must have been returned exactly once across all four ends. *)
let test_deque_steal_stress () =
  let q = Par.Deque.create () in
  let n = 20_000 in
  let finished = Atomic.make false in
  let stealer () =
    let rec go acc =
      match Par.Deque.steal q with
      | Par.Deque.Stolen x -> go (x :: acc)
      | Par.Deque.Contended -> go acc
      | Par.Deque.Empty ->
          if Atomic.get finished then acc
          else begin
            Domain.cpu_relax ();
            go acc
          end
    in
    go []
  in
  let thieves = List.init 3 (fun _ -> Domain.spawn stealer) in
  let popped = ref [] in
  for i = 0 to n - 1 do
    Par.Deque.push q i;
    if i mod 3 = 0 then
      match Par.Deque.pop q with
      | Some x -> popped := x :: !popped
      | None -> ()
  done;
  let rec drain () =
    match Par.Deque.pop q with
    | Some x ->
        popped := x :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set finished true;
  let stolen = List.concat_map Domain.join thieves in
  let all = List.sort compare (!popped @ stolen) in
  Alcotest.(check int) "item count conserved" n (List.length all);
  List.iteri
    (fun i x ->
      if i <> x then Alcotest.failf "item %d returned %d times or reordered" i (x - i))
    all

(* ---- Par.Memo_tbl ---------------------------------------------------- *)

let memo_claim t key ~owner =
  Par.Memo_tbl.find_or_claim t (Bytes.unsafe_of_string key)
    ~len:(String.length key) ~owner

let memo_find t key =
  Par.Memo_tbl.find t (Bytes.unsafe_of_string key) ~len:(String.length key)

let test_memo_claim_protocol () =
  let t = Par.Memo_tbl.create () in
  let ord = memo_claim t "k" ~owner:3 in
  Alcotest.(check bool) "first probe claims" true (Par.Memo_tbl.last_was_new t);
  Alcotest.(check int) "claimant recorded" 3 (Par.Memo_tbl.owner t ord);
  Alcotest.(check int) "re-probe finds the claim" ord (memo_claim t "k" ~owner:5);
  Alcotest.(check bool) "re-probe does not claim" false
    (Par.Memo_tbl.last_was_new t);
  Alcotest.(check int) "other owner sees the claimant (Busy 3)" 3
    (Par.Memo_tbl.owner t ord);
  Alcotest.(check int) "length counts claims" 1 (Par.Memo_tbl.length t);
  Alcotest.(check int) "resolved excludes claims" 0 (Par.Memo_tbl.resolved t);
  Par.Memo_tbl.resolve t ord 0.25;
  Alcotest.(check int) "resolved has no owner" (-1) (Par.Memo_tbl.owner t ord);
  Alcotest.(check (float 0.0)) "value" 0.25 (Par.Memo_tbl.value t ord);
  Alcotest.(check int) "resolved" 1 (Par.Memo_tbl.resolved t);
  Alcotest.(check string) "key copied out" "k" (Par.Memo_tbl.key t ord);
  Alcotest.(check int) "absent key" (-1) (memo_find t "j");
  (match Par.Memo_tbl.resolve t ord 0.5 with
  | () -> Alcotest.fail "double resolve must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (float 0.0)) "first value kept" 0.25 (Par.Memo_tbl.value t ord);
  let seen = ref [] in
  Par.Memo_tbl.iter_resolved t (fun k v -> seen := (k, v) :: !seen);
  Alcotest.(check (list (pair string (float 0.0))))
    "iter_resolved" [ ("k", 0.25) ] !seen

(* Claims hand out ordinals 0, 1, 2, ... that the solver holds as
   tokens while the index doubles under it, from 16 slots to 4M. *)
let test_memo_growth () =
  let t = Par.Memo_tbl.create ~size:8 () in
  let n = 2_000_000 in
  let key i = "key:" ^ string_of_int i in
  for i = 0 to n - 1 do
    let ord = memo_claim t (key i) ~owner:0 in
    if ord <> i || not (Par.Memo_tbl.last_was_new t) then
      Alcotest.failf "claim %d got ordinal %d" i ord
  done;
  for i = 0 to n - 1 do
    Par.Memo_tbl.resolve t i (float_of_int i)
  done;
  Alcotest.(check int) "length" n (Par.Memo_tbl.length t);
  Alcotest.(check int) "resolved" n (Par.Memo_tbl.resolved t);
  for i = 0 to n - 1 do
    let ord = memo_find t (key i) in
    if ord <> i || Par.Memo_tbl.value t ord <> float_of_int i then
      Alcotest.failf "key %d found at %d" i ord
  done;
  Alcotest.(check string) "early ordinal's key" (key 17) (Par.Memo_tbl.key t 17)

(* Keys that end exactly at a 1 MiB chunk boundary, and keys that would
   straddle one and so start the next chunk, are stored whole. *)
let test_memo_chunk_boundary () =
  let chunk = 1 lsl 20 in
  List.iter
    (fun len ->
      let t = Par.Memo_tbl.create () in
      let key i =
        let b = Bytes.make len (Char.chr (i land 0xff)) in
        Bytes.set_int32_le b 0 (Int32.of_int i);
        Bytes.unsafe_to_string b
      in
      let n = (3 * chunk / len) + 7 in
      for i = 0 to n - 1 do
        ignore (memo_claim t (key i) ~owner:0)
      done;
      for i = 0 to n - 1 do
        let ord = memo_find t (key i) in
        if ord <> i then Alcotest.failf "len %d: key %d found at %d" len i ord;
        if not (String.equal (Par.Memo_tbl.key t ord) (key i)) then
          Alcotest.failf "len %d: key %d corrupted" len i
      done)
    [ 1024; 1000; 65_535 ]

let test_memo_key_limit () =
  let t = Par.Memo_tbl.create () in
  let ok = String.make Par.Memo_tbl.max_key_length 'x' in
  ignore (memo_claim t ok ~owner:0);
  Alcotest.(check int) "longest key stored" 0 (memo_find t ok);
  Alcotest.(check string) "longest key intact" ok (Par.Memo_tbl.key t 0);
  match memo_claim t (ok ^ "x") ~owner:0 with
  | _ -> Alcotest.fail "a 64 KiB key must raise, not be truncated"
  | exception Invalid_argument _ ->
      Alcotest.(check int) "nothing claimed" 1 (Par.Memo_tbl.length t)

let test_memo_clear () =
  let t = Par.Memo_tbl.create ~size:16 () in
  for i = 0 to 99 do
    let ord = memo_claim t (string_of_int i) ~owner:0 in
    Par.Memo_tbl.resolve t ord 1.0
  done;
  Par.Memo_tbl.clear t;
  Alcotest.(check int) "empty" 0 (Par.Memo_tbl.length t);
  Alcotest.(check int) "none resolved" 0 (Par.Memo_tbl.resolved t);
  Alcotest.(check int) "old key gone" (-1) (memo_find t "42");
  let ord = memo_claim t "42" ~owner:1 in
  Alcotest.(check int) "ordinals restart" 0 ord;
  Alcotest.(check bool) "fresh claim" true (Par.Memo_tbl.last_was_new t);
  Alcotest.(check int) "claimed, not resolved" 1 (Par.Memo_tbl.owner t ord);
  Par.Memo_tbl.resolve t ord 2.0;
  Alcotest.(check (float 0.0)) "reused value" 2.0 (Par.Memo_tbl.value t ord)

(* ---- Par.Sharded_tbl ------------------------------------------------- *)

let tbl_claim t key ~owner =
  Par.Sharded_tbl.find_or_claim_slice t (Bytes.unsafe_of_string key)
    ~len:(String.length key) ~owner

let test_tbl_claim_protocol () =
  let t = Par.Sharded_tbl.create () in
  let tok =
    match tbl_claim t "k" ~owner:0 with
    | `Claimed tok -> tok
    | _ -> Alcotest.fail "first probe must claim"
  in
  (match tbl_claim t "k" ~owner:0 with
  | `Busy 0 -> ()  (* self re-entry: what the solver maps to Cyclic *)
  | _ -> Alcotest.fail "self re-probe must report own claim");
  (match tbl_claim t "k" ~owner:1 with
  | `Busy 0 -> ()
  | _ -> Alcotest.fail "other owner must see the claimant's id");
  Alcotest.(check (option (float 0.0))) "claimed is not resolved" None
    (Par.Sharded_tbl.get t "k");
  Alcotest.(check int) "resolved excludes claims" 0 (Par.Sharded_tbl.resolved t);
  Par.Sharded_tbl.resolve t tok 42.0;
  (match tbl_claim t "k" ~owner:1 with
  | `Value 42.0 -> ()
  | _ -> Alcotest.fail "post-resolve probe must return the value");
  Alcotest.(check (option (float 0.0))) "get after resolve" (Some 42.0)
    (Par.Sharded_tbl.get t "k");
  Alcotest.(check (option (float 0.0))) "absent key" None
    (Par.Sharded_tbl.get t "j");
  Alcotest.(check int) "resolved" 1 (Par.Sharded_tbl.resolved t)

let test_tbl_double_resolve () =
  let t = Par.Sharded_tbl.create () in
  match tbl_claim t "k" ~owner:0 with
  | `Claimed tok -> (
      Par.Sharded_tbl.resolve t tok 1.0;
      match Par.Sharded_tbl.resolve t tok 2.0 with
      | () -> Alcotest.fail "double resolve must raise"
      | exception Invalid_argument _ ->
          Alcotest.(check (option (float 0.0))) "first value kept" (Some 1.0)
            (Par.Sharded_tbl.get t "k"))
  | _ -> Alcotest.fail "first probe must claim"

(* Four domains race find_or_claim over the same key set, each visiting
   the keys in a different order: every key must be claimed by exactly
   one domain, and the claim sets must partition the key space. *)
let test_tbl_concurrent_claims () =
  let t = Par.Sharded_tbl.create () in
  let nkeys = 2_000 in
  let keys = Array.init nkeys (fun i -> "key:" ^ string_of_int i) in
  let claim_worker wid =
    let mine = ref [] in
    for j = 0 to nkeys - 1 do
      (* odd stride, coprime with the even key count: a full permutation,
         different per worker *)
      let i = ((j * ((2 * wid) + 1)) + (wid * 37)) mod nkeys in
      match tbl_claim t keys.(i) ~owner:wid with
      | `Claimed tok ->
          Par.Sharded_tbl.resolve t tok (float_of_int wid);
          mine := i :: !mine
      | `Busy _ | `Value _ -> ()
    done;
    !mine
  in
  let others = List.init 3 (fun k -> Domain.spawn (fun () -> claim_worker (k + 1))) in
  let by_wid = claim_worker 0 :: List.map Domain.join others in
  let all = List.concat by_wid in
  Alcotest.(check int) "every key claimed exactly once" nkeys (List.length all);
  Alcotest.(check int) "claim sets disjoint" nkeys
    (List.length (List.sort_uniq compare all));
  Alcotest.(check int) "every key resolved" nkeys (Par.Sharded_tbl.resolved t);
  (* each token resolved its own key's binding *)
  List.iteri
    (fun wid mine ->
      List.iter
        (fun i ->
          if Par.Sharded_tbl.get t keys.(i) <> Some (float_of_int wid) then
            Alcotest.failf "key %d: not resolved by its claimant %d" i wid)
        mine)
    by_wid

(* ---- Par.Pool.scatter ------------------------------------------------ *)

let test_scatter_exactly_once () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let n = 64 in
      let counts = Array.init n (fun _ -> Atomic.make 0) in
      Par.Pool.scatter pool ~n (fun i -> Atomic.incr counts.(i));
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "index %d ran %d times" i (Atomic.get c))
        counts);
  (* the sequential jobs=1 path *)
  Par.Pool.with_pool ~jobs:1 (fun pool ->
      let hit = ref 0 in
      Par.Pool.scatter pool ~n:5 (fun _ -> incr hit);
      Alcotest.(check int) "jobs=1 runs every index" 5 !hit)

(* ---- determinism battery: every engine combination ------------------ *)

type 'a harness = {
  value : ?memo_budget:int -> ?prune:bool -> 'a -> float;
  value_par : ?memo_budget:int -> ?prune:bool -> jobs:int -> 'a -> float;
  stats : unit -> Mdp.Solver.stats;
  pruned : unit -> int;
  last : unit -> Mdp.Solver.par_stats option;
  set_prune_audit : bool -> unit;
  reset : unit -> unit;
}

(* Fresh solver instances, so this battery cannot interfere with
   test_par.ml's instances over the same games. *)
module Harness (G : Mdp.Solver.GAME) = struct
  include Mdp.Solver.Make (G)

  let h =
    {
      value = (fun ?memo_budget ?prune s -> value ?memo_budget ?prune s);
      value_par =
        (fun ?memo_budget ?prune ~jobs s ->
          value_par ?memo_budget ?prune ~jobs s);
      stats;
      pruned = pruned_subtrees;
      last = last_par_stats;
      set_prune_audit;
      reset;
    }
end

module Atomic_s = Harness (Model.Weakener_atomic.Game)
module Abd_s = Harness (Model.Weakener_abd.Game)
module Va_s = Harness (Model.Weakener_va.Game)
module Ghw_s = Harness (Model.Ghw_snapshot_game.Game)

(* One memo backend's leg of the matrix: the sequential solve, then
   [value_par] at each job count with pruning off and on, then a pruned
   sequential solve. Returns the pruned solve's states and cuts. *)
let check_leg h name init jobs_list ~seq ~(st_seq : Mdp.Solver.stats)
    memo_budget =
  let name =
    Fmt.str "%s budget=%a" name Fmt.(option ~none:(any "none") int) memo_budget
  in
  let n_seq = st_seq.states in
  h.reset ();
  exact (Fmt.str "%s: seq value" name) seq (h.value ?memo_budget init);
  let st = h.stats () in
  Alcotest.(check (list int))
    (Fmt.str "%s: seq states/hits/misses" name)
    [ st_seq.states; st_seq.memo_hits; st_seq.memo_misses ]
    [ st.states; st.memo_hits; st.memo_misses ];
  List.iter
    (fun jobs ->
      List.iter
        (fun prune ->
          h.reset ();
          let v = h.value_par ?memo_budget ~prune ~jobs init in
          exact (Fmt.str "%s: value_par jobs=%d prune=%b" name jobs prune) seq v;
          if (not prune) && jobs > 1 then
            match h.last () with
            | None -> Alcotest.failf "%s: jobs=%d left no telemetry" name jobs
            | Some p ->
                Alcotest.(check int)
                  (Fmt.str "%s: jobs=%d distinct keys = sequential states" name
                     jobs)
                  n_seq p.distinct_keys;
                let summed =
                  List.fold_left
                    (fun acc (d : Mdp.Solver.domain_stats) ->
                      acc + d.stats.memo_misses)
                    0 p.domains
                in
                Alcotest.(check int)
                  (Fmt.str "%s: jobs=%d each distinct key evaluated once" name
                     jobs)
                  p.distinct_keys summed)
        [ false; true ])
    jobs_list;
  (* pruning is sound and monotone sequentially too *)
  h.reset ();
  exact (Fmt.str "%s: pruned seq value" name) seq
    (h.value ?memo_budget ~prune:true init);
  let n_pruned = (h.stats ()).states in
  Alcotest.(check bool)
    (Fmt.str "%s: pruned explored %d <= unpruned %d" name n_pruned n_seq)
    true (n_pruned <= n_seq);
  let cuts = h.pruned () in
  h.reset ();
  (n_pruned, cuts)

(* Every engine combination — sequential or [value_par] at each job
   count, pruned or not, in RAM or under a memo budget — runs the same
   recursion and must return the sequential in-RAM value bit for bit.
   A budget of 1 byte is clamped to the store's 64 KiB floor, so the
   larger games spill. The budgeted sequential solve keeps the in-RAM
   solve's states, hits and misses, and the pruned solve's states and
   cuts agree across backends. Unpruned parallel solves evaluate each
   state exactly once: the distinct key count equals the sequential
   state count, and summed participant misses equal it. With [~audit]
   every pruned solve re-evaluates its cuts and raises on one that
   changed a value. Returns the unpruned sequential stats and the
   pruned solve's states and cuts. *)
let check_matrix ?(audit = false) ?(budgets = [ None; Some 1 ]) h name init
    jobs_list =
  h.reset ();
  let seq = h.value init in
  let st_seq = h.stats () in
  h.set_prune_audit audit;
  let legs =
    Fun.protect
      ~finally:(fun () -> h.set_prune_audit false)
      (fun () ->
        List.map (check_leg h name init jobs_list ~seq ~st_seq) budgets)
  in
  let ram = List.hd legs in
  List.iter
    (Alcotest.(check (pair int int))
       (Fmt.str "%s: pruned states and cuts agree across backends" name)
       ram)
    legs;
  (st_seq, ram)

let test_matrix_atomic () =
  ignore
    (check_matrix Atomic_s.h "atomic" Model.Weakener_atomic.init [ 1; 2; 4; 8 ])

(* ABD^1's 106k states spill at the 64 KiB floor for tens of seconds at
   8 jobs, so its budgeted leg runs the store unspilled; test_store.ml
   spills ABD^1 at jobs 1 and 4. *)
let test_matrix_abd () =
  let st_seq, (n_pruned, cuts) =
    check_matrix ~budgets:[ None; Some (64 lsl 20) ] Abd_s.h "ABD^1"
      (Model.Weakener_abd.init ~k:1 ())
      [ 2; 4; 8 ]
  in
  (* ABD^1's value is 1.0, so max cuts must actually fire: pruning
     strictly reduces the explored set here, not just weakly *)
  Alcotest.(check bool)
    (Fmt.str "ABD^1: pruning strictly reduces exploration (%d < %d)" n_pruned
       st_seq.states)
    true
    (n_pruned < st_seq.states);
  Alcotest.(check bool) "ABD^1: cuts were taken" true (cuts > 0)

let test_matrix_va () =
  ignore (check_matrix Va_s.h "VA^1" (Model.Weakener_va.init ~k:1) [ 2; 8 ])

let test_matrix_ghw () =
  ignore
    (check_matrix Ghw_s.h "ghw^1" (Model.Ghw_snapshot_game.init ~k:1) [ 2; 8 ])

(* Chance steps at 1/3, under audit: the iteration choices of VA^3 and
   ghw^3 are not powers of two, so the cuts' soundness rests on the
   float sum of three 1/3s not exceeding 1 (see [Mdp.Solver]'s
   "Interval pruning"). The audit re-checks every cut taken; a plain
   pruned solve then pins the state and cut counts. *)
let check_audited h name init ~states ~cuts =
  let st_seq, _ = check_matrix ~audit:true h name init [ 2; 8 ] in
  Alcotest.(check int) (name ^ ": states") states st_seq.states;
  ignore (h.value ~prune:true init);
  Alcotest.(check int) (name ^ ": cuts") cuts (h.pruned ());
  h.reset ()

let test_matrix_va3 () =
  check_audited Va_s.h "VA^3" (Model.Weakener_va.init ~k:3) ~states:15_172
    ~cuts:270

let test_matrix_ghw3 () =
  check_audited Ghw_s.h "ghw^3" (Model.Ghw_snapshot_game.init ~k:3)
    ~states:1_196 ~cuts:37

(* ---- audit mode ------------------------------------------------------ *)

let test_prune_audit_clean () =
  Atomic_s.reset ();
  Atomic_s.set_prune_audit true;
  let v =
    Fun.protect
      ~finally:(fun () -> Atomic_s.set_prune_audit false)
      (fun () -> Atomic_s.value ~prune:true Model.Weakener_atomic.init)
  in
  exact "audited pruned value" 0.5 v;
  Atomic_s.reset ()

(* ---- telemetry freshness (the staleness regression) ------------------ *)

let test_par_stats_freshness () =
  Atomic_s.reset ();
  let _ = Atomic_s.value_par ~jobs:2 Model.Weakener_atomic.init in
  Alcotest.(check bool)
    "value_par leaves telemetry" true
    (Atomic_s.last_par_stats () <> None);
  (* any subsequent root solve overwrites the memo the report described:
     the report must be cleared, not left stale *)
  let _ = Atomic_s.value Model.Weakener_atomic.init in
  Alcotest.(check bool)
    "sequential solve clears stale telemetry" true
    (Atomic_s.last_par_stats () = None);
  let _ = Atomic_s.value_par ~jobs:2 Model.Weakener_atomic.init in
  let _ = Atomic_s.value_par ~jobs:1 Model.Weakener_atomic.init in
  Alcotest.(check bool)
    "jobs=1 value_par (sequential path) clears telemetry too" true
    (Atomic_s.last_par_stats () = None);
  Atomic_s.reset ();
  Alcotest.(check bool)
    "reset clears telemetry" true
    (Atomic_s.last_par_stats () = None)

(* steal/claim counters are schedule-dependent, but their invariants are
   not: non-negative, and claim hits equal the summed domain hits *)
let test_par_stats_counters () =
  Atomic_s.reset ();
  let _ = Atomic_s.value_par ~jobs:4 Model.Weakener_atomic.init in
  (match Atomic_s.last_par_stats () with
  | None -> Alcotest.fail "no telemetry"
  | Some p ->
      Alcotest.(check bool) "steals >= 0" true (p.steals >= 0);
      Alcotest.(check bool) "claim_misses >= 0" true (p.claim_misses >= 0);
      Alcotest.(check int) "no cuts without ~prune" 0 p.pruned_subtrees;
      let summed_hits =
        List.fold_left
          (fun acc (d : Mdp.Solver.domain_stats) -> acc + d.stats.memo_hits)
          0 p.domains
      in
      Alcotest.(check int) "claim_hits = summed domain hits" summed_hits
        p.claim_hits);
  Atomic_s.reset ()

let tests =
  [
    Alcotest.test_case "deque: LIFO pop, FIFO steal" `Quick test_deque_orders;
    Alcotest.test_case "deque: interleaved push/pop" `Quick
      test_deque_interleaved;
    Alcotest.test_case "deque: growth conserves items" `Quick test_deque_growth;
    Alcotest.test_case "deque: concurrent steal conservation" `Quick
      test_deque_steal_stress;
    Alcotest.test_case "memo_tbl: claim protocol" `Quick test_memo_claim_protocol;
    Alcotest.test_case "memo_tbl: ordinals stable across growth" `Quick
      test_memo_growth;
    Alcotest.test_case "memo_tbl: keys at chunk boundaries" `Quick
      test_memo_chunk_boundary;
    Alcotest.test_case "memo_tbl: over-long key raises" `Quick
      test_memo_key_limit;
    Alcotest.test_case "memo_tbl: clear then reuse" `Quick test_memo_clear;
    Alcotest.test_case "sharded_tbl: claim protocol" `Quick
      test_tbl_claim_protocol;
    Alcotest.test_case "sharded_tbl: double resolve raises" `Quick
      test_tbl_double_resolve;
    Alcotest.test_case "sharded_tbl: concurrent claims partition" `Quick
      test_tbl_concurrent_claims;
    Alcotest.test_case "pool scatter runs each index once" `Quick
      test_scatter_exactly_once;
    Alcotest.test_case "matrix: atomic, jobs 1/2/4/8 x prune" `Quick
      test_matrix_atomic;
    Alcotest.test_case "matrix: ABD^1, jobs 2/4/8 x prune + strict cuts" `Slow
      test_matrix_abd;
    Alcotest.test_case "matrix: VA^1, jobs 2/8 x prune" `Quick test_matrix_va;
    Alcotest.test_case "matrix: ghw^1, jobs 2/8 x prune" `Quick test_matrix_ghw;
    Alcotest.test_case "matrix: VA^3 (1/3 chance), audited" `Quick
      test_matrix_va3;
    Alcotest.test_case "matrix: ghw^3 (1/3 chance), audited" `Quick
      test_matrix_ghw3;
    Alcotest.test_case "prune audit mode is clean" `Quick test_prune_audit_clean;
    Alcotest.test_case "par telemetry is never stale" `Quick
      test_par_stats_freshness;
    Alcotest.test_case "par telemetry counter invariants" `Quick
      test_par_stats_counters;
  ]
