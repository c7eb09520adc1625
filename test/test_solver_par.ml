(* The solver's soundness battery: the claim tables uphold their
   exactly-once contracts (the sharded one under concurrency), every
   engine is bit-identical to the sequential in-RAM solve with and
   without pruning and under a memo budget, and pruning only ever
   shrinks the explored set while preserving values. *)

let exact = Alcotest.(check (float 0.0))

(* ---- Par.Memo_tbl ---------------------------------------------------- *)

let memo_claim t key ~owner =
  Par.Memo_tbl.find_or_claim t (Bytes.unsafe_of_string key)
    ~len:(String.length key) ~owner

let memo_find t key =
  let b = Bytes.unsafe_of_string key and len = String.length key in
  Par.Memo_tbl.find_hashed t ~hash:(Par.Memo_tbl.hash_slice b len) b ~len

let test_memo_claim_protocol () =
  let t = Par.Memo_tbl.create () in
  let h = memo_claim t "k" ~owner:3 in
  Alcotest.(check bool) "first probe claims" true (Par.Memo_tbl.last_was_new t);
  Alcotest.(check int) "claimant recorded" 3 (Par.Memo_tbl.owner t h);
  Alcotest.(check int) "re-probe finds the claim" h (memo_claim t "k" ~owner:5);
  Alcotest.(check bool) "re-probe does not claim" false
    (Par.Memo_tbl.last_was_new t);
  Alcotest.(check int) "other owner sees the claimant (Busy 3)" 3
    (Par.Memo_tbl.owner t h);
  Alcotest.(check int) "length counts claims" 1 (Par.Memo_tbl.length t);
  Alcotest.(check int) "resolved excludes claims" 0 (Par.Memo_tbl.resolved t);
  Par.Memo_tbl.resolve t h 0.25;
  Alcotest.(check int) "resolved has no owner" (-1) (Par.Memo_tbl.owner t h);
  Alcotest.(check (float 0.0)) "value" 0.25 (Par.Memo_tbl.value t h);
  Alcotest.(check int) "resolved" 1 (Par.Memo_tbl.resolved t);
  Alcotest.(check string) "key copied out" "k" (Par.Memo_tbl.key t h);
  Alcotest.(check int) "absent key" (-1) (memo_find t "j");
  (match Par.Memo_tbl.resolve t h 0.5 with
  | () -> Alcotest.fail "double resolve must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (float 0.0)) "first value kept" 0.25 (Par.Memo_tbl.value t h);
  let seen = ref [] in
  Par.Memo_tbl.iter_resolved t (fun k v -> seen := (k, v) :: !seen);
  Alcotest.(check (list (pair string (float 0.0))))
    "iter_resolved" [ ("k", 0.25) ] !seen

(* Claims hand out handles that the solver holds as tokens while the
   index doubles under it, from 16 slots to 4M: a find returns the handle
   its claim returned, and key and value round-trip through it. *)
let test_memo_growth () =
  let t = Par.Memo_tbl.create ~size:8 () in
  let n = 2_000_000 in
  let key i = "key:" ^ string_of_int i in
  let handles =
    Array.init n (fun i ->
        let h = memo_claim t (key i) ~owner:0 in
        if not (Par.Memo_tbl.last_was_new t) then
          Alcotest.failf "claim %d found a binding" i;
        h)
  in
  Array.iteri (fun i h -> Par.Memo_tbl.resolve t h (float_of_int i)) handles;
  Alcotest.(check int) "length" n (Par.Memo_tbl.length t);
  Alcotest.(check int) "resolved" n (Par.Memo_tbl.resolved t);
  for i = 0 to n - 1 do
    let h = memo_find t (key i) in
    if h <> handles.(i) || Par.Memo_tbl.value t h <> float_of_int i then
      Alcotest.failf "key %d found at %d, claimed at %d" i h handles.(i)
  done;
  Alcotest.(check string) "early handle's key" (key 17)
    (Par.Memo_tbl.key t handles.(17))

(* Claim to the 7/8 load that grows the index, and one past it: at
   every size the handles from before, at and after the growth still
   find their keys with their values and owners. [size] is the most a
   [2^j]-slot index holds below 7/8. *)
let test_memo_growth_boundary () =
  List.iter
    (fun slots ->
      let size = (slots / 8 * 7) - 1 in
      let t = Par.Memo_tbl.create ~size () in
      let key i = Printf.sprintf "%d/%d" slots i in
      let n = size + 2 in
      let handles = Array.init n (fun i -> memo_claim t (key i) ~owner:i) in
      Array.iteri
        (fun i h -> if i mod 2 = 0 then Par.Memo_tbl.resolve t h (float_of_int i))
        handles;
      Array.iteri
        (fun i h ->
          if memo_find t (key i) <> h || memo_claim t (key i) ~owner:0 <> h then
            Alcotest.failf "%d slots: key %d lost its handle" slots i;
          let o = Par.Memo_tbl.owner t h in
          if i mod 2 = 0 then begin
            if o <> -1 || Par.Memo_tbl.value t h <> float_of_int i then
              Alcotest.failf "%d slots: key %d lost its value" slots i
          end
          else if o <> i then Alcotest.failf "%d slots: key %d lost its owner" slots i)
        handles;
      Alcotest.(check int) "length" n (Par.Memo_tbl.length t))
    [ 16; 1024; 65_536 ]

(* Records (a 4-byte header and an 8-byte cell, then the key) that tile
   chunks exactly (1012-byte keys), that leave a 1-byte tail (1013), and
   that would straddle a boundary and so start the next chunk, are
   stored whole and walked in claim order. *)
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
      let handles = Array.init n (fun i -> memo_claim t (key i) ~owner:0) in
      (* A handle is [chunk lsl 20 lor position]: 1024-byte records sit
         back to back, each new chunk opening with one. *)
      if len = 1012 then
        Array.iteri
          (fun i h ->
            let p = if i = 0 then -1024 else handles.(i - 1) in
            if h <> p + 1024 && h <> ((p lsr 20) + 1) lsl 20 then
              Alcotest.failf "1024-byte record %d at %d after %d" i h p)
          handles;
      Array.iteri
        (fun i h ->
          if memo_find t (key i) <> h then
            Alcotest.failf "len %d: key %d not at its handle" len i;
          if not (String.equal (Par.Memo_tbl.key t h) (key i)) then
            Alcotest.failf "len %d: key %d corrupted" len i;
          Par.Memo_tbl.resolve t h (float_of_int i))
        handles;
      let next = ref 0 in
      Par.Memo_tbl.iter_resolved t (fun k v ->
          if v <> float_of_int !next || not (String.equal k (key !next)) then
            Alcotest.failf "len %d: iter_resolved out of order at %d" len !next;
          incr next);
      Alcotest.(check int) "iter_resolved visits all" n !next)
    [ 1012; 1013; 1024; 1000; 65_535 ]

let test_memo_key_limit () =
  let t = Par.Memo_tbl.create () in
  let ok = String.make Par.Memo_tbl.max_key_length 'x' in
  let h = memo_claim t ok ~owner:0 in
  Alcotest.(check int) "longest key stored" h (memo_find t ok);
  Alcotest.(check string) "longest key intact" ok (Par.Memo_tbl.key t h);
  match memo_claim t (ok ^ "x") ~owner:0 with
  | _ -> Alcotest.fail "a 64 KiB key must raise, not be truncated"
  | exception Invalid_argument _ ->
      Alcotest.(check int) "nothing claimed" 1 (Par.Memo_tbl.length t)

(* A [len] past the buffer raises [Invalid_argument] at every entry
   point: the one check per call is what keeps the unchecked loads of
   the hash and the key comparison inside the buffer. *)
let test_memo_slice_bounds () =
  let t = Par.Memo_tbl.create () in
  let b = Bytes.make 16 'k' in
  ignore (memo_claim t "kkkkkkkkkkkkkkkk" ~owner:0);
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: len past the buffer must raise" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun len ->
      raises "hash_slice" (fun () -> Par.Memo_tbl.hash_slice b len);
      raises "find_or_claim" (fun () ->
          Par.Memo_tbl.find_or_claim t b ~len ~owner:0);
      raises "find_or_claim_hashed" (fun () ->
          Par.Memo_tbl.find_or_claim_hashed t ~hash:0 b ~len ~owner:0);
      raises "find_hashed" (fun () -> Par.Memo_tbl.find_hashed t ~hash:0 b ~len))
    [ 17; 19; 24; 1 lsl 20 ];
  Alcotest.(check int) "nothing claimed" 1 (Par.Memo_tbl.length t);
  Alcotest.(check int) "the whole buffer still probes" 0
    (memo_find t "kkkkkkkkkkkkkkkk")

(* An index over 2^28 slots raises before anything is allocated, and a
   handle outside the arena raises in every accessor, also once [clear]
   has emptied it. *)
let test_memo_limits () =
  let before = Gc.allocated_bytes () in
  List.iter
    (fun size ->
      match Par.Memo_tbl.create ~size () with
      | _ -> Alcotest.failf "size %d must raise" size
      | exception Invalid_argument _ -> ())
    [ 1 lsl 28; (1 lsl 31) + 1; max_int ];
  let spent = Gc.allocated_bytes () -. before in
  if spent > 65_536. then Alcotest.failf "%.0f bytes allocated" spent;
  let t = Par.Memo_tbl.create () in
  let h = memo_claim t "k" ~owner:0 in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s must raise" what
    | exception Invalid_argument _ -> ()
  in
  let all_raise bad =
    raises "owner" (fun () -> ignore (Par.Memo_tbl.owner t bad));
    raises "value" (fun () -> ignore (Par.Memo_tbl.value t bad));
    raises "resolve" (fun () -> Par.Memo_tbl.resolve t bad 1.0);
    raises "key" (fun () -> ignore (Par.Memo_tbl.key t bad))
  in
  List.iter all_raise [ -1; h + 13; 1 lsl 40; max_int ];
  Alcotest.(check int) "claim untouched" 0 (Par.Memo_tbl.owner t h);
  Par.Memo_tbl.clear t;
  all_raise h

(* After [clear] the kept chunks are refilled; a record that does not
   fit the rest of the first chunk moves to the next, and [iter_resolved]
   must not read the stale records it leaves behind. *)
let test_memo_clear () =
  let t = Par.Memo_tbl.create ~size:16 () in
  for i = 0 to 999 do
    let h = memo_claim t (string_of_int i) ~owner:0 in
    Par.Memo_tbl.resolve t h 1.0
  done;
  Par.Memo_tbl.clear t;
  Alcotest.(check int) "empty" 0 (Par.Memo_tbl.length t);
  Alcotest.(check int) "none resolved" 0 (Par.Memo_tbl.resolved t);
  Alcotest.(check int) "old key gone" (-1) (memo_find t "42");
  let h = memo_claim t "42" ~owner:1 in
  Alcotest.(check int) "arena refilled from its start" 0 h;
  Alcotest.(check bool) "fresh claim" true (Par.Memo_tbl.last_was_new t);
  Alcotest.(check int) "claimed, not resolved" 1 (Par.Memo_tbl.owner t h);
  Par.Memo_tbl.resolve t h 2.0;
  Alcotest.(check (float 0.0)) "reused value" 2.0 (Par.Memo_tbl.value t h);
  let big = String.make 6000 'b' in
  Par.Memo_tbl.resolve t (memo_claim t big ~owner:1) 3.0;
  let seen = ref [] in
  Par.Memo_tbl.iter_resolved t (fun k v -> seen := (k, v) :: !seen);
  Alcotest.(check (list (pair string (float 0.0))))
    "only the new bindings" [ ("42", 2.0); (big, 3.0) ] (List.rev !seen)

(* A binding costs one index slot and a record of a 4-byte header and an
   8-byte cell in front of its key: at 100,000 resolved 16-byte keys the
   whole table (index at load 0.76, arena chunks included) measures 5.24
   words a binding and stays under 5.7. *)
let test_memo_footprint () =
  let t = Par.Memo_tbl.create () in
  let n = 100_000 in
  let b = Bytes.make 16 'k' in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b 0 (Int64.of_int i);
    let h = Par.Memo_tbl.find_or_claim t b ~len:16 ~owner:0 in
    Par.Memo_tbl.resolve t h 0.5
  done;
  let per = float_of_int (Obj.reachable_words (Obj.repr t)) /. float_of_int n in
  if per > 5.7 then Alcotest.failf "%.2f words per binding (at most 5.7)" per

(* The claimant lives in the binding's arena cell, which growth does not
   move: live claims keep their owners while the index doubles twice
   (32 -> 64 -> 128 slots, at 28 and 56 bindings). *)
let test_memo_owners_across_growth () =
  let t = Par.Memo_tbl.create ~size:16 () in
  let owners = [| 0; 7; 1000 |] in
  let name i = "claim" ^ string_of_int i in
  let claimed = Array.mapi (fun i o -> memo_claim t (name i) ~owner:o) owners in
  for i = 0 to 59 do
    let h = memo_claim t ("fill" ^ string_of_int i) ~owner:1 in
    Par.Memo_tbl.resolve t h 1.0
  done;
  Array.iteri
    (fun i o ->
      Alcotest.(check int) "handle kept" claimed.(i)
        (memo_claim t (name i) ~owner:5);
      Alcotest.(check bool) "still claimed" false (Par.Memo_tbl.last_was_new t);
      Alcotest.(check int) "owner kept" o (Par.Memo_tbl.owner t claimed.(i)))
    owners

let test_memo_iter_skips_claims () =
  let t = Par.Memo_tbl.create ~size:16 () in
  for i = 0 to 99 do
    let h = memo_claim t (string_of_int i) ~owner:i in
    if i mod 3 <> 0 then Par.Memo_tbl.resolve t h (float_of_int i)
  done;
  let seen = ref [] in
  Par.Memo_tbl.iter_resolved t (fun k v -> seen := (k, v) :: !seen);
  let expected =
    List.filter_map
      (fun i ->
        if i mod 3 <> 0 then Some (string_of_int i, float_of_int i) else None)
      (List.init 100 Fun.id)
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "resolved bindings only, in claim order" expected (List.rev !seen)

(* Values round-trip through their 64 bits, so no float is a sentinel. *)
let test_memo_value_bits () =
  let t = Par.Memo_tbl.create () in
  List.iteri
    (fun i v ->
      let h = memo_claim t (string_of_int i) ~owner:0 in
      Par.Memo_tbl.resolve t h v;
      Alcotest.(check int64) (Printf.sprintf "%h" v) (Int64.bits_of_float v)
        (Int64.bits_of_float (Par.Memo_tbl.value t h)))
    [ -0.0; 1.0 /. 3.0; Float.min_float *. epsilon_float; Float.nan ]

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

(* ---- determinism battery: every engine combination ------------------ *)

type 'a harness = {
  value : ?memo_budget:int -> ?prune:bool -> 'a -> float;
  stats : unit -> Mdp.Solver.stats;
  pruned : unit -> int;
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
      stats;
      pruned = pruned_subtrees;
      set_prune_audit;
      reset;
    }
end

module Atomic_s = Harness (Model.Weakener_atomic.Game)
module Abd_s = Harness (Model.Weakener_abd.Game)
module Va_s = Harness (Model.Weakener_va.Game)
module Ghw_s = Harness (Model.Ghw_snapshot_game.Game)

(* One memo backend's leg of the matrix: the unpruned solve, then a
   pruned one. Returns the pruned solve's states and cuts. *)
let check_leg h name init ~seq ~(st_seq : Mdp.Solver.stats) memo_budget =
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

(* Every engine combination — pruned or not, in RAM or under a memo
   budget — runs the same recursion and must return the in-RAM value bit
   for bit. A budget of 1 byte is clamped to the store's 64 KiB floor, so
   the larger games spill. The budgeted solve keeps the in-RAM solve's
   states, hits and misses, and the pruned solve's states and cuts agree
   across backends. With [~audit] every pruned solve re-evaluates its
   cuts and raises on one that changed a value. Returns the unpruned
   stats and the pruned solve's states and cuts. *)
let check_matrix ?(audit = false) ?(budgets = [ None; Some 1 ]) h name init =
  h.reset ();
  let seq = h.value init in
  let st_seq = h.stats () in
  h.set_prune_audit audit;
  let legs =
    Fun.protect
      ~finally:(fun () -> h.set_prune_audit false)
      (fun () -> List.map (check_leg h name init ~seq ~st_seq) budgets)
  in
  let ram = List.hd legs in
  List.iter
    (Alcotest.(check (pair int int))
       (Fmt.str "%s: pruned states and cuts agree across backends" name)
       ram)
    legs;
  (st_seq, ram)

let test_matrix_atomic () =
  ignore (check_matrix Atomic_s.h "atomic" Model.Weakener_atomic.init)

(* Its budgeted leg runs the store unspilled; test_store.ml spills
   ABD^1. *)
let test_matrix_abd () =
  let st_seq, (n_pruned, cuts) =
    check_matrix ~budgets:[ None; Some (64 lsl 20) ] Abd_s.h "ABD^1"
      (Model.Weakener_abd.init ~k:1 ())
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
  ignore (check_matrix Va_s.h "VA^1" (Model.Weakener_va.init ~k:1))

let test_matrix_ghw () =
  ignore (check_matrix Ghw_s.h "ghw^1" (Model.Ghw_snapshot_game.init ~k:1))

(* Chance steps at 1/3, under audit: the iteration choices of VA^3 and
   ghw^3 are not powers of two, so the cuts' soundness rests on the
   float sum of three 1/3s not exceeding 1 (see [Mdp.Solver]'s
   "Interval pruning"). The audit re-checks every cut taken; a plain
   pruned solve then pins the state and cut counts. *)
let check_audited h name init ~states ~cuts =
  let st_seq, _ = check_matrix ~audit:true h name init in
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

let tests =
  [
    Alcotest.test_case "memo_tbl: claim protocol" `Quick test_memo_claim_protocol;
    Alcotest.test_case "memo_tbl: handles stable across growth" `Quick
      test_memo_growth;
    Alcotest.test_case "memo_tbl: growth at 7/8 keeps every handle" `Quick
      test_memo_growth_boundary;
    Alcotest.test_case "memo_tbl: keys at chunk boundaries" `Quick
      test_memo_chunk_boundary;
    Alcotest.test_case "memo_tbl: over-long key raises" `Quick
      test_memo_key_limit;
    Alcotest.test_case "memo_tbl: len past the buffer raises" `Quick
      test_memo_slice_bounds;
    Alcotest.test_case "memo_tbl: size and handle limits raise" `Quick
      test_memo_limits;
    Alcotest.test_case "memo_tbl: clear then reuse" `Quick test_memo_clear;
    Alcotest.test_case "memo_tbl: at most 5.7 words per binding" `Quick
      test_memo_footprint;
    Alcotest.test_case "memo_tbl: live owners survive growth" `Quick
      test_memo_owners_across_growth;
    Alcotest.test_case "memo_tbl: iter_resolved skips claims" `Quick
      test_memo_iter_skips_claims;
    Alcotest.test_case "memo_tbl: values are bit-exact" `Quick
      test_memo_value_bits;
    Alcotest.test_case "sharded_tbl: claim protocol" `Quick
      test_tbl_claim_protocol;
    Alcotest.test_case "sharded_tbl: double resolve raises" `Quick
      test_tbl_double_resolve;
    Alcotest.test_case "sharded_tbl: concurrent claims partition" `Quick
      test_tbl_concurrent_claims;
    Alcotest.test_case "matrix: atomic, prune x budget" `Quick
      test_matrix_atomic;
    Alcotest.test_case "matrix: ABD^1, prune x budget, strict cuts" `Slow
      test_matrix_abd;
    Alcotest.test_case "matrix: VA^1, prune x budget" `Quick test_matrix_va;
    Alcotest.test_case "matrix: ghw^1, prune x budget" `Quick test_matrix_ghw;
    Alcotest.test_case "matrix: VA^3 (1/3 chance), audited" `Quick
      test_matrix_va3;
    Alcotest.test_case "matrix: ghw^3 (1/3 chance), audited" `Quick
      test_matrix_ghw3;
    Alcotest.test_case "prune audit mode is clean" `Quick test_prune_audit_clean;
  ]
