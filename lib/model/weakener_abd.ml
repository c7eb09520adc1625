type k = int

(* Two sound state-space reductions are applied relative to the raw
   message-level semantics; neither changes the adversary-optimal value:

   - Reply fusion. Delivering a query to a server freezes the reply content
     (the server's current pair); consuming the reply later only updates the
     client's private (got, best) accumulator, which is invisible to other
     processes until the client's own advance step — itself an adversary
     move. Delivering at most [quorum] queries per phase and folding the
     reply into the accumulator at query-delivery time therefore reaches
     exactly the same set of outcomes (a frozen-but-unconsumed third reply
     is equivalent to never delivering that query, because ABD query
     processing does not change server state).

   - Ack fusion. An ack only increments the counter that enables the
     client's completion step, again adversary-controlled; folding the ack
     into update delivery (when the originating operation is still waiting
     and below quorum) preserves the value for the same reason.

   Update messages, by contrast, must remain independently deliverable
   after their operation completes: Figure 1's adversary relies on such
   straggler updates, and they do change server state. *)

module Game = struct
  (* Values: -1 encodes ⊥. Timestamps are (integer, process id) pairs with
     lexicographic order; (0, 0) is the initial timestamp. *)
  type ts = int * int
  type vts = int * ts

  (* The two shared registers; [CO] is modelled either atomically or as a
     second, independent ABD^k instance, per [atomic_c]. *)
  type obj_id = RO | CO

  type iter_st = {
    queried : bool list;  (* query to server s already delivered *)
    got : int;  (* replies folded in (= number of delivered queries) *)
    best : vts;  (* largest-timestamp reply so far *)
  }

  type phase =
    | Query of { idx : int; results : vts list; cur : iter_st }
        (* [results] is kept sorted: only the multiset feeds the uniform
           choice, so the order carries no information *)
    | Choose of { results : vts list }  (* the object random step is next *)
    | Waiting of { payload : vts; acks : int }  (* update sent, awaiting acks *)

  type opkind = KWrite of int | KRead

  type op_st = { obj : obj_id; kind : opkind; opseq : int; phase : phase }

  type upd_msg = { obj : obj_id; payload : vts; dest : int; origin : int * int }

  type pstate = { pc : int; op : op_st option; reads : int list }

  type state = {
    k : int;
    ns : int;  (* number of replicas; the 3 program processes are servers
                  0-2, any further servers are pure replicas *)
    atomic_c : bool;
    servers_r : vts list;
    servers_c : vts list;
    procs : pstate Tri.t;
    upd_out : upd_msg list;  (* canonically sorted *)
    coin : int;
    creg : int;  (* atomic-C register *)
    cread : int option;  (* p2's C read result *)
  }

  type move =
    | Client of int  (* process p performs its next client step *)
    | DQuery of int * int  (* deliver p's query to server s (reply fused) *)
    | DUpdate of int  (* deliver the i-th in-transit update message *)

  type transition = Det of state | Chance of (float * state) list

  (* Monomorphic comparisons. These agree with polymorphic [compare] on
     every pair (ints compare numerically, constant constructors by
     declaration order, tuples/records lexicographically field by field)
     — so every sort below produces the order [List.sort compare] did,
     and the canonical encodings are unchanged — but they compile to int
     compares instead of calls into the generic comparison runtime,
     which dominated the solver's expansion profile. *)
  let[@inline] cmp_int (a : int) (b : int) =
    if a < b then -1 else if a > b then 1 else 0

  let ts_lt ((a1, a2) : ts) ((b1, b2) : ts) = a1 < b1 || (a1 = b1 && a2 < b2)

  let cmp_vts ((v1, (t1, p1)) : vts) ((v2, (t2, p2)) : vts) =
    if v1 <> v2 then cmp_int v1 v2
    else if t1 <> t2 then cmp_int t1 t2
    else cmp_int p1 p2

  let bot_vts : vts = (-1, (-1, -1))
  let quorum s = (s.ns / 2) + 1
  let server_indices s = List.init s.ns Fun.id

  let fresh_iter s =
    { queried = List.init s.ns (fun _ -> false); got = 0; best = bot_vts }

  let nth = List.nth
  let set_nth l i v = List.mapi (fun j x -> if j = i then v else x) l
  let servers_of s = function RO -> s.servers_r | CO -> s.servers_c

  let set_servers s obj v =
    match obj with RO -> { s with servers_r = v } | CO -> { s with servers_c = v }

  (* ---- normalization: prune inert update messages ---- *)

  let origin_waiting s (p, opseq) =
    match (Tri.get s.procs p).op with
    | Some { opseq = o; phase = Waiting { acks; _ }; _ } ->
        o = opseq && acks < quorum s
    | _ -> false

  (* Field-by-field in declaration order, first difference wins — exactly
     polymorphic [compare] on [upd_msg]. *)
  let cmp_upd (a : upd_msg) (b : upd_msg) =
    let c =
      match (a.obj, b.obj) with
      | RO, RO | CO, CO -> 0
      | RO, CO -> -1
      | CO, RO -> 1
    in
    if c <> 0 then c
    else
      let c = cmp_vts a.payload b.payload in
      if c <> 0 then c
      else
        let c = cmp_int a.dest b.dest in
        if c <> 0 then c
        else
          let ap, as_ = a.origin and bp, bs = b.origin in
          let c = cmp_int ap bp in
          if c <> 0 then c else cmp_int as_ bs

  let normalize s =
    let upd_out =
      List.filter
        (fun (m : upd_msg) ->
          let server_ts = snd (nth (servers_of s m.obj) m.dest) in
          ts_lt server_ts (snd m.payload) || origin_waiting s m.origin)
        s.upd_out
      |> List.sort cmp_upd
    in
    { s with upd_out }

  (* ---- enabled moves ---- *)

  let client_enabled s p =
    let ps = Tri.get s.procs p in
    match ps.op with
    | Some { phase = Query { cur; _ }; _ } -> cur.got >= quorum s
    | Some { phase = Choose _; _ } -> true
    | Some { phase = Waiting { acks; _ }; _ } -> acks >= quorum s
    | None -> (
        match (p, ps.pc) with
        | 0, 0 -> true
        | 1, (0 | 1 | 2) -> true
        | 2, (0 | 1 | 2) -> true
        | _ -> false)

  (* The bad outcome is already impossible when a completed read of p2
     mismatches the (known) coin: the game value from here is 0 whatever the
     adversary does, so such states are terminal. This prunes roughly half
     of the tree below every "wrong" read. *)
  let outcome_impossible s =
    s.coin >= 0
    &&
    match (Tri.get s.procs 2).reads with
    | u1 :: rest ->
        u1 <> s.coin || (match rest with u2 :: _ -> u2 <> 1 - s.coin | [] -> false)
    | [] -> false

  let moves s =
    (* once p2 finished, the outcome is fixed: treat as terminal *)
    if (Tri.get s.procs 2).pc >= 3 then []
    else if outcome_impossible s then []
    else begin
      let clients =
        List.filter_map
          (fun p -> if client_enabled s p then Some (Client p) else None)
          Tri.indices
      in
      let queries =
        List.concat_map
          (fun p ->
            match (Tri.get s.procs p).op with
            | Some { phase = Query { cur; _ }; _ } when cur.got < quorum s ->
                List.filter_map
                  (fun srv ->
                    if not (nth cur.queried srv) then Some (DQuery (p, srv))
                    else None)
                  (server_indices s)
            | _ -> [])
          Tri.indices
      in
      let updates = List.mapi (fun i _ -> DUpdate i) s.upd_out in
      clients @ queries @ updates
    end

  (* ---- applying moves ---- *)

  let with_proc s p ps = { s with procs = Tri.set s.procs p ps }

  let set_op s p op =
    let ps = Tri.get s.procs p in
    with_proc s p { ps with op }

  let start_op s p obj kind opseq =
    set_op s p
      (Some
         {
           obj;
           kind;
           opseq;
           phase = Query { idx = 0; results = []; cur = fresh_iter s };
         })

  let advance_query s p =
    let ps = Tri.get s.procs p in
    match ps.op with
    | Some ({ phase = Query { idx; results; cur }; _ } as o) ->
        let results = List.sort cmp_vts (cur.best :: results) in
        let phase =
          if idx + 1 < s.k then
            Query { idx = idx + 1; results; cur = fresh_iter s }
          else Choose { results }
        in
        set_op s p (Some { o with phase })
    | _ -> assert false

  let choose_iteration s p =
    let ps = Tri.get s.procs p in
    match ps.op with
    | Some ({ phase = Choose { results }; _ } as o) ->
        let outcomes =
          List.map
            (fun chosen ->
              let payload =
                match o.kind with
                | KRead -> chosen
                | KWrite v ->
                    let t, _ = snd chosen in
                    (v, (t + 1, p))
              in
              let upd_out =
                List.map
                  (fun dest -> { obj = o.obj; payload; dest; origin = (p, o.opseq) })
                  (server_indices s)
                @ s.upd_out
              in
              normalize
                (set_op
                   { s with upd_out }
                   p
                   (Some { o with phase = Waiting { payload; acks = 0 } })))
            results
        in
        let pr = 1.0 /. float_of_int (List.length results) in
        Chance (List.map (fun st -> (pr, st)) outcomes)
    | _ -> assert false

  let complete_op s p =
    let ps = Tri.get s.procs p in
    match ps.op with
    | Some { obj; kind; phase = Waiting { payload; _ }; _ } ->
        let s =
          match (obj, kind) with
          | RO, KRead ->
              with_proc s p { ps with reads = ps.reads @ [ fst payload ] }
          | CO, KRead -> { s with cread = Some (fst payload) }
          | (RO | CO), KWrite _ -> s
        in
        let ps = Tri.get s.procs p in
        normalize (with_proc s p { ps with pc = ps.pc + 1; op = None })
    | _ -> assert false

  let client_step s p =
    let ps = Tri.get s.procs p in
    match ps.op with
    | Some { phase = Query _; _ } -> Det (advance_query s p)
    | Some { phase = Choose _; _ } -> choose_iteration s p
    | Some { phase = Waiting _; _ } -> Det (complete_op s p)
    | None -> (
        match (p, ps.pc) with
        | 0, 0 -> Det (start_op s p RO (KWrite 0) 0)
        | 1, 0 -> Det (start_op s p RO (KWrite 1) 0)
        | 1, 1 ->
            let flip v = with_proc { s with coin = v } 1 { ps with pc = 2 } in
            Chance [ (0.5, flip 0); (0.5, flip 1) ]
        | 1, 2 ->
            if s.atomic_c then
              Det (with_proc { s with creg = s.coin } 1 { ps with pc = 3 })
            else Det (start_op s p CO (KWrite s.coin) 2)
        | 2, 0 -> Det (start_op s p RO KRead 0)
        | 2, 1 -> Det (start_op s p RO KRead 1)
        | 2, 2 ->
            if s.atomic_c then
              Det (with_proc { s with cread = Some s.creg } 2 { ps with pc = 3 })
            else Det (start_op s p CO KRead 2)
        | _ -> assert false)

  let apply s move =
    match move with
    | Client p -> client_step s p
    | DQuery (p, srv) ->
        (* fused: freeze the server's pair and fold it into the client's
           accumulator in one indivisible event *)
        let ps = Tri.get s.procs p in
        (match ps.op with
        | Some ({ phase = Query q; _ } as o) ->
            let reply = nth (servers_of s o.obj) srv in
            let cur = q.cur in
            let best =
              if ts_lt (snd cur.best) (snd reply) then reply else cur.best
            in
            let cur =
              { queried = set_nth cur.queried srv true; got = cur.got + 1; best }
            in
            Det (set_op s p (Some { o with phase = Query { q with cur } }))
        | _ -> assert false)
    | DUpdate i ->
        let m = List.nth s.upd_out i in
        let upd_out = List.filteri (fun j _ -> j <> i) s.upd_out in
        let s =
          let servers = servers_of s m.obj in
          let cur = nth servers m.dest in
          if ts_lt (snd cur) (snd m.payload) then
            set_servers s m.obj (set_nth servers m.dest m.payload)
          else s
        in
        let s = { s with upd_out } in
        (* fused ack *)
        let s =
          let p, opseq = m.origin in
          let ps = Tri.get s.procs p in
          match ps.op with
          | Some ({ opseq = o; phase = Waiting w; _ } as op)
            when o = opseq && w.acks < quorum s ->
              set_op s p (Some { op with phase = Waiting { w with acks = w.acks + 1 } })
          | _ -> s
        in
        Det (normalize s)

  let terminal_value s =
    match s.cread with
    | Some c when c = 0 || c = 1 -> (
        match (Tri.get s.procs 2).reads with
        | [ u1; u2 ] -> if u1 = c && u2 = 1 - c then 1.0 else 0.0
        | _ -> 0.0)
    | _ -> 0.0

  (* Canonical key: every field once, in declaration order; variants carry
     a tag byte. The bytes are exactly those of the [Mdp.Key] combinators
     (ints as [Mdp.Key.int], options as a presence byte then the payload,
     lists length-prefixed), so the key is injective by that module's
     construction. The solver hashes and compares this flat ~80-byte
     string on each memo probe instead of traversing the nested state.

     The writers below are module-local and thread a write position
     through one reserved byte array: [encode_into] runs once per memo
     probe, and under separate compilation with [-opaque] every call
     into [Mdp.Key] is an indirect call that is never inlined — ~60 of
     them per key. [bound] over-approximates the key's length from the
     state's list lengths (9 bytes per int, the widest form), so no
     write can run past the reservation; the writes are bounds-checked
     all the same. *)
  let int_max = 9
  let vts_max = 3 * int_max

  let phase_max = function
    | Query { results; cur; _ } ->
        (3 * int_max)
        + (List.length results * vts_max)
        + int_max + List.length cur.queried + int_max + vts_max
    | Choose { results } -> (2 * int_max) + (List.length results * vts_max)
    | Waiting _ -> (2 * int_max) + vts_max

  let pstate_max (p : pstate) =
    (2 * int_max) + 1
    + (match p.op with None -> 0 | Some o -> (4 * int_max) + phase_max o.phase)
    + (List.length p.reads * int_max)

  let bound s =
    let p0, p1, p2 = s.procs in
    (5 * int_max) + 3
    + ((List.length s.servers_r + List.length s.servers_c) * vts_max)
    + pstate_max p0 + pstate_max p1 + pstate_max p2
    + int_max
    + (List.length s.upd_out * (vts_max + (4 * int_max)))
    + (3 * int_max) + 1

  let[@inline] w_u8 d p v =
    Bytes.set d p (Char.unsafe_chr v);
    p + 1

  let w_wide d p v =
    Bytes.set d p '\xff';
    Bytes.set_int64_le d (p + 1) (Int64.of_int v);
    p + 9

  let[@inline] w_int d p v =
    if v >= -120 && v <= 134 then w_u8 d p (v + 120) else w_wide d p v

  let[@inline] w_bool d p v = w_u8 d p (if v then 1 else 0)
  let[@inline] w_obj d p = function RO -> w_int d p 0 | CO -> w_int d p 1

  let[@inline] w_vts d p ((v, (t, q)) : vts) =
    let p = w_int d p v in
    let p = w_int d p t in
    w_int d p q

  let rec w_vts_items d p = function
    | [] -> p
    | x :: tl -> w_vts_items d (w_vts d p x) tl

  let w_vts_list d p l = w_vts_items d (w_int d p (List.length l)) l

  let rec w_bool_items d p = function
    | [] -> p
    | x :: tl -> w_bool_items d (w_bool d p x) tl

  let rec w_int_items d p = function
    | [] -> p
    | x :: tl -> w_int_items d (w_int d p x) tl

  let w_phase d p = function
    | Query { idx; results; cur } ->
        let p = w_int d p 0 in
        let p = w_int d p idx in
        let p = w_vts_list d p results in
        let p = w_int d p (List.length cur.queried) in
        let p = w_bool_items d p cur.queried in
        let p = w_int d p cur.got in
        w_vts d p cur.best
    | Choose { results } -> w_vts_list d (w_int d p 1) results
    | Waiting { payload; acks } ->
        let p = w_int d p 2 in
        let p = w_vts d p payload in
        w_int d p acks

  let w_pstate d p (ps : pstate) =
    let p = w_int d p ps.pc in
    let p =
      match ps.op with
      | None -> w_u8 d p 0
      | Some o ->
          let p = w_u8 d p 1 in
          let p = w_obj d p o.obj in
          let p =
            match o.kind with
            | KRead -> w_int d p 0
            | KWrite v -> w_int d (w_int d p 1) v
          in
          let p = w_int d p o.opseq in
          w_phase d p o.phase
    in
    w_int_items d (w_int d p (List.length ps.reads)) ps.reads

  let rec w_upd_items d p = function
    | [] -> p
    | (m : upd_msg) :: tl ->
        let p = w_obj d p m.obj in
        let p = w_vts d p m.payload in
        let p = w_int d p m.dest in
        let o, seq = m.origin in
        let p = w_int d p o in
        w_upd_items d (w_int d p seq) tl

  let encode_into (s : state) b =
    Mdp.Key.reserve b (bound s);
    let d = Mdp.Key.data b in
    let p = Mdp.Key.length b in
    let p = w_int d p s.k in
    let p = w_int d p s.ns in
    let p = w_bool d p s.atomic_c in
    let p = w_vts_list d p s.servers_r in
    let p = w_vts_list d p s.servers_c in
    let p0, p1, p2 = s.procs in
    let p = w_pstate d p p0 in
    let p = w_pstate d p p1 in
    let p = w_pstate d p p2 in
    let p = w_upd_items d (w_int d p (List.length s.upd_out)) s.upd_out in
    let p = w_int d p s.coin in
    let p = w_int d p s.creg in
    let p =
      match s.cread with None -> w_u8 d p 0 | Some c -> w_int d (w_u8 d p 1) c
    in
    Mdp.Key.set_length b p

  let encode (s : state) = Mdp.Key.run (encode_into s)

  let pp_move ppf = function
    | Client p -> Fmt.pf ppf "client(p%d)" p
    | DQuery (p, srv) -> Fmt.pf ppf "query(p%d->s%d)" p srv
    | DUpdate i -> Fmt.pf ppf "update[%d]" i
end

module S = Mdp.Solver.Make (Game)

let init ?(atomic_c = true) ?(servers = 3) ~k () : Game.state =
  if k < 1 then invalid_arg "Weakener_abd.init: k >= 1 required";
  if servers < 3 then invalid_arg "Weakener_abd.init: at least 3 servers";
  {
    k;
    ns = servers;
    atomic_c;
    servers_r = List.init servers (fun _ -> (-1, (0, 0)));
    servers_c = List.init servers (fun _ -> (-1, (0, 0)));
    procs = Tri.make { Game.pc = 0; op = None; reads = [] };
    upd_out = [];
    coin = -1;
    creg = -1;
    cread = None;
  }

let bad_probability ?pool ?memo_budget ?(atomic_c = true) ?(servers = 3)
    ?(jobs = 1) ?(prune = false) ~k () =
  S.value_par ?pool ?memo_budget ~prune ~jobs (init ~atomic_c ~servers ~k ())
let best_move = S.best_move
let store_stats () = S.store_stats ()
let explored_states () = S.explored ()
let pruned_subtrees () = S.pruned_subtrees ()
let reset () = S.reset ()
let solver_stats () = S.stats ()
let last_par_stats () = S.last_par_stats ()
let set_progress = S.set_progress
