module Game = struct
  type ts = int * int
  type vts = int * ts (* value (-1 = ⊥), timestamp *)

  (* a collect in progress: next cell to read and the largest pair so far *)
  type coll = { pos : int; best : vts }

  type phase =
    | Collect of { idx : int; results : vts list; cur : coll }
        (* [results] kept sorted: only the multiset feeds the choice *)
    | Choose of { results : vts list }
    | Write_step of { payload : vts }  (* writes only: the single Val write *)

  type opkind = KWrite of int | KRead

  type op_st = { kind : opkind; phase : phase }

  type pstate = { pc : int; op : op_st option; reads : int list }

  type state = {
    k : int;
    vals : vts Tri.t;  (* Val[0..2] *)
    procs : pstate Tri.t;
    coin : int;
    creg : int;
    cread : int option;
  }

  type move = Step of int

  type transition = Det of state | Chance of (float * state) list

  (* Monomorphic: agrees with polymorphic [compare] on every pair, so the
     sorted results lists (and hence the canonical encodings) are
     unchanged, without calls into the generic comparison runtime. *)
  let ts_lt ((a1, a2) : ts) ((b1, b2) : ts) = a1 < b1 || (a1 = b1 && a2 < b2)

  let cmp_vts ((v1, (t1, p1)) : vts) ((v2, (t2, p2)) : vts) =
    if v1 <> v2 then if v1 < v2 then -1 else 1
    else if t1 <> t2 then if t1 < t2 then -1 else 1
    else if p1 < p2 then -1
    else if p1 > p2 then 1
    else 0

  let bot_vts : vts = (-1, (0, 0))
  let fresh_coll = { pos = 0; best = bot_vts }

  let outcome_impossible s =
    s.coin >= 0
    &&
    match (Tri.get s.procs 2).reads with
    | u1 :: rest ->
        u1 <> s.coin || (match rest with u2 :: _ -> u2 <> 1 - s.coin | [] -> false)
    | [] -> false

  let moves s =
    if (Tri.get s.procs 2).pc >= 3 then []
    else if outcome_impossible s then []
    else
      List.filter_map
        (fun p ->
          let ps = Tri.get s.procs p in
          let live =
            ps.op <> None
            ||
            match (p, ps.pc) with
            | 0, 0 -> true
            | 1, (0 | 1 | 2) -> true
            | 2, (0 | 1 | 2) -> true
            | _ -> false
          in
          if live then Some (Step p) else None)
        Tri.indices

  let with_proc s p ps = { s with procs = Tri.set s.procs p ps }

  let set_op s p op =
    let ps = Tri.get s.procs p in
    with_proc s p { ps with op }

  let start_op s p kind =
    set_op s p
      (Some { kind; phase = Collect { idx = 0; results = []; cur = fresh_coll } })

  let complete s p kind payload =
    let ps = Tri.get s.procs p in
    let reads =
      match kind with KRead -> ps.reads @ [ fst payload ] | KWrite _ -> ps.reads
    in
    with_proc s p { pc = ps.pc + 1; op = None; reads }

  let op_step s p (o : op_st) =
    match o.phase with
    | Collect { idx; results; cur } ->
        (* one single-step cell read *)
        let cell = Tri.get s.vals cur.pos in
        let best = if ts_lt (snd cur.best) (snd cell) then cell else cur.best in
        if cur.pos + 1 < 3 then
          Det
            (set_op s p
               (Some { o with phase = Collect { idx; results; cur = { pos = cur.pos + 1; best } } }))
        else begin
          let results = List.sort cmp_vts (best :: results) in
          let phase =
            if idx + 1 < s.k then Collect { idx = idx + 1; results; cur = fresh_coll }
            else Choose { results }
          in
          Det (set_op s p (Some { o with phase }))
        end
    | Choose { results } ->
        let continue chosen =
          match o.kind with
          | KRead -> complete s p o.kind chosen
          | KWrite v ->
              let t, _ = snd chosen in
              set_op s p (Some { o with phase = Write_step { payload = (v, (t + 1, p)) } })
        in
        let pr = 1.0 /. float_of_int (List.length results) in
        Chance (List.map (fun r -> (pr, continue r)) results)
    | Write_step { payload } ->
        let s = { s with vals = Tri.set s.vals p payload } in
        Det (complete s p o.kind payload)

  let apply s (Step p) =
    let ps = Tri.get s.procs p in
    match ps.op with
    | Some o -> op_step s p o
    | None -> (
        match (p, ps.pc) with
        | 0, 0 -> Det (start_op s p (KWrite 0))
        | 1, 0 -> Det (start_op s p (KWrite 1))
        | 1, 1 ->
            let flip v = with_proc { s with coin = v } 1 { ps with pc = 2 } in
            Chance [ (0.5, flip 0); (0.5, flip 1) ]
        | 1, 2 -> Det (with_proc { s with creg = s.coin } 1 { ps with pc = 3 })
        | 2, 0 -> Det (start_op s p KRead)
        | 2, 1 -> Det (start_op s p KRead)
        | 2, 2 -> Det (with_proc { s with cread = Some s.creg } 2 { ps with pc = 3 })
        | _ -> assert false)

  let terminal_value s =
    match s.cread with
    | Some c when c = 0 || c = 1 -> (
        match (Tri.get s.procs 2).reads with
        | [ u1; u2 ] -> if u1 = c && u2 = 1 - c then 1.0 else 0.0
        | _ -> 0.0)
    | _ -> 0.0

  (* Canonical key: every field once, in declaration order; variants carry
     a tag byte. Injective by Mdp.Key's construction. *)
  (* Buffer passed as an argument (not captured) so the hot-path encoder
     allocates no closures. *)
  let enc_vts b (v, (t, p)) =
    Mdp.Key.int b v;
    Mdp.Key.int b t;
    Mdp.Key.int b p

  let enc_phase b = function
    | Collect { idx; results; cur } ->
        Mdp.Key.int b 0;
        Mdp.Key.int b idx;
        Mdp.Key.list b enc_vts results;
        Mdp.Key.int b cur.pos;
        enc_vts b cur.best
    | Choose { results } ->
        Mdp.Key.int b 1;
        Mdp.Key.list b enc_vts results
    | Write_step { payload } ->
        Mdp.Key.int b 2;
        enc_vts b payload

  let enc_op b (o : op_st) =
    (match o.kind with
    | KRead -> Mdp.Key.int b 0
    | KWrite v ->
        Mdp.Key.int b 1;
        Mdp.Key.int b v);
    enc_phase b o.phase

  let enc_pstate b (p : pstate) =
    Mdp.Key.int b p.pc;
    Mdp.Key.option b enc_op p.op;
    Mdp.Key.list b Mdp.Key.int p.reads

  let encode_into (s : state) b =
    Mdp.Key.int b s.k;
    enc_vts b (Tri.get s.vals 0);
    enc_vts b (Tri.get s.vals 1);
    enc_vts b (Tri.get s.vals 2);
    enc_pstate b (Tri.get s.procs 0);
    enc_pstate b (Tri.get s.procs 1);
    enc_pstate b (Tri.get s.procs 2);
    Mdp.Key.int b s.coin;
    Mdp.Key.int b s.creg;
    Mdp.Key.option b Mdp.Key.int s.cread

  let encode (s : state) = Mdp.Key.run (encode_into s)

  let pp_move ppf (Step p) = Fmt.pf ppf "step(p%d)" p
end

module S = Mdp.Solver.Make (Game)

let init ~k : Game.state =
  if k < 1 then invalid_arg "Weakener_va.init: k >= 1 required";
  {
    k;
    vals = Tri.make Game.bot_vts;
    procs = Tri.make { Game.pc = 0; op = None; reads = [] };
    coin = -1;
    creg = -1;
    cread = None;
  }

let bad_probability ~k () = S.value (init ~k)
let explored_states () = S.explored ()
let reset () = S.reset ()
let solver_stats () = S.stats ()
