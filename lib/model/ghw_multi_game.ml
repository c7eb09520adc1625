module Game = struct
  type view = int * int (* component-0 and component-1 values *)
  type cell = { v : int; seq : int; view : view }
  type collect = cell list

  type body = {
    prev : collect option;
    cur : cell list;  (* current collect, components read so far *)
    moved : int list;  (* per component: moves observed by this body *)
  }

  type scanning = { body : body; idx : int; results : view list }

  type p0state =
    | U_atomic of int  (* atomic mode: number of updates still to do *)
    | U_scan of { upd : int; sc : scanning }  (* embedded scan running *)
    | U_write of { upd : int; view : view }  (* chosen; the write is next *)
    | P0_done

  type p2state = Atomic_scan | Scanning of scanning | Read_c | P2_done

  type state = {
    k : int;
    m : cell list;
    p0 : p0state;
    p1pc : int;  (* 0: write M[1]; 1: flip; 2: write C; 3: done *)
    p2 : p2state;
    u1 : int;  (* -2 unset; -1 mixed; 0/1 *)
    coin : int;
    creg : int;
    cread : int;
  }

  type move = Step of int

  type transition = Det of state | Chance of (float * state) list

  let n_components = 3
  let fresh_body = { prev = None; cur = []; moved = List.init n_components (fun _ -> 0) }
  let fresh_scanning = { body = fresh_body; idx = 0; results = [] }

  let classify ((v0, v1) : view) =
    match (v0 > 0, v1 > 0) with
    | true, false -> 0
    | false, true -> 1
    | _ -> -1

  let view_of_collect c = ((List.nth c 0).v, (List.nth c 1).v)
  let seqs_equal c1 c2 = List.for_all2 (fun a b -> a.seq = b.seq) c1 c2

  (* One read step of a scan body; mirrors Afek et al.: return on two
     consecutive seq-equal collects, else count moves and borrow the view of
     a component seen moving twice. *)
  let advance_scanning s (sc : scanning) =
    let j = List.length sc.body.cur in
    let cur = sc.body.cur @ [ List.nth s.m j ] in
    if List.length cur < n_components then
      `Cont { sc with body = { sc.body with cur } }
    else begin
      let finish_body result =
        let results = sc.results @ [ result ] in
        if sc.idx + 1 < s.k then
          `Cont { body = fresh_body; idx = sc.idx + 1; results }
        else `Finished results
      in
      match sc.body.prev with
      | Some p when seqs_equal p cur -> finish_body (view_of_collect cur)
      | Some p ->
          let moved =
            List.mapi
              (fun i m ->
                if (List.nth p i).seq <> (List.nth cur i).seq then m + 1 else m)
              sc.body.moved
          in
          (match
             List.find_opt
               (fun i -> List.nth moved i >= 2)
               (List.init n_components Fun.id)
           with
          | Some i ->
              (* borrow: the view embedded by the second observed update *)
              finish_body (List.nth cur i).view
          | None -> `Cont { sc with body = { prev = Some cur; cur = []; moved } })
      | None ->
          `Cont { sc with body = { prev = Some cur; cur = []; moved = sc.body.moved } }
    end

  let uniform_choice results continue =
    let pr = 1.0 /. float_of_int (List.length results) in
    Chance (List.map (fun r -> (pr, continue r)) results)

  let moves s =
    if s.p2 = P2_done then []
    else begin
      let p0 = if s.p0 = P0_done then [] else [ Step 0 ] in
      let p1 = if s.p1pc < 3 then [ Step 1 ] else [] in
      p0 @ p1 @ [ Step 2 ]
    end

  let set_m s i c = { s with m = List.mapi (fun j x -> if j = i then c else x) s.m }

  let p0_write s upd view =
    let seq = (List.nth s.m 0).seq in
    let s = set_m s 0 { v = upd; seq = seq + 1; view } in
    { s with p0 = (if upd >= 2 then P0_done else U_scan { upd = upd + 1; sc = fresh_scanning }) }

  let apply s (Step p) =
    match p with
    | 0 -> (
        match s.p0 with
        | U_atomic remaining ->
            let upd = 3 - remaining (* 1 then 2 *) in
            let seq = (List.nth s.m 0).seq in
            let s = set_m s 0 { v = upd; seq = seq + 1; view = (0, 0) } in
            Det
              {
                s with
                p0 = (if remaining = 1 then P0_done else U_atomic (remaining - 1));
              }
        | U_scan { upd; sc } -> (
            match advance_scanning s sc with
            | `Cont sc' -> Det { s with p0 = U_scan { upd; sc = sc' } }
            | `Finished results ->
                uniform_choice results (fun view ->
                    { s with p0 = U_write { upd; view } }))
        | U_write { upd; view } -> Det (p0_write s upd view)
        | P0_done -> assert false)
    | 1 -> (
        match s.p1pc with
        | 0 ->
            (* p1's single update collapses to its write: it can never be
               seen moving twice, so its view is never borrowed *)
            Det (set_m { s with p1pc = 1 } 1 { v = 1; seq = 1; view = (0, 0) })
        | 1 ->
            Chance
              [
                (0.5, { s with coin = 0; p1pc = 2 });
                (0.5, { s with coin = 1; p1pc = 2 });
              ]
        | _ -> Det { s with creg = s.coin; p1pc = 3 })
    | _ -> (
        match s.p2 with
        | Atomic_scan ->
            Det { s with u1 = classify ((List.nth s.m 0).v, (List.nth s.m 1).v); p2 = Read_c }
        | Scanning sc -> (
            match advance_scanning s sc with
            | `Cont sc' -> Det { s with p2 = Scanning sc' }
            | `Finished results ->
                uniform_choice results (fun view ->
                    { s with u1 = classify view; p2 = Read_c }))
        | Read_c -> Det { s with cread = s.creg; p2 = P2_done }
        | P2_done -> assert false)

  let terminal_value s =
    if (s.cread = 0 || s.cread = 1) && s.u1 = s.cread then 1.0 else 0.0

  (* Canonical key: every field once, in declaration order; variants carry
     a tag byte. Injective by Mdp.Key's construction. *)
  let enc_view b (v0, v1) =
    Mdp.Key.int b v0;
    Mdp.Key.int b v1

  let enc_cell b (c : cell) =
    Mdp.Key.int b c.v;
    Mdp.Key.int b c.seq;
    enc_view b c.view

  let enc_cells b cs = Mdp.Key.list b enc_cell cs

  let enc_scanning b (sc : scanning) =
    Mdp.Key.option b enc_cells sc.body.prev;
    enc_cells b sc.body.cur;
    Mdp.Key.list b Mdp.Key.int sc.body.moved;
    Mdp.Key.int b sc.idx;
    Mdp.Key.list b enc_view sc.results

  let enc_p0 b = function
    | U_atomic remaining ->
        Mdp.Key.int b 0;
        Mdp.Key.int b remaining
    | U_scan { upd; sc } ->
        Mdp.Key.int b 1;
        Mdp.Key.int b upd;
        enc_scanning b sc
    | U_write { upd; view = v } ->
        Mdp.Key.int b 2;
        Mdp.Key.int b upd;
        enc_view b v
    | P0_done -> Mdp.Key.int b 3

  let enc_p2 b = function
    | Atomic_scan -> Mdp.Key.int b 0
    | Scanning sc ->
        Mdp.Key.int b 1;
        enc_scanning b sc
    | Read_c -> Mdp.Key.int b 2
    | P2_done -> Mdp.Key.int b 3

  let encode_into (s : state) b =
    Mdp.Key.int b s.k;
    enc_cells b s.m;
    enc_p0 b s.p0;
    Mdp.Key.int b s.p1pc;
    enc_p2 b s.p2;
    Mdp.Key.int b s.u1;
    Mdp.Key.int b s.coin;
    Mdp.Key.int b s.creg;
    Mdp.Key.int b s.cread

  let encode (s : state) = Mdp.Key.run (encode_into s)

  let pp_move ppf (Step p) = Fmt.pf ppf "step(p%d)" p
end

module S = Mdp.Solver.Make (Game)

let base ~afek ~k : Game.state =
  {
    k;
    m = List.init Game.n_components (fun _ -> { Game.v = 0; seq = 0; view = (0, 0) });
    p0 = (if afek then Game.U_scan { upd = 1; sc = Game.fresh_scanning } else Game.U_atomic 2);
    p1pc = 0;
    p2 = (if afek then Game.Scanning Game.fresh_scanning else Game.Atomic_scan);
    u1 = -2;
    coin = -1;
    creg = -1;
    cread = -2;
  }

let init ~k =
  if k < 1 then invalid_arg "Ghw_multi_game.init: k >= 1 required";
  base ~afek:true ~k

let atomic_bad_probability () = S.value (base ~afek:false ~k:1)
let afek_bad_probability ~k () = S.value (init ~k)
let explored_states () = S.explored ()
let reset () = S.reset ()
