module Game = struct
  type cell = int * int (* value, seq *)
  type collect = cell list (* one entry per component, 3 of them *)

  type scan_body = {
    prev : collect option;  (* last completed collect *)
    cur : cell list;  (* current collect, components read so far *)
  }

  type scanning = {
    body : scan_body;
    idx : int;  (* which of the k bodies is running *)
    results : int list;  (* classifications of completed bodies *)
  }

  type p2state =
    | Atomic_scan  (* atomic mode: the scan is one indivisible step *)
    | Scanning of scanning  (* Afek mode *)
    | Read_c
    | P2_done

  type state = {
    k : int;
    afek : bool;
    m : cell list;
    p0_done : bool;
    p1pc : int;  (* 0: write M[1]; 1: flip; 2: write C; 3: done *)
    p2 : p2state;
    u1 : int;  (* -2 unset; -1 "mixed"; 0/1 the classification *)
    coin : int;
    creg : int;
    cread : int;  (* -2 unset *)
  }

  type move = Step of int

  type transition = Det of state | Chance of (float * state) list

  let fresh_body = { prev = None; cur = [] }

  (* u(s): 0 if only component 0 is set, 1 if only component 1, -1 mixed *)
  let classify collect =
    match collect with
    | (v0, _) :: (v1, _) :: _ -> (
        match (v0 = 1, v1 = 1) with
        | true, false -> 0
        | false, true -> 1
        | _ -> -1)
    | _ -> -1

  let seqs_equal c1 c2 = List.for_all2 (fun (_, s1) (_, s2) -> s1 = s2) c1 c2

  let moves s =
    if s.p2 = P2_done then []
    else begin
      let p0 = if s.p0_done then [] else [ Step 0 ] in
      let p1 = if s.p1pc < 3 then [ Step 1 ] else [] in
      p0 @ p1 @ [ Step 2 ]
    end

  let set_m s i v = { s with m = List.mapi (fun j c -> if j = i then v else c) s.m }

  let finish_scan s results =
    (* the object random step: choose one body's classification uniformly *)
    let pr = 1.0 /. float_of_int (List.length results) in
    Chance
      (List.map (fun u -> (pr, { s with u1 = u; p2 = Read_c })) results)

  let scan_step s (sc : scanning) =
    let j = List.length sc.body.cur in
    let cur = sc.body.cur @ [ List.nth s.m j ] in
    if List.length cur < List.length s.m then
      Det { s with p2 = Scanning { sc with body = { sc.body with cur } } }
    else begin
      (* a collect just completed *)
      match sc.body.prev with
      | Some p when seqs_equal p cur ->
          (* the body returns this collect's values *)
          let results = sc.results @ [ classify cur ] in
          if sc.idx + 1 < s.k then
            Det
              { s with p2 = Scanning { body = fresh_body; idx = sc.idx + 1; results } }
          else finish_scan s results
      | _ ->
          Det { s with p2 = Scanning { sc with body = { prev = Some cur; cur = [] } } }
    end

  let apply s (Step p) =
    match p with
    | 0 -> Det (set_m { s with p0_done = true } 0 (1, 1))
    | 1 -> (
        match s.p1pc with
        | 0 -> Det (set_m { s with p1pc = 1 } 1 (1, 1))
        | 1 ->
            Chance
              [
                (0.5, { s with coin = 0; p1pc = 2 });
                (0.5, { s with coin = 1; p1pc = 2 });
              ]
        | _ -> Det { s with creg = s.coin; p1pc = 3 })
    | _ -> (
        match s.p2 with
        | Atomic_scan -> Det { s with u1 = classify s.m; p2 = Read_c }
        | Scanning sc -> scan_step s sc
        | Read_c -> Det { s with cread = s.creg; p2 = P2_done }
        | P2_done -> assert false)

  let terminal_value s =
    if (s.cread = 0 || s.cread = 1) && s.u1 = s.cread then 1.0 else 0.0

  (* Canonical key: every field once, in declaration order; variants carry
     a tag byte. Injective by Mdp.Key's construction. *)
  let enc_cell b (v, seq) =
    Mdp.Key.int b v;
    Mdp.Key.int b seq

  let enc_cells b cs = Mdp.Key.list b enc_cell cs

  let enc_p2 b = function
    | Atomic_scan -> Mdp.Key.int b 0
    | Scanning sc ->
        Mdp.Key.int b 1;
        Mdp.Key.option b enc_cells sc.body.prev;
        enc_cells b sc.body.cur;
        Mdp.Key.int b sc.idx;
        Mdp.Key.list b Mdp.Key.int sc.results
    | Read_c -> Mdp.Key.int b 2
    | P2_done -> Mdp.Key.int b 3

  let encode_into (s : state) b =
    Mdp.Key.int b s.k;
    Mdp.Key.bool b s.afek;
    enc_cells b s.m;
    Mdp.Key.bool b s.p0_done;
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
    afek;
    m = [ (0, 0); (0, 0); (0, 0) ];
    p0_done = false;
    p1pc = 0;
    p2 = (if afek then Game.Scanning { body = Game.fresh_body; idx = 0; results = [] } else Game.Atomic_scan);
    u1 = -2;
    coin = -1;
    creg = -1;
    cread = -2;
  }

let init ~k =
  if k < 1 then invalid_arg "Ghw_snapshot_game.init: k >= 1 required";
  base ~afek:true ~k

let atomic_bad_probability () = S.value (base ~afek:false ~k:1)
let afek_bad_probability ~k () = S.value (init ~k)
let explored_states () = S.explored ()
let reset () = S.reset ()
