module Game = struct
  (* -1 encodes the registers' initial values (⊥ for R, -1 for C); u1/u2 and
     cread use None for "not read yet". *)
  type state = {
    r : int;
    c : int;
    pc0 : int;  (* 0: write R; 1: done *)
    pc1 : int;  (* 0: write R; 1: flip; 2: write C; 3: done *)
    pc2 : int;  (* 0: read u1; 1: read u2; 2: read C; 3: done *)
    coin : int;
    u1 : int option;
    u2 : int option;
    cread : int option;
  }

  type move = Step of int

  type transition = Det of state | Chance of (float * state) list

  let moves s =
    List.filter_map
      (fun p ->
        let live =
          match p with 0 -> s.pc0 < 1 | 1 -> s.pc1 < 3 | _ -> s.pc2 < 3
        in
        if live then Some (Step p) else None)
      [ 0; 1; 2 ]

  let apply s (Step p) =
    match p with
    | 0 -> Det { s with r = 0; pc0 = 1 }
    | 1 -> (
        match s.pc1 with
        | 0 -> Det { s with r = 1; pc1 = 1 }
        | 1 ->
            Chance
              [
                (0.5, { s with coin = 0; pc1 = 2 });
                (0.5, { s with coin = 1; pc1 = 2 });
              ]
        | _ -> Det { s with c = s.coin; pc1 = 3 })
    | _ -> (
        match s.pc2 with
        | 0 -> Det { s with u1 = Some s.r; pc2 = 1 }
        | 1 -> Det { s with u2 = Some s.r; pc2 = 2 }
        | _ -> Det { s with cread = Some s.c; pc2 = 3 })

  let terminal_value s =
    match (s.u1, s.u2, s.cread) with
    | Some u1, Some u2, Some c when c = 0 || c = 1 ->
        if u1 = c && u2 = 1 - c then 1.0 else 0.0
    | _ -> 0.0

  let encode_into (s : state) b =
    Mdp.Key.int b s.r;
    Mdp.Key.int b s.c;
    Mdp.Key.int b s.pc0;
    Mdp.Key.int b s.pc1;
    Mdp.Key.int b s.pc2;
    Mdp.Key.int b s.coin;
    Mdp.Key.option b Mdp.Key.int s.u1;
    Mdp.Key.option b Mdp.Key.int s.u2;
    Mdp.Key.option b Mdp.Key.int s.cread

  let encode (s : state) = Mdp.Key.run (encode_into s)

  let pp_move ppf (Step p) = Fmt.pf ppf "step(p%d)" p
end

module S = Mdp.Solver.Make (Game)

let init : Game.state =
  {
    r = -1;
    c = -1;
    pc0 = 0;
    pc1 = 0;
    pc2 = 0;
    coin = -1;
    u1 = None;
    u2 = None;
    cread = None;
  }

let bad_probability () = S.value init
let explored_states () = S.explored ()
let solver_stats () = S.stats ()
