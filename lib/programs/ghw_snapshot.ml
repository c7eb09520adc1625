open Util
open Sim
open Sim.Proc.Syntax

let tag_s1 = "p2.s1"
let tag_s2 = "p2.s2"
let tag_c = "p2.c"

let config ~(snapshot : Obj_impl.t) ~(c : Obj_impl.t) : Runtime.config =
  let program ~self =
    match self with
    | 0 ->
        let* _ =
          Obj_impl.call snapshot ~self ~tag:"p0.update" ~meth:"update"
            ~arg:(Value.pair (Value.int 0) (Value.int 1))
        in
        Proc.return ()
    | 1 ->
        let* _ =
          Obj_impl.call snapshot ~self ~tag:"p1.update" ~meth:"update"
            ~arg:(Value.pair (Value.int 1) (Value.int 1))
        in
        let* coin = Proc.random ~kind:Proc.Program_random 2 in
        let* _ =
          Obj_impl.call c ~self ~tag:"p1.writeC" ~meth:"write"
            ~arg:(Value.int coin)
        in
        Proc.return ()
    | 2 ->
        let* _ = Obj_impl.call snapshot ~self ~tag:tag_s1 ~meth:"scan" ~arg:Value.unit in
        let* _ = Obj_impl.call snapshot ~self ~tag:tag_s2 ~meth:"scan" ~arg:Value.unit in
        let* _ = Obj_impl.call c ~self ~tag:tag_c ~meth:"read" ~arg:Value.unit in
        Proc.return ()
    | p -> Fmt.invalid_arg "ghw_snapshot: no process %d" p
  in
  {
    n = 3;
    objects = [ snapshot; c ];
    program;
    max_crashes = 0;
  }

let u scan_value =
  match Value.to_list scan_value with
  | c0 :: c1 :: _ -> (
      let set v = Value.equal v (Value.int 1) in
      match (set c0, set c1) with
      | true, false -> Some 0
      | false, true -> Some 1
      | _ -> None)
  | _ -> None

let bad outcome =
  match History.Outcome.find1 outcome tag_c with
  | Some (Value.Int coin) when coin = 0 || coin = 1 -> (
      match History.Outcome.find1 outcome tag_s1 with
      | Some s1 -> u s1 = Some coin
      | None -> false)
  | _ -> false

let c_reg () = Objects.Atomic_register.make ~name:"C" ~init:(Value.int (-1))

let afek_config () =
  config
    ~snapshot:(Objects.Afek_snapshot.make ~name:"S" ~n:3 ~init:(Value.int 0))
    ~c:(c_reg ())

let afek_k_config ~k =
  config
    ~snapshot:(Objects.Afek_snapshot.make_k ~k ~name:"S" ~n:3 ~init:(Value.int 0))
    ~c:(c_reg ())

(* An atomic-equivalent snapshot: the whole component array lives in one
   base register; scan is a single read and update a single atomic
   read-modify-write, so both methods linearize at one indivisible step —
   the object is strongly linearizable and serves as the O_a baseline. *)
let atomic_snapshot ~name ~n:_ ~init : Obj_impl.t =
  let rid = Base_reg.id ~obj_name:name "array" in
  Obj_impl.pure_shared_memory ~name
    ~registers:(fun ~n ->
      [
        {
          Base_reg.id = rid;
          init = Value.list (List.init n (fun _ -> init));
          writers = None;
          readers = None;
        };
      ])
    ~invoke:(fun ~self:_ ~meth ~arg ->
      match meth with
      | "scan" -> Proc.read_reg rid
      | "update" ->
          Proc.rmw_reg rid (fun cur ->
              let idx, v = Value.to_pair arg in
              let i = Value.to_int idx in
              let cells = Value.to_list cur in
              let cells' = List.mapi (fun j x -> if j = i then v else x) cells in
              (Value.list cells', Value.unit))
      | _ -> Fmt.invalid_arg "atomic snapshot %s: unknown method %s" name meth)

let atomic_config () =
  config ~snapshot:(atomic_snapshot ~name:"S" ~n:3 ~init:(Value.int 0)) ~c:(c_reg ())
