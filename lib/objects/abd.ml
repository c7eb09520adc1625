open Util
open Sim
open Sim.Proc.Syntax

let quorum n = (n / 2) + 1

(* Server role (lines 11-12 and 18-20 of Algorithm 3). State: Pair (val, ts). *)
let handler ~self:_ ~state ~src ~body : Obj_impl.handler_result option =
  let v, ts = Value.to_pair state in
  match Message.tag_of body with
  | "query" ->
      let sn = Message.payload_of body in
      Some { state; out = [ (src, Message.tagged "reply" (Value.triple v ts sn)) ] }
  | "update" ->
      let nv, nts, sn = Value.to_triple (Message.payload_of body) in
      let state' =
        if Value.ts_compare nts ts > 0 then Value.pair nv nts else state
      in
      Some { state = state'; out = [ (src, Message.tagged "ack" sn) ] }
  | _ -> None (* replies and acks are client messages *)

(* Lines 5-10: broadcast a query, await a majority of matching replies, and
   return the (value, timestamp) pair with the largest timestamp. *)
let query_phase ~name ~n =
  let* sn = Proc.fresh in
  let* () =
    Proc.broadcast (Message.make ~obj_name:name (Message.tagged "query" (Value.int sn)))
  in
  let matches (m : Message.t) =
    m.obj_name = name
    && Message.tag_of m.body = "reply"
    &&
    let _, _, sn' = Value.to_triple (Message.payload_of m.body) in
    Value.to_int sn' = sn
  in
  let rec collect count best =
    if count >= quorum n then Proc.return best
    else
      let* m = Proc.recv ~descr:(name ^ ".reply") matches in
      let v, ts, _ = Value.to_triple (Message.payload_of m.body) in
      let best' =
        let _, bts = Value.to_pair best in
        if Value.ts_compare ts bts > 0 then Value.pair v ts else best
      in
      collect (count + 1) best'
  in
  collect 0 (Value.pair Value.none (Value.ts (-1) (-1)))

(* Lines 13-16: broadcast the update and await a majority of acks. *)
let update_phase ~name ~n v ts =
  let* sn = Proc.fresh in
  let* () =
    Proc.broadcast
      (Message.make ~obj_name:name
         (Message.tagged "update" (Value.triple v ts (Value.int sn))))
  in
  let matches (m : Message.t) =
    m.obj_name = name
    && Message.tag_of m.body = "ack"
    && Value.to_int (Message.payload_of m.body) = sn
  in
  let rec collect count =
    if count >= quorum n then Proc.return ()
    else
      let* _ = Proc.recv ~descr:(name ^ ".ack") matches in
      collect (count + 1)
  in
  collect 0

let split ~name ~n : Transform.split =
  {
    preamble = (fun ~self:_ ~meth:_ ~arg:_ -> query_phase ~name ~n);
    tail =
      (fun ~self ~meth ~arg locals ->
        let v, ts = Value.to_pair locals in
        match meth with
        | "read" ->
            (* write-back, then return the value read (lines 22-24) *)
            let* () = Proc.note "adopted" (Value.pair v ts) in
            let* () = update_phase ~name ~n v ts in
            Proc.return v
        | "write" ->
            (* bump the integer part, tag with own id (lines 26-28) *)
            let t, _ = Value.to_pair ts in
            let ts' = Value.ts (Value.to_int t + 1) self in
            let* () = Proc.note "adopted" (Value.pair arg ts') in
            let* () = update_phase ~name ~n arg ts' in
            Proc.return Value.unit
        | _ -> Fmt.invalid_arg "ABD %s: unknown method %s" name meth);
  }

let make_with invoke ~name ~init : Obj_impl.t =
  {
    name;
    invoke;
    on_message = Some handler;
    init_server = Some (fun ~n:_ ~self:_ -> Value.pair init Value.ts_zero);
    registers = (fun ~n:_ -> []);
  }

let make ~name ~n ~init =
  make_with (Transform.base_invoke (split ~name ~n)) ~name ~init

let make_k ~k ~name ~n ~init =
  make_with (Transform.iterated_invoke ~k (split ~name ~n)) ~name ~init

(* Single-writer variant: the unique writer skips the query phase and uses a
   locally increasing sequence number (a runtime nonce: globally increasing,
   hence increasing at the writer). Its preamble is empty; the read is as in
   the multi-writer version. *)
let sw_split ~name ~n ~writer : Transform.split =
  let mw = split ~name ~n in
  {
    preamble =
      (fun ~self ~meth ~arg ->
        match meth with
        | "write" -> Proc.return Value.unit
        | _ -> mw.preamble ~self ~meth ~arg);
    tail =
      (fun ~self ~meth ~arg locals ->
        match meth with
        | "write" ->
            if self <> writer then
              Fmt.invalid_arg "ABD(sw) %s: process %d is not the writer" name self;
            let* seq = Proc.fresh in
            let* () = update_phase ~name ~n arg (Value.ts (seq + 1) writer) in
            Proc.return Value.unit
        | _ -> mw.tail ~self ~meth ~arg locals);
  }

let make_single_writer ~name ~n ~writer ~init =
  make_with (Transform.base_invoke (sw_split ~name ~n ~writer)) ~name ~init

let make_no_writeback ~name ~n ~init =
  let broken : Transform.split =
    let base = split ~name ~n in
    {
      base with
      tail =
        (fun ~self ~meth ~arg locals ->
          match meth with
          | "read" ->
              (* line 23's updatePhase is skipped: only regular *)
              let v, _ = Value.to_pair locals in
              Proc.return v
          | _ -> base.tail ~self ~meth ~arg locals);
    }
  in
  make_with (Transform.base_invoke broken) ~name ~init
