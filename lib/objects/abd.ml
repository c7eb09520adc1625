open Util
open Sim
open Sim.Proc.Syntax

let quorum n = (n / 2) + 1

(* The message tags, built once: equality on bodies is structural, so
   sharing one value per tag is invisible to every reader. *)
let reply_tag = Value.str "reply"
let ack_tag = Value.str "ack"

(* [Value.ts_compare] without its tuples; other shapes fall back to it
   (and its [Type_error]) *)
let ts_compare a b =
  match (a, b) with
  | Value.(Pair (Int n1, Int i1), Pair (Int n2, Int i2)) ->
      if n1 <> n2 then Int.compare n1 n2 else Int.compare i1 i2
  | _ -> Value.ts_compare a b

(* Server role (lines 11-12 and 18-20 of Algorithm 3). State: Pair (val, ts).
   Bodies are matched by constructor; a malformed state or body goes
   through the [Value] destructors, which raise [Type_error]. *)
let handler ~self:_ ~state ~src ~body : Obj_impl.handler_result option =
  match (state, body) with
  | Value.(Pair (v, ts), Pair (Str tag, payload)) -> (
      match tag with
      | "query" ->
          let reply = Value.Pair (reply_tag, Value.triple v ts payload) in
          Some { state; out = [ (src, reply) ] }
      | "update" -> (
          match payload with
          | Value.Pair (nv, Value.Pair (nts, sn)) ->
              let state' =
                if ts_compare nts ts > 0 then Value.Pair (nv, nts) else state
              in
              Some { state = state'; out = [ (src, Value.Pair (ack_tag, sn)) ] }
          | _ ->
              ignore (Value.to_triple payload);
              None)
      | _ -> None (* replies and acks are client messages *))
  | _ ->
      ignore (Value.to_pair state);
      ignore (Message.tag_of body);
      None

(* [m] is for object [name]: the object's messages share its name
   physically, so the string compare runs only for a foreign message *)
let for_obj name (m : Message.t) = m.obj_name == name || String.equal m.obj_name name

(* A reply to query [sn] of object [name]: [Pair ("reply", (v, ts, sn))].
   Well-formed bodies are matched by constructor; anything else takes the
   checked path, which raises [Type_error] on a malformed reply. *)
let is_reply ~name sn (m : Message.t) =
  for_obj name m
  &&
  match m.body with
  | Value.(Pair (Str "reply", Pair (_, Pair (_, Int sn')))) -> sn' = sn
  | Value.(Pair (Str tag, _)) when not (String.equal tag "reply") -> false
  | body ->
      Message.tag_of body = "reply"
      &&
      let _, _, sn' = Value.to_triple (Message.payload_of body) in
      Value.to_int sn' = sn

(* An ack of update [sn] of object [name]: [Pair ("ack", sn)]. *)
let is_ack ~name sn (m : Message.t) =
  for_obj name m
  &&
  match m.body with
  | Value.(Pair (Str "ack", Int sn')) -> sn' = sn
  | Value.(Pair (Str tag, _)) when not (String.equal tag "ack") -> false
  | body -> Message.tag_of body = "ack" && Value.to_int (Message.payload_of body) = sn

(* The [Recv] descriptions of the two phases, built once per object
   rather than on every phase. *)
let reply_descr name = name ^ ".reply"
let ack_descr name = name ^ ".ack"

(* Lines 5-10: broadcast a query, await a majority of matching replies, and
   return the (value, timestamp) pair with the largest timestamp. *)
let query_phase ~name ~descr ~n =
  let* sn = Proc.fresh in
  let* () =
    Proc.broadcast (Message.make ~obj_name:name (Message.tagged "query" (Value.int sn)))
  in
  let matches = is_reply ~name sn in
  let rec collect count bv bts =
    if count >= quorum n then Proc.return (Value.pair bv bts)
    else
      let* m = Proc.recv ~descr matches in
      match m.body with
      | Value.(Pair (_, Pair (v, Pair (ts, _)))) ->
          if ts_compare ts bts > 0 then collect (count + 1) v ts
          else collect (count + 1) bv bts
      | _ -> assert false (* [matches] admits only this shape *)
  in
  collect 0 Value.none (Value.ts (-1) (-1))

(* Lines 13-16: broadcast the update and await a majority of acks. *)
let update_phase ~name ~descr ~n v ts =
  let* sn = Proc.fresh in
  let* () =
    Proc.broadcast
      (Message.make ~obj_name:name
         (Message.tagged "update" (Value.triple v ts (Value.int sn))))
  in
  let matches = is_ack ~name sn in
  let rec collect count =
    if count >= quorum n then Proc.return ()
    else
      let* _ = Proc.recv ~descr matches in
      collect (count + 1)
  in
  collect 0

let split ~name ~n : Transform.split =
  let reply = reply_descr name and ack = ack_descr name in
  {
    preamble = (fun ~self:_ ~meth:_ ~arg:_ -> query_phase ~name ~descr:reply ~n);
    tail =
      (fun ~self ~meth ~arg locals ->
        let v, ts = Value.to_pair locals in
        match meth with
        | "read" ->
            (* write-back, then return the value read (lines 22-24) *)
            let* () = Proc.note "adopted" (Value.pair v ts) in
            let* () = update_phase ~name ~descr:ack ~n v ts in
            Proc.return v
        | "write" ->
            (* bump the integer part, tag with own id (lines 26-28) *)
            let t, _ = Value.to_pair ts in
            let ts' = Value.ts (Value.to_int t + 1) self in
            let* () = Proc.note "adopted" (Value.pair arg ts') in
            let* () = update_phase ~name ~descr:ack ~n arg ts' in
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
  let mw = split ~name ~n and ack = ack_descr name in
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
            let* () = update_phase ~name ~descr:ack ~n arg (Value.ts (seq + 1) writer) in
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
