open Util

let log_src = Logs.Src.create "blunting.sim" ~doc:"Simulator runtime events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Per-step debug lines are guarded: the message closure would otherwise
   be allocated on every step, logged or not. *)
let debug_on () =
  match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

(* Process-wide instrumentation (see lib/obs): counters aggregate across
   every runtime instance created in the process; per-run figures come from
   the trace ([Trace.count_steps] etc.), these feed the registry snapshot.
   The per-event counters are tallied in the runtime and published by
   [publish] when [run] or [step] returns or raises, so an event pays no
   atomic read-modify-write. *)
module M = struct
  open Obs.Metrics

  let steps = counter ~help:"scheduled events executed" "sim.steps"
  let messages_sent = counter ~help:"messages enqueued" "sim.messages_sent"
  let messages_delivered = counter ~help:"messages delivered" "sim.messages_delivered"
  let reg_reads = counter ~help:"base-register reads" "sim.register_reads"
  let reg_writes = counter ~help:"base-register writes (incl. RMW)" "sim.register_writes"
  let coin_flips = counter ~help:"random draws (program + object)" "sim.coin_flips"
  let crashes = counter ~help:"crash events" "sim.crashes"
  let runs = counter ~help:"complete run loops" "sim.runs"
end

type config = {
  n : int;
  objects : Obj_impl.t list;
  program : self:int -> unit Proc.t;
  max_crashes : int;
}

type rand_source = Tape of int array | Gen of Rng.t

exception Tape_exhausted

type event = Step of int | Deliver of int | Crash of int

type in_transit = { msg_id : int; src : int; dst : int; msg : Message.t }

(* A process's pending continuations, innermost first: a type-aligned
   stack. [Push (f, s)] awaits an ['a], runs [f] on it and hands the
   resulting code's value to [s]; [Done] is the top level. *)
type (_, _) kont =
  | Done : ('a, 'a) kont
  | Push : ('a -> 'b Proc.t) * ('b, 'c) kont -> ('a, 'c) kont

(* [Active (op, k, s)]: the next step resolves [op], feeds its result to
   [k] and the code [k] returns to the stack [s]. [At_ret]: the program
   has returned; its next step terminates it. *)
type pstatus =
  | Active : 'b Proc.op * ('b -> 'c Proc.t) * ('c, unit) kont -> pstatus
  | At_ret
  | Terminated
  | Crashed_p

(* Run [m] down to its next operation. Local computation (continuations
   returning, binds opening) happens here; each [Bind] pushes one frame
   and each [Ret] pops one, so the cost does not grow with call depth. *)
let rec settle : type a. a Proc.t -> (a, unit) kont -> pstatus =
 fun m s ->
  match m with
  | Proc.Do op -> Active (op, Proc.return, s)
  | Proc.Op (op, k) -> Active (op, k, s)
  | Proc.Bind (m, f) -> settle m (Push (f, s))
  | Proc.Ret x -> ( match s with Done -> At_ret | Push (f, s) -> settle (f x) s)

(* A mailbox: the message-store slots of its messages, ARRIVAL order
   ascending, so an oldest-first scan touches no allocator and removal
   shifts ints down in place. *)
type mbox = { mutable mb_slots : int array; mutable mb_len : int }

type t = {
  config : config;
  store : Base_reg.store;
  procs : pstatus array;
  (* [active]/[crashed] mirror [procs] as bitsets (bit p = process p):
     the enabled-set scan and [finished] test them without touching the
     status array's boxed payloads *)
  mutable active : int;
  mutable crashed : int;
  (* bit p: p is active and its next operation can run now (it is not a
     [Recv] without a matching mailbox message). Kept up to date where it
     can change — p's own step, a message landing in p's mailbox, p
     terminating or crashing — so [enabled] reads it instead of running
     every blocked process's predicate over its mailbox. *)
  mutable ready : int;
  mailboxes : mbox array;
  (* [scan.(p)], while p's next operation is a [Recv]: how many leading
     messages of p's mailbox are known not to match its predicate. The
     message at [scan.(p)], if any, is the oldest match, so p is ready
     exactly when [scan.(p) < mb_len]. *)
  scan : int array;
  (* The message store: each message sent is held once, in a slot with
     its id and its route (ends and object ordinal, see [route]), from
     its send until a server handles it or a [Recv] consumes it. Freed
     slots are reused, last freed first: they form a list through
     [sl_id], from [free] to -1. *)
  mutable sl_msg : Message.t array;
  mutable sl_id : int array;
  mutable sl_route : int array;
  mutable n_slots : int;  (* slots ever handed out *)
  mutable free : int;
  (* the in-transit multiset: slots in SEND order ascending, so the
     enabled scan needs no reversal. Delivery shifts ints down in place. *)
  mutable transit : int array;
  mutable tr_len : int;
  objs : Obj_impl.t array;  (* [config.objects], by ordinal *)
  (* [servers.(o).(p)]: object [o]'s server state at process [p]; [||]
     for an object without a server role *)
  servers : Value.t array array;
  mutable inv_objs : string array;  (* inv id -> obj name, for returns *)
  inv_stacks : int list array;
  trace : Trace.t;
  full : bool;  (* [Trace.full trace], fixed at creation *)
  mutable debug : bool;  (* [debug_on ()], read when [run] or [step] starts *)
  mutable next_msg : int;
  mutable next_inv : int;
  mutable next_nonce : int;
  mutable rand_pos : int;
  mutable crashes : int;
  rand : rand_source;
  (* unpublished tallies of the [M] counters of the same names *)
  mutable n_steps : int;
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_flips : int;
}

(* A message's route, packed in one int: destination in bits 0-5, source
   in bits 6-11 ([n] is below 64, see [create]), and from bit 12 the
   ordinal of the object it is addressed to, looked up once when it is
   sent. *)
let route ~src ~dst o = (o lsl 12) lor (src lsl 6) lor dst
let route_dst r = r land 63
let route_src r = (r lsr 6) land 63
let route_obj r = r lsr 12

(* slot filler for freed message slots, so freeing drops the reference *)
let no_msg = Message.make ~obj_name:"" Value.unit

(* The hot-path helpers below are top-level functions rather than local
   closures: without flambda a local closure is allocated on every call. *)

(* the index of the OLDEST message in [mb] from [i] on that satisfies
   [pred], or [mb_len]: arrival order ascending, so the first match wins *)
let rec first_match t pred mb i =
  if i >= mb.mb_len || pred t.sl_msg.(mb.mb_slots.(i)) then i
  else first_match t pred mb (i + 1)

(* the predicate of no [Recv]: [refresh_ready]'s [prev] after a step that
   was not a receive *)
let no_pred : Message.t -> bool = fun _ -> false

(* [p]'s ready bit and receive cursor, recomputed from its status: at
   creation and after p's own step (the only places a [Recv] becomes p's
   next operation). A [Recv] scans the mailbox once, from [from] if its
   predicate is [prev] (the one p just received with, whose first
   [from] messages did not match: predicates are pure), else from 0. *)
let refresh_ready t p prev from =
  match t.procs.(p) with
  | Active (Proc.Recv (_, pred), _, _) ->
      let mb = t.mailboxes.(p) in
      let i = first_match t pred mb (if pred == prev then from else 0) in
      t.scan.(p) <- i;
      if i < mb.mb_len then t.ready <- t.ready lor (1 lsl p)
      else t.ready <- t.ready land lnot (1 lsl p)
  | Active _ | At_ret -> t.ready <- t.ready lor (1 lsl p)
  | Terminated | Crashed_p -> t.ready <- t.ready land lnot (1 lsl p)

let create ?trace_level config rand =
  if config.n > Sys.int_size - 2 then
    Fmt.invalid_arg "Runtime.create: n = %d exceeds the bitset width" config.n;
  let store =
    Base_reg.create_store
      (List.concat_map (fun (o : Obj_impl.t) -> o.registers ~n:config.n) config.objects)
  in
  let objs = Array.of_list config.objects in
  let servers =
    Array.map
      (fun (o : Obj_impl.t) ->
        match o.init_server with
        | None -> [||]
        | Some init -> Array.init config.n (fun p -> init ~n:config.n ~self:p))
      objs
  in
  let trace = Trace.create ?level:trace_level () in
  let t =
    {
      config;
      store;
      procs = Array.init config.n (fun p -> settle (config.program ~self:p) Done);
      active = (1 lsl config.n) - 1;
      crashed = 0;
      ready = 0;
      mailboxes =
        Array.init config.n (fun _ -> { mb_slots = Array.make 8 0; mb_len = 0 });
      scan = Array.make config.n 0;
      sl_msg = Array.make 32 no_msg;
      sl_id = Array.make 32 0;
      sl_route = Array.make 32 0;
      n_slots = 0;
      free = -1;
      transit = Array.make 16 0;
      tr_len = 0;
      objs;
      servers;
      inv_objs = Array.make 16 "";
      inv_stacks = Array.make config.n [];
      trace;
      full = Trace.full trace;
      debug = false;
      next_msg = 0;
      next_inv = 0;
      next_nonce = 0;
      rand_pos = 0;
      crashes = 0;
      rand;
      n_steps = 0;
      n_sent = 0;
      n_delivered = 0;
      n_reads = 0;
      n_writes = 0;
      n_flips = 0;
    }
  in
  for p = 0 to config.n - 1 do
    refresh_ready t p no_pred 0
  done;
  t

let n t = t.config.n
let trace t = t.trace
let history t = Trace.history t.trace
let outcome t = History.Outcome.of_history (history t)

(* observation accessors materialize lists from the flat arrays — cold
   paths, for adversaries and checkers *)
let in_transit t =
  let rec go i acc =
    if i < 0 then acc
    else
      let s = t.transit.(i) in
      let r = t.sl_route.(s) in
      go (i - 1)
        ({ msg_id = t.sl_id.(s); src = route_src r; dst = route_dst r;
           msg = t.sl_msg.(s) }
        :: acc)
  in
  go (t.tr_len - 1) []

let mailbox t p =
  let mb = t.mailboxes.(p) in
  let rec go i acc =
    if i < 0 then acc
    else
      let s = mb.mb_slots.(i) in
      go (i - 1) ((t.sl_id.(s), t.sl_msg.(s)) :: acc)
  in
  go (mb.mb_len - 1) []

let is_active t p = t.active land (1 lsl p) <> 0
let is_crashed t p = t.crashed land (1 lsl p) <> 0

let current_inv t p = match t.inv_stacks.(p) with [] -> None | i :: _ -> Some i
let read_register t rid = Base_reg.read t.store rid ~reader:(-1)

let random_results t = Trace.random_draws t.trace

(* the ordinal of the object named [name] from [i] on, or -1; an
   object's messages usually carry its own name string, so [==] settles
   most tests *)
let rec obj_index_from objs name i =
  if i = Array.length objs then -1
  else
    let o = objs.(i).Obj_impl.name in
    if o == name || String.equal o name then i else obj_index_from objs name (i + 1)

let obj_index t name = obj_index_from t.objs name 0

let server_state t ~obj_name ~proc =
  let o = obj_index t obj_name in
  if o < 0 || proc < 0 || proc >= Array.length t.servers.(o) then None
  else Some t.servers.(o).(proc)

let blocked t p = t.active land lnot t.ready land (1 lsl p) <> 0

let next_op_descr t p =
  match t.procs.(p) with
  | Terminated -> "terminated"
  | Crashed_p -> "crashed"
  | At_ret -> "ret"
  | Active (op, _, _) -> (
      match op with
      | Proc.Broadcast m -> "broadcast:" ^ m.obj_name
      | Proc.Send (_, m) -> "send:" ^ m.obj_name
      | Proc.Recv (descr, _) -> "recv:" ^ descr
      | Proc.Read_reg r -> Fmt.str "read_reg:%a" Base_reg.pp_id r
      | Proc.Write_reg (r, _) -> Fmt.str "write_reg:%a" Base_reg.pp_id r
      | Proc.Rmw_reg (r, _) -> Fmt.str "rmw_reg:%a" Base_reg.pp_id r
      | Proc.Random _ -> "random"
      | Proc.Fresh -> "fresh"
      | Proc.Label l -> "label:" ^ l
      | Proc.Note (name, _) -> "note:" ^ name
      | Proc.Call_marker { obj_name; meth; _ } -> Fmt.str "call:%s.%s" obj_name meth
      | Proc.Ret_marker _ -> "ret_marker")

(* The enabled set, by position: steps in process order (the set bits
   of [ready]), then deliveries in send order (the in-transit slots whose
   destination has not crashed), then crashes in process order. The
   schedulers index into exactly this order, so it lives here alone:
   [enabled_count] sizes it, [locate] decodes an index into it (for
   [enabled_nth] and [run_loop]), and [enabled] lists it. None of them
   runs a predicate or allocates, except [enabled_nth]'s and [enabled]'s
   results. *)

(* the number of set bits of [x >= 0], by the usual SWAR sums: pairs,
   nibbles, bytes, then one multiply gathers the bytes into the top one *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* the position of the [i]-th set bit of [x] (lowest first) at or above
   bit [p]; [x] has more than [i] such bits *)
let rec nth_bit x i p =
  if x land (1 lsl p) = 0 then nth_bit x i (p + 1)
  else if i = 0 then p
  else nth_bit x (i - 1) (p + 1)

let crashes_allowed t = t.crashes < t.config.max_crashes

let rec deliverable_from t i acc =
  if i >= t.tr_len then acc
  else
    deliverable_from t (i + 1)
      (if t.crashed land (1 lsl route_dst t.sl_route.(t.transit.(i))) = 0 then acc + 1
       else acc)

(* the in-transit messages whose destination has not crashed *)
let deliverable t = if t.crashed = 0 then t.tr_len else deliverable_from t 0 0

(* the in-transit position of the [j]-th deliverable message at or after
   position [i] *)
let rec deliverable_pos_from t j i =
  if t.crashed land (1 lsl route_dst t.sl_route.(t.transit.(i))) <> 0 then
    deliverable_pos_from t j (i + 1)
  else if j = 0 then i
  else deliverable_pos_from t (j - 1) (i + 1)

let deliverable_pos t j = if t.crashed = 0 then j else deliverable_pos_from t j 0

let enabled_steps t = popcount t.ready

let crashable t = if crashes_allowed t then popcount t.active else 0
let enabled_count t = popcount t.ready + deliverable t + crashable t

(* Position [i] of the enabled set, given its [steps] steps and [d]
   deliveries, decoded into one int, [(x lsl 2) lor kind]: kind 0 steps
   process [x], 1 delivers in-transit position [x], 2 crashes process
   [x]. The caller has checked [i]. *)
let locate t ~steps ~d i =
  if i < steps then nth_bit t.ready i 0 lsl 2
  else if i - steps < d then (deliverable_pos t (i - steps) lsl 2) lor 1
  else (nth_bit t.active (i - steps - d) 0 lsl 2) lor 2

let enabled_nth t i =
  let steps = popcount t.ready and d = deliverable t in
  let n = steps + d + crashable t in
  if i < 0 || i >= n then
    Fmt.invalid_arg "Runtime.enabled_nth: index %d of %d enabled events" i n;
  let x = locate t ~steps ~d i in
  match x land 3 with
  | 0 -> Step (x lsr 2)
  | 1 -> Deliver t.sl_id.(t.transit.(x lsr 2))
  | _ -> Crash (x lsr 2)

let enabled t = List.init (enabled_count t) (enabled_nth t)

exception Not_enabled of event

let draw_random t bound =
  match t.rand with
  | Gen rng -> Rng.int rng bound
  | Tape tape ->
      if t.rand_pos >= Array.length tape then raise Tape_exhausted
      else begin
        let v = tape.(t.rand_pos) mod bound in
        t.rand_pos <- t.rand_pos + 1;
        v
      end

let grow_ints a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* a free message slot holding [msg]: the last freed one, else a new one *)
let alloc_slot t msg =
  let s =
    if t.free >= 0 then begin
      let s = t.free in
      t.free <- t.sl_id.(s);
      s
    end
    else begin
      let s = t.n_slots in
      if s = Array.length t.sl_id then begin
        let m = Array.make (2 * s) no_msg in
        Array.blit t.sl_msg 0 m 0 s;
        t.sl_msg <- m;
        t.sl_id <- grow_ints t.sl_id;
        t.sl_route <- grow_ints t.sl_route
      end;
      t.n_slots <- s + 1;
      s
    end
  in
  t.sl_msg.(s) <- msg;
  s

let free_slot t s =
  t.sl_msg.(s) <- no_msg;
  t.sl_id.(s) <- t.free;
  t.free <- s

(* the ordinal of the object [msg] is addressed to; a message for an
   object the configuration does not declare never enters transit *)
let msg_obj t (msg : Message.t) =
  let o = obj_index t msg.obj_name in
  if o < 0 then Fmt.invalid_arg "unknown object %s" msg.obj_name;
  o

(* send [msg], addressed to object ordinal [o], from [src] to [dst] *)
let enqueue_message t ~src ~dst o msg =
  let msg_id = t.next_msg in
  t.next_msg <- msg_id + 1;
  let s = alloc_slot t msg in
  t.sl_id.(s) <- msg_id;
  t.sl_route.(s) <- route ~src ~dst o;
  if t.tr_len = Array.length t.transit then t.transit <- grow_ints t.transit;
  t.transit.(t.tr_len) <- s;
  t.tr_len <- t.tr_len + 1;
  t.n_sent <- t.n_sent + 1;
  if t.full then
    Trace.add t.trace
      (Trace.Sent { msg_id; src; dst; msg; inv = current_inv t src })
  else Trace.bump_sent t.trace

(* a server handler's replies, sent from [src] in order for object
   ordinal [o], the handling object *)
let rec send_all t ~src o obj_name = function
  | [] -> ()
  | (dst, body) :: rest ->
      enqueue_message t ~src ~dst o (Message.make ~obj_name body);
      send_all t ~src o obj_name rest

(* close the gap at in-transit position [i] by shifting positions
   [i+1 ..] down one; an OCaml loop over ints, which for these short
   arrays beats [Array.blit]'s C call *)
let remove_transit t i =
  let last = t.tr_len - 1 and tr = t.transit in
  for j = i to last - 1 do
    tr.(j) <- tr.(j + 1)
  done;
  t.tr_len <- last

(* Deliver the message at in-transit position [i]; its destination has
   not crashed. *)
let deliver_at t i =
  let s = t.transit.(i) in
  remove_transit t i;
  let r = t.sl_route.(s) in
  let msg_id = t.sl_id.(s) and src = route_src r and dst = route_dst r
  and o = route_obj r and msg = t.sl_msg.(s) in
  let obj = t.objs.(o) in
  let handled =
    match obj.on_message with
    | Some handler when Array.length t.servers.(o) > 0 -> (
        let states = t.servers.(o) in
        match handler ~self:dst ~state:states.(dst) ~src ~body:msg.Message.body with
        | Some { state = state'; out } ->
            free_slot t s;
            states.(dst) <- state';
            send_all t ~src:dst o obj.name out;
            true
        | None -> false)
    | _ -> false
  in
  if not handled then begin
    let mb = t.mailboxes.(dst) in
    let len = mb.mb_len in
    if len = Array.length mb.mb_slots then mb.mb_slots <- grow_ints mb.mb_slots;
    mb.mb_slots.(len) <- s;
    mb.mb_len <- len + 1;
    (* the one new message is the only thing that can unblock [dst]; a
       blocked [Recv]'s cursor is at [len], past every older message *)
    if t.ready land (1 lsl dst) = 0 then
      match t.procs.(dst) with
      | Active (Proc.Recv (_, pred), _, _) ->
          if pred msg then t.ready <- t.ready lor (1 lsl dst)
          else t.scan.(dst) <- len + 1
      | _ -> ()
  end;
  t.n_delivered <- t.n_delivered + 1;
  if t.full then
    Trace.add t.trace (Trace.Delivered { msg_id; src; dst; msg; handled })
  else Trace.bump t.trace

(* the in-transit position of message [msg_id] at or after position [i],
   or -1 *)
let rec transit_pos t msg_id i =
  if i >= t.tr_len then -1
  else if t.sl_id.(t.transit.(i)) = msg_id then i
  else transit_pos t msg_id (i + 1)

let deliver t msg_id =
  let i = transit_pos t msg_id 0 in
  if i < 0 || is_crashed t (route_dst t.sl_route.(t.transit.(i))) then
    raise (Not_enabled (Deliver msg_id));
  deliver_at t i

(* close the gap at mailbox position [i], as [remove_transit] does *)
let remove_mail mb i =
  let last = mb.mb_len - 1 and slots = mb.mb_slots in
  for j = i to last - 1 do
    slots.(j) <- slots.(j + 1)
  done;
  mb.mb_len <- last

(* feed [v] to [p]'s pending continuation [k] over the stack [s], and
   refresh p's ready bit for its next operation *)
let continue t p k s v =
  t.procs.(p) <- settle (k v) s;
  refresh_ready t p no_pred 0

(* [p]'s [Recv] with predicate [pred]: consume the message at p's
   cursor, the oldest match. A next [Recv] with the same predicate
   resumes the scan there. *)
let receive t p pred k s =
  let mb = t.mailboxes.(p) in
  let i = t.scan.(p) in
  if i >= mb.mb_len then raise (Not_enabled (Step p));
  let sl = mb.mb_slots.(i) in
  let msg = t.sl_msg.(sl) in
  remove_mail mb i;
  if t.full then
    Trace.add t.trace
      (Trace.Received { msg_id = t.sl_id.(sl); proc = p; msg; inv = current_inv t p })
  else Trace.bump t.trace;
  free_slot t sl;
  t.procs.(p) <- settle (k msg) s;
  refresh_ready t p pred i

let step_process t p =
  match t.procs.(p) with
  | Terminated | Crashed_p -> raise (Not_enabled (Step p))
  | At_ret ->
      t.procs.(p) <- Terminated;
      t.active <- t.active land lnot (1 lsl p);
      t.ready <- t.ready land lnot (1 lsl p)
  | Active (op, k, s) -> (
      match op with
      | Proc.Recv (_, pred) -> receive t p pred k s
      | Proc.Broadcast msg ->
          let o = msg_obj t msg in
          for dst = 0 to t.config.n - 1 do
            enqueue_message t ~src:p ~dst o msg
          done;
          continue t p k s ()
      | Proc.Send (dst, msg) ->
          enqueue_message t ~src:p ~dst (msg_obj t msg) msg;
          continue t p k s ()
      | Proc.Read_reg r ->
          let value = Base_reg.read t.store r ~reader:p in
          t.n_reads <- t.n_reads + 1;
          if t.full then
            Trace.add t.trace
              (Trace.Reg_read { proc = p; reg = r; value; inv = current_inv t p })
          else Trace.bump t.trace;
          continue t p k s value
      | Proc.Write_reg (r, value) ->
          Base_reg.write t.store r ~writer:p value;
          t.n_writes <- t.n_writes + 1;
          if t.full then
            Trace.add t.trace
              (Trace.Reg_write { proc = p; reg = r; value; inv = current_inv t p })
          else Trace.bump t.trace;
          continue t p k s ()
      | Proc.Rmw_reg (r, f) ->
          let cur = Base_reg.read t.store r ~reader:p in
          let stored, result = f cur in
          Base_reg.write t.store r ~writer:p stored;
          t.n_writes <- t.n_writes + 1;
          if t.full then
            Trace.add t.trace
              (Trace.Reg_write
                 { proc = p; reg = r; value = stored; inv = current_inv t p })
          else Trace.bump t.trace;
          continue t p k s result
      | Proc.Random (bound, kind) ->
          let result = draw_random t bound in
          t.n_flips <- t.n_flips + 1;
          if t.debug then
            Log.debug (fun m ->
                m "p%d %s-random(%d) = %d" p
                  (match kind with
                  | Proc.Program_random -> "program"
                  | Proc.Object_random -> "object")
                  bound result);
          if t.full then
            Trace.add t.trace
              (Trace.Randomized
                 { proc = p; kind; bound; result; inv = current_inv t p })
          else Trace.bump t.trace;
          continue t p k s result
      | Proc.Fresh ->
          let v = t.next_nonce in
          t.next_nonce <- v + 1;
          continue t p k s v
      | Proc.Label name ->
          Trace.add t.trace (Trace.Labeled { proc = p; name; inv = current_inv t p });
          continue t p k s ()
      | Proc.Note (name, value) ->
          Trace.add t.trace
            (Trace.Noted { proc = p; name; value; inv = current_inv t p });
          continue t p k s ()
      | Proc.Call_marker { obj_name; meth; arg; tag } ->
          let i = t.next_inv in
          t.next_inv <- i + 1;
          t.inv_stacks.(p) <- i :: t.inv_stacks.(p);
          if i = Array.length t.inv_objs then begin
            let a = Array.make (2 * i) "" in
            Array.blit t.inv_objs 0 a 0 i;
            t.inv_objs <- a
          end;
          t.inv_objs.(i) <- obj_name;
          Trace.add t.trace
            (Trace.Action
               (History.Action.Call { obj_name; meth; arg; inv = i; proc = p; tag }));
          continue t p k s i
      | Proc.Ret_marker { inv = i; value } ->
          (match t.inv_stacks.(p) with
          | top :: rest when top = i -> t.inv_stacks.(p) <- rest
          | _ -> Fmt.invalid_arg "Ret_marker: invocation %d not open at p%d" i p);
          let obj_name = t.inv_objs.(i) in
          Trace.add t.trace
            (Trace.Action (History.Action.Ret { inv = i; value; proc = p; obj_name }));
          continue t p k s ())

let pp_event ppf = function
  | Step p -> Fmt.pf ppf "step(p%d)" p
  | Deliver id -> Fmt.pf ppf "deliver(m%d)" id
  | Crash p -> Fmt.pf ppf "crash(p%d)" p

let crash t p =
  t.procs.(p) <- Crashed_p;
  t.active <- t.active land lnot (1 lsl p);
  t.ready <- t.ready land lnot (1 lsl p);
  t.crashed <- t.crashed lor (1 lsl p);
  t.crashes <- t.crashes + 1;
  Obs.Metrics.incr M.crashes;
  Trace.add t.trace (Trace.Crashed p)

(* add the tallies to the process-wide counters and zero them *)
let publish t =
  let flush c n = if n <> 0 then Obs.Metrics.add c n in
  flush M.steps t.n_steps;
  flush M.messages_sent t.n_sent;
  flush M.messages_delivered t.n_delivered;
  flush M.reg_reads t.n_reads;
  flush M.reg_writes t.n_writes;
  flush M.coin_flips t.n_flips;
  t.n_steps <- 0;
  t.n_sent <- 0;
  t.n_delivered <- 0;
  t.n_reads <- 0;
  t.n_writes <- 0;
  t.n_flips <- 0

(* [publish], then re-raise [e] with its backtrace *)
let publish_raise t e =
  let bt = Printexc.get_raw_backtrace () in
  publish t;
  Printexc.raise_with_backtrace e bt

let step_event t e =
  t.n_steps <- t.n_steps + 1;
  if t.debug then Log.debug (fun m -> m "%a" pp_event e);
  match e with
  | Step p -> step_process t p
  | Deliver id -> deliver t id
  | Crash p -> (
      if not (crashes_allowed t) then raise (Not_enabled e);
      match t.procs.(p) with
      | Active _ | At_ret -> crash t p
      | Terminated | Crashed_p -> raise (Not_enabled e))

let step t e =
  t.debug <- debug_on ();
  match step_event t e with () -> publish t | exception ex -> publish_raise t ex

let finished t = t.active = 0

type run_result = Completed | Deadlocked | Step_limit_reached

let pp_run_result ppf = function
  | Completed -> Fmt.string ppf "completed"
  | Deadlocked -> Fmt.string ppf "deadlocked"
  | Step_limit_reached -> Fmt.string ppf "step limit reached"

let bad_choice i n =
  Fmt.invalid_arg "Runtime: chose index %d of %d enabled events" i n

(* One decode per step: the step and delivery counts that size the
   enabled set also go to [locate], and the chosen index goes straight
   to the process, in-transit position or crash it names; no event is
   built. *)
let rec run_loop t choose remaining =
  if finished t then Completed
  else if remaining = 0 then Step_limit_reached
  else
    let steps = popcount t.ready and d = deliverable t in
    let n = steps + d + crashable t in
    if n = 0 then Deadlocked
    else begin
      let i = choose t n in
      if i < 0 || i >= n then bad_choice i n;
      t.n_steps <- t.n_steps + 1;
      if t.debug then Log.debug (fun m -> m "%a" pp_event (enabled_nth t i));
      let x = locate t ~steps ~d i in
      (match x land 3 with
      | 0 -> step_process t (x lsr 2)
      | 1 -> deliver_at t (x lsr 2)
      | _ -> crash t (x lsr 2));
      run_loop t choose (remaining - 1)
    end

let run t ~max_steps choose =
  Obs.Metrics.incr M.runs;
  t.debug <- debug_on ();
  let result =
    match run_loop t choose max_steps with
    | r -> publish t; r
    | exception ex -> publish_raise t ex
  in
  Log.info (fun m ->
      m "run %a after %d steps (%d msgs)" pp_run_result result
        (Trace.count_steps t.trace)
        (Trace.count_messages t.trace));
  result

let run_schedule t events = List.iter (step t) events
