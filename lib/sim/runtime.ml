open Util

let log_src = Logs.Src.create "blunting.sim" ~doc:"Simulator runtime events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Per-step debug lines are guarded: the message closure would otherwise
   be allocated on every step, logged or not. *)
let debug_on () =
  match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

(* Process-wide instrumentation (see lib/obs): counters aggregate across
   every runtime instance created in the process; per-run figures come from
   the trace ([Trace.count_steps] etc.), these feed the registry snapshot. *)
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
  enable_crashes : bool;
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
  | Proc.Op (op, k) -> Active (op, k, s)
  | Proc.Bind (m, f) -> settle m (Push (f, s))
  | Proc.Ret x -> ( match s with Done -> At_ret | Push (f, s) -> settle (f x) s)

(* A mailbox, flattened: ids and messages in parallel arrays, ARRIVAL
   order ascending, so an oldest-first scan touches no allocator and
   removal is a blit. *)
type mbox = {
  mutable mb_ids : int array;
  mutable mb_msgs : Message.t array;
  mutable mb_len : int;
}

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
  (* the in-transit multiset, flattened likewise: SEND order ascending,
     so the enabled scan needs no reversal. Delivery removes by blit. *)
  mutable tr_ids : int array;
  mutable tr_dst : int array;
  mutable tr_src : int array;
  mutable tr_msg : Message.t array;
  mutable tr_len : int;
  objs : Obj_impl.t array;  (* [config.objects], by ordinal *)
  (* [servers.(o).(p)]: object [o]'s server state at process [p]; [||]
     for an object without a server role *)
  servers : Value.t array array;
  mutable inv_objs : string array;  (* inv id -> obj name, for returns *)
  inv_stacks : int list array;
  trace : Trace.t;
  mutable next_msg : int;
  mutable next_inv : int;
  mutable next_nonce : int;
  mutable rand_pos : int;
  mutable crashes : int;
  rand : rand_source;
}

(* slot filler for vacated message cells, so removal drops the reference *)
let no_msg = Message.make ~obj_name:"" Value.unit

(* The hot-path helpers below are top-level functions rather than local
   closures: without flambda a local closure is allocated on every call. *)

(* the index of the OLDEST message in [mb] from [i] on that satisfies
   [pred], or -1: arrival order ascending, so the first match wins *)
let rec first_match pred mb i =
  if i >= mb.mb_len then -1 else if pred mb.mb_msgs.(i) then i
  else first_match pred mb (i + 1)

(* [p]'s ready bit, recomputed from its status: at creation and after
   p's own step (the only places a [Recv] becomes p's next operation),
   by one scan of the mailbox *)
let refresh_ready t p =
  let ready =
    match t.procs.(p) with
    | Active (Proc.Recv (_, pred), _, _) -> first_match pred t.mailboxes.(p) 0 >= 0
    | Active _ | At_ret -> true
    | Terminated | Crashed_p -> false
  in
  if ready then t.ready <- t.ready lor (1 lsl p)
  else t.ready <- t.ready land lnot (1 lsl p)

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
  let t =
    {
      config;
      store;
      procs = Array.init config.n (fun p -> settle (config.program ~self:p) Done);
      active = (1 lsl config.n) - 1;
      crashed = 0;
      ready = 0;
      mailboxes =
        Array.init config.n (fun _ ->
            { mb_ids = Array.make 8 0; mb_msgs = Array.make 8 no_msg; mb_len = 0 });
      tr_ids = Array.make 16 0;
      tr_dst = Array.make 16 0;
      tr_src = Array.make 16 0;
      tr_msg = Array.make 16 no_msg;
      tr_len = 0;
      objs;
      servers;
      inv_objs = Array.make 16 "";
      inv_stacks = Array.make config.n [];
      trace = Trace.create ?level:trace_level ();
      next_msg = 0;
      next_inv = 0;
      next_nonce = 0;
      rand_pos = 0;
      crashes = 0;
      rand;
    }
  in
  for p = 0 to config.n - 1 do
    refresh_ready t p
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
      go (i - 1)
        ({ msg_id = t.tr_ids.(i); src = t.tr_src.(i); dst = t.tr_dst.(i);
           msg = t.tr_msg.(i) }
        :: acc)
  in
  go (t.tr_len - 1) []

let mailbox t p =
  let mb = t.mailboxes.(p) in
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) ((mb.mb_ids.(i), mb.mb_msgs.(i)) :: acc)
  in
  go (mb.mb_len - 1) []

let is_active t p = t.active land (1 lsl p) <> 0
let is_crashed t p = t.crashed land (1 lsl p) <> 0

let current_inv t p = match t.inv_stacks.(p) with [] -> None | i :: _ -> Some i
let read_register t rid = Base_reg.read t.store rid ~reader:(-1)

let random_results t = Trace.random_draws t.trace

(* the ordinal of the object named [name] from [i] on, or -1 *)
let rec obj_index_from objs name i =
  if i = Array.length objs then -1
  else if String.equal objs.(i).Obj_impl.name name then i
  else obj_index_from objs name (i + 1)

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
   [enabled_count] sizes it, [enabled_nth] and [step_nth] decode an index
   into it, and [enabled] lists it. None of them runs a predicate or
   allocates, except [enabled_nth]'s and [enabled]'s results. *)

let rec popcount_from x acc = if x = 0 then acc else popcount_from (x land (x - 1)) (acc + 1)
let popcount x = popcount_from x 0

(* the position of the [i]-th set bit of [x] (lowest first) at or above
   bit [p]; [x] has more than [i] such bits *)
let rec nth_bit x i p =
  if x land (1 lsl p) = 0 then nth_bit x i (p + 1)
  else if i = 0 then p
  else nth_bit x (i - 1) (p + 1)

let crashes_allowed t = t.config.enable_crashes && t.crashes < t.config.max_crashes

let rec deliverable_from t i acc =
  if i >= t.tr_len then acc
  else
    deliverable_from t (i + 1)
      (if t.crashed land (1 lsl t.tr_dst.(i)) = 0 then acc + 1 else acc)

(* the in-transit messages whose destination has not crashed *)
let deliverable t = if t.crashed = 0 then t.tr_len else deliverable_from t 0 0

(* the in-transit slot of the [j]-th deliverable message at or after
   slot [i] *)
let rec deliverable_slot t j i =
  if t.crashed land (1 lsl t.tr_dst.(i)) <> 0 then deliverable_slot t j (i + 1)
  else if j = 0 then i
  else deliverable_slot t (j - 1) (i + 1)

let enabled_steps t = popcount t.ready

let enabled_count t =
  popcount t.ready + deliverable t
  + if crashes_allowed t then popcount t.active else 0

(* Position [i] of the enabled set, [0 <= i < enabled_count t], decoded
   into one int, [(x lsl 2) lor kind]: kind 0 steps process [x], 1
   delivers in-transit slot [x], 2 crashes process [x]. [enabled_nth]
   and [step_nth] both decode through here. *)
let locate t i =
  let steps = popcount t.ready in
  if i < steps then nth_bit t.ready i 0 lsl 2
  else
    let i = i - steps and d = deliverable t in
    if i < d then ((if t.crashed = 0 then i else deliverable_slot t i 0) lsl 2) lor 1
    else (nth_bit t.active (i - d) 0 lsl 2) lor 2

let enabled_nth t i =
  let n = enabled_count t in
  if i < 0 || i >= n then
    Fmt.invalid_arg "Runtime.enabled_nth: index %d of %d enabled events" i n;
  let x = locate t i in
  match x land 3 with
  | 0 -> Step (x lsr 2)
  | 1 -> Deliver t.tr_ids.(x lsr 2)
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

let grow_msgs a =
  let b = Array.make (2 * Array.length a) no_msg in
  Array.blit a 0 b 0 (Array.length a);
  b

let enqueue_message t ~src ~dst msg =
  let msg_id = t.next_msg in
  t.next_msg <- msg_id + 1;
  if t.tr_len = Array.length t.tr_ids then begin
    t.tr_ids <- grow_ints t.tr_ids;
    t.tr_dst <- grow_ints t.tr_dst;
    t.tr_src <- grow_ints t.tr_src;
    t.tr_msg <- grow_msgs t.tr_msg
  end;
  t.tr_ids.(t.tr_len) <- msg_id;
  t.tr_dst.(t.tr_len) <- dst;
  t.tr_src.(t.tr_len) <- src;
  t.tr_msg.(t.tr_len) <- msg;
  t.tr_len <- t.tr_len + 1;
  Obs.Metrics.incr M.messages_sent;
  if Trace.full t.trace then
    Trace.add t.trace
      (Trace.Sent { msg_id; src; dst; msg; inv = current_inv t src })
  else Trace.bump_sent t.trace;
  msg_id

(* a server handler's replies, sent from [src] in order *)
let rec send_all t ~src obj_name = function
  | [] -> ()
  | (dst, body) :: rest ->
      ignore (enqueue_message t ~src ~dst (Message.make ~obj_name body));
      send_all t ~src obj_name rest

(* Deliver the message in in-transit slot [i]; its destination has not
   crashed. *)
let deliver_slot t i =
  let msg_id = t.tr_ids.(i) in
  let src = t.tr_src.(i) and dst = t.tr_dst.(i) and msg = t.tr_msg.(i) in
  let tail = t.tr_len - i - 1 in
  Array.blit t.tr_ids (i + 1) t.tr_ids i tail;
  Array.blit t.tr_dst (i + 1) t.tr_dst i tail;
  Array.blit t.tr_src (i + 1) t.tr_src i tail;
  Array.blit t.tr_msg (i + 1) t.tr_msg i tail;
  t.tr_len <- t.tr_len - 1;
  t.tr_msg.(t.tr_len) <- no_msg;
  let o = obj_index t msg.Message.obj_name in
  if o < 0 then Fmt.invalid_arg "unknown object %s" msg.Message.obj_name;
  let obj = t.objs.(o) in
  let handled =
    match obj.on_message with
    | Some handler when Array.length t.servers.(o) > 0 -> (
        let states = t.servers.(o) in
        match handler ~self:dst ~state:states.(dst) ~src ~body:msg.Message.body with
        | Some { state = state'; out } ->
            states.(dst) <- state';
            send_all t ~src:dst obj.name out;
            true
        | None -> false)
    | _ -> false
  in
  if not handled then begin
    let mb = t.mailboxes.(dst) in
    if mb.mb_len = Array.length mb.mb_ids then begin
      mb.mb_ids <- grow_ints mb.mb_ids;
      mb.mb_msgs <- grow_msgs mb.mb_msgs
    end;
    mb.mb_ids.(mb.mb_len) <- msg_id;
    mb.mb_msgs.(mb.mb_len) <- msg;
    mb.mb_len <- mb.mb_len + 1;
    (* the one new message is the only thing that can unblock [dst] *)
    if t.ready land (1 lsl dst) = 0 then
      match t.procs.(dst) with
      | Active (Proc.Recv (_, pred), _, _) when pred msg ->
          t.ready <- t.ready lor (1 lsl dst)
      | _ -> ()
  end;
  Obs.Metrics.incr M.messages_delivered;
  if Trace.full t.trace then
    Trace.add t.trace (Trace.Delivered { msg_id; src; dst; msg; handled })
  else Trace.bump t.trace

(* the in-transit slot holding message [msg_id] at or after slot [i],
   or -1 *)
let rec transit_slot t msg_id i =
  if i >= t.tr_len then -1
  else if t.tr_ids.(i) = msg_id then i
  else transit_slot t msg_id (i + 1)

let deliver t msg_id =
  let i = transit_slot t msg_id 0 in
  if i < 0 || is_crashed t t.tr_dst.(i) then raise (Not_enabled (Deliver msg_id));
  deliver_slot t i

let remove_mail mb i =
  let tail = mb.mb_len - i - 1 in
  Array.blit mb.mb_ids (i + 1) mb.mb_ids i tail;
  Array.blit mb.mb_msgs (i + 1) mb.mb_msgs i tail;
  mb.mb_len <- mb.mb_len - 1;
  mb.mb_msgs.(mb.mb_len) <- no_msg

(* feed [v] to [p]'s pending continuation [k] over the stack [s] *)
let continue t p k s v = t.procs.(p) <- settle (k v) s

let step_process t p =
  (match t.procs.(p) with
  | Terminated | Crashed_p -> raise (Not_enabled (Step p))
  | At_ret ->
      t.procs.(p) <- Terminated;
      t.active <- t.active land lnot (1 lsl p)
  | Active (op, k, s) -> (
      match op with
      | Proc.Broadcast msg ->
          for dst = 0 to t.config.n - 1 do
            ignore (enqueue_message t ~src:p ~dst msg)
          done;
          continue t p k s ()
      | Proc.Send (dst, msg) ->
          ignore (enqueue_message t ~src:p ~dst msg);
          continue t p k s ()
      | Proc.Recv (_descr, pred) ->
          let mb = t.mailboxes.(p) in
          let i = first_match pred mb 0 in
          if i < 0 then raise (Not_enabled (Step p));
          let msg_id = mb.mb_ids.(i) and msg = mb.mb_msgs.(i) in
          remove_mail mb i;
          if Trace.full t.trace then
            Trace.add t.trace
              (Trace.Received { msg_id; proc = p; msg; inv = current_inv t p })
          else Trace.bump t.trace;
          continue t p k s msg
      | Proc.Read_reg r ->
          let value = Base_reg.read t.store r ~reader:p in
          Obs.Metrics.incr M.reg_reads;
          if Trace.full t.trace then
            Trace.add t.trace
              (Trace.Reg_read { proc = p; reg = r; value; inv = current_inv t p })
          else Trace.bump t.trace;
          continue t p k s value
      | Proc.Write_reg (r, value) ->
          Base_reg.write t.store r ~writer:p value;
          Obs.Metrics.incr M.reg_writes;
          if Trace.full t.trace then
            Trace.add t.trace
              (Trace.Reg_write { proc = p; reg = r; value; inv = current_inv t p })
          else Trace.bump t.trace;
          continue t p k s ()
      | Proc.Rmw_reg (r, f) ->
          let cur = Base_reg.read t.store r ~reader:p in
          let stored, result = f cur in
          Base_reg.write t.store r ~writer:p stored;
          Obs.Metrics.incr M.reg_writes;
          if Trace.full t.trace then
            Trace.add t.trace
              (Trace.Reg_write
                 { proc = p; reg = r; value = stored; inv = current_inv t p })
          else Trace.bump t.trace;
          continue t p k s result
      | Proc.Random (bound, kind) ->
          let result = draw_random t bound in
          Obs.Metrics.incr M.coin_flips;
          if debug_on () then
            Log.debug (fun m ->
                m "p%d %s-random(%d) = %d" p
                  (match kind with
                  | Proc.Program_random -> "program"
                  | Proc.Object_random -> "object")
                  bound result);
          if Trace.full t.trace then
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
          continue t p k s ()));
  refresh_ready t p

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

let step t e =
  Obs.Metrics.incr M.steps;
  if debug_on () then Log.debug (fun m -> m "%a" pp_event e);
  match e with
  | Step p -> step_process t p
  | Deliver id -> deliver t id
  | Crash p -> (
      if not (crashes_allowed t) then raise (Not_enabled e);
      match t.procs.(p) with
      | Active _ | At_ret -> crash t p
      | Terminated | Crashed_p -> raise (Not_enabled e))

(* [step] by position, for the run loops: the index decodes straight to a
   process or an in-transit slot, so no event is built or searched for *)
let step_nth t i =
  Obs.Metrics.incr M.steps;
  if debug_on () then Log.debug (fun m -> m "%a" pp_event (enabled_nth t i));
  let x = locate t i in
  match x land 3 with
  | 0 -> step_process t (x lsr 2)
  | 1 -> deliver_slot t (x lsr 2)
  | _ -> crash t (x lsr 2)

let finished t = t.active = 0

type run_result = Completed | Deadlocked | Step_limit_reached

let pp_run_result ppf = function
  | Completed -> Fmt.string ppf "completed"
  | Deadlocked -> Fmt.string ppf "deadlocked"
  | Step_limit_reached -> Fmt.string ppf "step limit reached"

let check_choice i n =
  if i < 0 || i >= n then
    Fmt.invalid_arg "Runtime: chose index %d of %d enabled events" i n

let rec run_loop t choose remaining =
  if finished t then Completed
  else if remaining = 0 then Step_limit_reached
  else
    let n = enabled_count t in
    if n = 0 then Deadlocked
    else begin
      let i = choose t n in
      check_choice i n;
      step_nth t i;
      run_loop t choose (remaining - 1)
    end

let run t ~max_steps choose =
  Obs.Metrics.incr M.runs;
  let result = run_loop t choose max_steps in
  Log.info (fun m ->
      m "run %a after %d steps (%d msgs)" pp_run_result result
        (Trace.count_steps t.trace)
        (Trace.count_messages t.trace));
  result

let run_schedule t events = List.iter (step t) events

type guided_result = Finished of run_result | Guide_stopped

let rec guided_loop t guide remaining =
  if finished t then Finished Completed
  else if remaining = 0 then Finished Step_limit_reached
  else
    let n = enabled_count t in
    if n = 0 then Finished Deadlocked
    else
      match guide t n with
      | None -> Guide_stopped
      | Some i ->
          check_choice i n;
          step_nth t i;
          guided_loop t guide (remaining - 1)

let run_guided t ~max_steps guide =
  Obs.Metrics.incr M.runs;
  let result = guided_loop t guide max_steps in
  Log.info (fun m ->
      m "guided run %s after %d steps"
        (match result with
        | Finished r -> Fmt.str "%a" pp_run_result r
        | Guide_stopped -> "stopped by guide")
        (Trace.count_steps t.trace));
  result
