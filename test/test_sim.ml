(* Tests for the simulator substrate: determinism, mailboxes, registers,
   enabledness, crash handling. *)

open Util
open Sim
open Sim.Proc.Syntax

let value = Alcotest.testable Value.pp Value.equal

(* A trivial one-object configuration: each process writes then reads an
   atomic register. *)
let trivial_config () =
  let reg = Objects.Atomic_register.make ~name:"X" ~init:Value.none in
  let program ~self =
    let* _ =
      Obj_impl.call reg ~self ~tag:"w" ~meth:"write" ~arg:(Value.int self)
    in
    let* _ = Obj_impl.call reg ~self ~tag:"r" ~meth:"read" ~arg:Value.unit in
    Proc.return ()
  in
  {
    Runtime.n = 3;
    objects = [ reg ];
    program;
    max_crashes = 0;
  }

let test_trivial_completes () =
  let t = Scheds.run_random (trivial_config ()) in
  Alcotest.(check bool) "finished" true (Runtime.finished t);
  let h = Runtime.history t in
  Alcotest.(check int) "six operations" 6 (Array.length (History.Hist.ops h))

let test_determinism_same_schedule () =
  (* record the schedule of one run, replay it, compare traces *)
  let rng = Rng.of_int 7 in
  let t1 = Runtime.create (trivial_config ()) (Runtime.Gen (Rng.copy rng)) in
  let sched = ref [] in
  let choose t n =
    let i = Rng.index rng n in
    sched := Runtime.enabled_nth t i :: !sched;
    i
  in
  (match Runtime.run t1 ~max_steps:10_000 choose with
  | Runtime.Completed -> ()
  | _ -> Alcotest.fail "run did not complete");
  let t2 = Runtime.create (trivial_config ()) (Runtime.Gen (Rng.of_int 9)) in
  Runtime.run_schedule t2 (List.rev !sched);
  let show t = Fmt.str "%a" Trace.pp (Runtime.trace t) in
  Alcotest.(check string) "same trace" (show t1) (show t2)

let test_mailbox_fifo () =
  (* p0 sends three tagged messages to p1; p1 receives them in delivery
     order when the scheduler delivers in send order *)
  let dummy : Obj_impl.t =
    {
      name = "chan";
      invoke = (fun ~self:_ ~meth:_ ~arg:_ -> Proc.return Value.unit);
      on_message = None;
      init_server = None;
      registers = (fun ~n:_ -> []);
    }
  in
  let got = ref [] in
  let program ~self =
    match self with
    | 0 ->
        Proc.iter [ 1; 2; 3 ] (fun i ->
            Proc.send 1 (Message.make ~obj_name:"chan" (Value.int i)))
    | 1 ->
        let* () =
          Proc.iter [ (); (); () ] (fun () ->
              let* m = Proc.recv ~descr:"any" (fun _ -> true) in
              got := Value.to_int m.body :: !got;
              Proc.return ())
        in
        Proc.return ()
    | _ -> Proc.return ()
  in
  let config =
    {
      Runtime.n = 2;
      objects = [ dummy ];
      program;
      max_crashes = 0;
    }
  in
  let t = Runtime.create config (Runtime.Gen (Rng.of_int 1)) in
  (* deliver in send order, then let p1 drain *)
  (match Runtime.run t ~max_steps:1000 Adversary.Schedulers.eager_delivery with
  | Runtime.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !got)

let test_recv_blocks () =
  let dummy : Obj_impl.t =
    {
      name = "chan";
      invoke = (fun ~self:_ ~meth:_ ~arg:_ -> Proc.return Value.unit);
      on_message = None;
      init_server = None;
      registers = (fun ~n:_ -> []);
    }
  in
  let program ~self =
    match self with
    | 0 ->
        let* _ = Proc.recv ~descr:"never" (fun _ -> true) in
        Proc.return ()
    | _ -> Proc.return ()
  in
  let config =
    {
      Runtime.n = 1;
      objects = [ dummy ];
      program;
      max_crashes = 0;
    }
  in
  let t = Runtime.create config (Runtime.Gen (Rng.of_int 1)) in
  Alcotest.(check bool) "p0 blocked" true (Runtime.blocked t 0);
  Alcotest.(check int) "nothing enabled" 0 (List.length (Runtime.enabled t));
  Alcotest.(check bool) "not finished" false (Runtime.finished t)

let test_register_discipline () =
  (* a register writable only by process 0; process 1 writing must fault *)
  let rid = Base_reg.id ~obj_name:"o" "r" in
  let obj : Obj_impl.t =
    {
      name = "o";
      invoke = (fun ~self:_ ~meth:_ ~arg:_ -> Proc.return Value.unit);
      on_message = None;
      init_server = None;
      registers =
        (fun ~n:_ ->
          [ { Base_reg.id = rid; init = Value.int 0; writers = Some [ 0 ]; readers = None } ]);
    }
  in
  let program ~self =
    if self = 1 then Proc.write_reg rid (Value.int 5) else Proc.return ()
  in
  let config =
    {
      Runtime.n = 2;
      objects = [ obj ];
      program;
      max_crashes = 0;
    }
  in
  let t = Runtime.create config (Runtime.Gen (Rng.of_int 1)) in
  Alcotest.check_raises "discipline violation"
    (Base_reg.Discipline_violation "process 1 may not write o.r")
    (fun () -> Runtime.step t (Runtime.Step 1))

let test_tape_randomness () =
  let dummy : Obj_impl.t =
    {
      name = "o";
      invoke = (fun ~self:_ ~meth:_ ~arg:_ -> Proc.return Value.unit);
      on_message = None;
      init_server = None;
      registers = (fun ~n:_ -> []);
    }
  in
  let drawn = ref [] in
  let program ~self:_ =
    let* a = Proc.random ~kind:Proc.Program_random 10 in
    let* b = Proc.random ~kind:Proc.Program_random 4 in
    drawn := [ a; b ];
    Proc.return ()
  in
  let config =
    {
      Runtime.n = 1;
      objects = [ dummy ];
      program;
      max_crashes = 0;
    }
  in
  let t = Runtime.create config (Runtime.Tape [| 7; 6 |]) in
  (match Runtime.run t ~max_steps:100 (fun _ _ -> 0) with
  | Runtime.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  Alcotest.(check (list int)) "tape respected (6 mod 4 = 2)" [ 7; 2 ] !drawn

let test_tape_exhaustion () =
  let dummy : Obj_impl.t =
    {
      name = "o";
      invoke = (fun ~self:_ ~meth:_ ~arg:_ -> Proc.return Value.unit);
      on_message = None;
      init_server = None;
      registers = (fun ~n:_ -> []);
    }
  in
  let program ~self:_ =
    let* _ = Proc.random ~kind:Proc.Program_random 2 in
    Proc.return ()
  in
  let config =
    {
      Runtime.n = 1;
      objects = [ dummy ];
      program;
      max_crashes = 0;
    }
  in
  let t = Runtime.create config (Runtime.Tape [||]) in
  Alcotest.check_raises "exhausted" Runtime.Tape_exhausted (fun () ->
      Runtime.step t (Runtime.Step 0))

let test_crash_event () =
  let config = { (trivial_config ()) with max_crashes = 1 } in
  let t = Runtime.create config (Runtime.Gen (Rng.of_int 1)) in
  Runtime.step t (Runtime.Crash 2);
  Alcotest.(check bool) "p2 crashed" true (Runtime.is_crashed t 2);
  (* no more crash events should be enabled (max_crashes = 1) *)
  let crashes =
    List.filter (function Runtime.Crash _ -> true | _ -> false) (Runtime.enabled t)
  in
  Alcotest.(check int) "no further crash enabled" 0 (List.length crashes)

let test_history_well_formed () =
  let t = Scheds.run_random ~seed:3 (trivial_config ()) in
  Alcotest.(check bool) "well formed" true (History.Hist.well_formed (Runtime.history t))

let test_outcome_extraction () =
  let t = Scheds.run_random ~seed:5 (trivial_config ()) in
  let outcome = Runtime.outcome t in
  (* every process reads some value previously written (0, 1 or 2) *)
  List.iter
    (fun occ ->
      match History.Outcome.find outcome ~tag:"r" ~occurrence:occ with
      | Some (Value.Int v) -> Alcotest.(check bool) "read a written id" true (v >= 0 && v <= 2)
      | Some other -> Alcotest.failf "unexpected read %a" Value.pp other
      | None -> Alcotest.fail "missing read outcome")
    [ 0; 1; 2 ]

(* A History-level trace must keep outcomes, labels and the exact
   step/message counts of a Full run of the same schedule, while
   materializing none of the hot per-event entries. *)
let test_trace_history_level () =
  let run level =
    let t =
      Runtime.create ?trace_level:level
        (Programs.Weakener.abd_config ())
        (Runtime.Gen (Rng.of_int 11))
    in
    (match Runtime.run t ~max_steps:100_000 Adversary.Schedulers.eager_delivery with
    | Runtime.Completed -> ()
    | _ -> Alcotest.fail "weakener run did not complete");
    t
  in
  let tf = run None and th = run (Some Trace.History) in
  Alcotest.(check int)
    "step counts agree"
    (Trace.count_steps (Runtime.trace tf))
    (Trace.count_steps (Runtime.trace th));
  Alcotest.(check int)
    "message counts agree"
    (Trace.count_messages (Runtime.trace tf))
    (Trace.count_messages (Runtime.trace th));
  Alcotest.(check bool)
    "full run recorded per-event entries" true
    (List.exists
       (function Trace.Sent _ -> true | _ -> false)
       (Trace.entries (Runtime.trace tf)));
  Alcotest.(check bool)
    "history run materialized none" false
    (List.exists
       (function
         | Trace.Sent _ | Trace.Delivered _ | Trace.Received _
         | Trace.Reg_read _ | Trace.Reg_write _ | Trace.Randomized _ ->
             true
         | _ -> false)
       (Trace.entries (Runtime.trace th)));
  (* outcomes come from Action entries, which History keeps *)
  let bindings t =
    List.map
      (fun ((tag, occ), v) -> Fmt.str "%s/%d=%a" tag occ Value.pp v)
      (History.Outcome.bindings (Runtime.outcome t))
  in
  Alcotest.(check (list string)) "outcomes agree" (bindings tf) (bindings th)

(* The simulator's scheduling decisions, pinned. 200 seeded uniform
   trials of each configuration below; every step's enabled list, its
   [blocked] bits and the chosen event go into an MD5 (chained per trial:
   [d' = MD5 (d ^ trial)]), with each trial's end and the total
   [sim.steps]. A runtime change that moves any enabled set, its order,
   a [blocked] answer or a random draw moves the digest. The Full and
   History trace levels must give the same decisions. *)
let decision_cases () =
  let case c = ((fun () -> Fuzz.Case.config c), Fuzz.Case.max_steps c) in
  [
    ("ABD^1 weakener", ((fun () -> Programs.Weakener.abd_k_config ~k:1), 1_000_000));
    ("ABD^2 weakener", ((fun () -> Programs.Weakener.abd_k_config ~k:2), 1_000_000));
    ("VA registers", case (Fuzz.Case.Registers { impl = Fuzz.Case.Va_k 2; n = 3 }));
    ("Israeli-Li registers", case (Fuzz.Case.Registers { impl = Fuzz.Case.Il; n = 3 }));
    ("Afek snapshot", case (Fuzz.Case.Snapshots { k = 1; n = 3 }));
    ( "Ben-Or with crashes",
      ( (fun () -> Programs.Ben_or.config ~n:3 ~f:1 ~inputs:[ 0; 1; 1 ] ~max_rounds:4),
        100_000 ) );
  ]

let decision_digest ~level =
  let steps = Obs.Metrics.counter "sim.steps" in
  let s0 = Obs.Metrics.counter_value steps in
  let digest = ref (Digest.string "") and chosen = ref 0 in
  let buf = Buffer.create 4096 in
  let add_event = function
    | Runtime.Step p -> Buffer.add_char buf 's'; Buffer.add_string buf (string_of_int p)
    | Runtime.Deliver m -> Buffer.add_char buf 'd'; Buffer.add_string buf (string_of_int m)
    | Runtime.Crash p -> Buffer.add_char buf 'c'; Buffer.add_string buf (string_of_int p)
  in
  List.iter
    (fun (_, (mk, max_steps)) ->
      for i = 0 to 199 do
        Buffer.clear buf;
        let t =
          Runtime.create ~trace_level:level (mk ())
            (Runtime.Gen (Rng.stream ~seed:2026 ~index:((2 * i) + 1)))
        in
        let pick = Adversary.Schedulers.uniform (Rng.stream ~seed:2026 ~index:(2 * i)) in
        let choose t n =
          List.iter add_event (Runtime.enabled t);
          Buffer.add_char buf '|';
          for p = 0 to Runtime.n t - 1 do
            Buffer.add_char buf (if Runtime.blocked t p then 'b' else '-')
          done;
          let i = pick t n in
          add_event (Runtime.enabled_nth t i);
          Buffer.add_char buf ';';
          incr chosen;
          i
        in
        Buffer.add_string buf
          (Fmt.str "%a" Runtime.pp_run_result (Runtime.run t ~max_steps choose));
        digest := Digest.string (!digest ^ Buffer.contents buf)
      done)
    (decision_cases ());
  let total = Obs.Metrics.counter_value steps - s0 in
  Alcotest.(check int) "sim.steps counts the chosen events" !chosen total;
  (Digest.to_hex !digest, total)

let test_decisions_pinned () =
  let full = decision_digest ~level:Trace.Full in
  let history = decision_digest ~level:Trace.History in
  Alcotest.(check (pair string int)) "Full and History agree" full history;
  Alcotest.(check (pair string int)) "pinned digest and sim.steps"
    ("5b033c53111d4595daad994bf5e6fd8e", 140_347) full

(* The message state, pinned: before every choice and at the end of 60
   seeded uniform trials each of ABD^2, VA and Ben-Or with crashes, the
   in-transit multiset ([msg_id], ends and message, in order) and every
   process's mailbox (ids and messages, oldest first) go into an MD5
   chained per trial, as [decision_digest] does. A change to how the
   runtime stores messages must leave every observed queue as it was. *)
let message_state_digest () =
  let buf = Buffer.create 4096 in
  let add_state t =
    List.iter
      (fun (m : Runtime.in_transit) ->
        Buffer.add_string buf
          (Fmt.str "t%d:%d>%d:%a," m.msg_id m.src m.dst Message.pp m.msg))
      (Runtime.in_transit t);
    for p = 0 to Runtime.n t - 1 do
      Buffer.add_char buf '|';
      List.iter
        (fun (id, m) -> Buffer.add_string buf (Fmt.str "%d:%a," id Message.pp m))
        (Runtime.mailbox t p)
    done;
    Buffer.add_char buf ';'
  in
  let digest = ref (Digest.string "") in
  List.iter
    (fun name ->
      let mk, max_steps = List.assoc name (decision_cases ()) in
      for i = 0 to 59 do
        Buffer.clear buf;
        let t =
          Runtime.create ~trace_level:Trace.History (mk ())
            (Runtime.Gen (Rng.stream ~seed:36 ~index:((2 * i) + 1)))
        in
        let pick = Adversary.Schedulers.uniform (Rng.stream ~seed:36 ~index:(2 * i)) in
        let result = Runtime.run t ~max_steps (fun t n -> add_state t; pick t n) in
        add_state t;
        Buffer.add_string buf (Fmt.str "%a" Runtime.pp_run_result result);
        digest := Digest.string (!digest ^ Buffer.contents buf)
      done)
    [ "ABD^2 weakener"; "VA registers"; "Ben-Or with crashes" ];
  Digest.to_hex !digest

(* The receive cursor. p1 sends p0, in order: a message for another
   object, two stale ones, the first match, another non-match and a
   second match (ids 0-5). p0 receives twice with one predicate (as an
   ABD phase does) and then once with a predicate only a stale message
   meets. At every decision [blocked t 0] must be exactly "p0 awaits a
   [Recv] and no mailbox message matches it", so it flips when the match
   lands and not before; the [Recv]s must consume the oldest match each
   time: ids 3, 5, then 1. Checked through [run] (eager delivery) and
   through the public [step], delivering all six before p0 moves. *)
let cursor_config () =
  let chan name : Obj_impl.t =
    {
      name;
      invoke = (fun ~self:_ ~meth:_ ~arg:_ -> Proc.return Value.unit);
      on_message = None;
      init_server = None;
      registers = (fun ~n:_ -> []);
    }
  in
  let matches sn (m : Message.t) =
    String.equal m.obj_name "X" && match m.body with Value.Int v -> v = sn | _ -> false
  in
  let program ~self =
    if self = 1 then
      Proc.iter [ ("Y", 5); ("X", 3); ("X", 4); ("X", 5); ("X", 6); ("X", 5) ]
        (fun (obj_name, v) -> Proc.send 0 (Message.make ~obj_name (Value.int v)))
    else
      let want5 = matches 5 in
      let* _ = Proc.recv ~descr:"5" want5 in
      let* _ = Proc.recv ~descr:"5" want5 in
      let* _ = Proc.recv ~descr:"3" (matches 3) in
      Proc.return ()
  in
  ( { Runtime.n = 2; objects = [ chan "X"; chan "Y" ]; program; max_crashes = 0 },
    fun descr -> matches (int_of_string descr) )

let consumed t =
  List.filter_map
    (function Trace.Received { msg_id; _ } -> Some msg_id | _ -> None)
    (Trace.entries (Runtime.trace t))

let check_blocked pred_of t =
  let prefix = "recv:" in
  let awaited =
    let d = Runtime.next_op_descr t 0 in
    if String.starts_with ~prefix d then
      let pred = pred_of (String.sub d 5 (String.length d - 5)) in
      not (List.exists (fun (_, m) -> pred m) (Runtime.mailbox t 0))
    else false
  in
  Alcotest.(check bool) "blocked iff no mailbox message matches" awaited (Runtime.blocked t 0)

let test_receive_cursor () =
  let config, pred_of = cursor_config () in
  let t = Runtime.create config (Runtime.Gen (Rng.of_int 1)) in
  let decisions = ref 0 in
  let choose t n =
    check_blocked pred_of t;
    incr decisions;
    Adversary.Schedulers.eager_delivery t n
  in
  (match Runtime.run t ~max_steps:100 choose with
  | Runtime.Completed -> ()
  | r -> Alcotest.failf "run %a" Runtime.pp_run_result r);
  Alcotest.(check (list int)) "run: oldest match first" [ 3; 5; 1 ] (consumed t);
  let t = Runtime.create config (Runtime.Gen (Rng.of_int 1)) in
  for _ = 1 to 6 do
    Runtime.step t (Runtime.Step 1)
  done;
  List.iter
    (fun (id, blocked) ->
      Runtime.step t (Runtime.Deliver id);
      check_blocked pred_of t;
      Alcotest.(check bool) (Fmt.str "blocked after m%d" id) blocked (Runtime.blocked t 0))
    [ (0, true); (1, true); (2, true); (3, false); (4, false); (5, false) ];
  for _ = 1 to 3 do
    Runtime.step t (Runtime.Step 0);
    check_blocked pred_of t
  done;
  Alcotest.(check (list int)) "step: oldest match first" [ 3; 5; 1 ] (consumed t);
  Alcotest.check_raises "a blocked Recv is not enabled"
    (Runtime.Not_enabled (Runtime.Step 0)) (fun () ->
      let config, _ = cursor_config () in
      Runtime.step (Runtime.create config (Runtime.Gen (Rng.of_int 1))) (Runtime.Step 0))

let test_message_state_pinned () =
  Alcotest.(check string) "pinned in-transit and mailbox digest"
    "32b729149d1353330686608a2cd5102d" (message_state_digest ())

(* The positional enabled set against the enabled set rebuilt from the
   observers: ready processes in order, then in-transit messages to live
   processes in send order, then every active process while crashes are
   allowed. At every step of 30 seeded uniform trials of each
   configuration of [decision_cases] (Ben-Or chooses crashes among them),
   [enabled], [enabled_count], [enabled_steps] and every [enabled_nth]
   agree with it, and positions outside it raise. *)
let test_enabled_positions () =
  let check (config : Runtime.config) t =
    let procs = List.init (Runtime.n t) Fun.id in
    let steps =
      List.filter_map
        (fun p ->
          if Runtime.is_active t p && not (Runtime.blocked t p) then Some (Runtime.Step p)
          else None)
        procs
    in
    let delivers =
      List.filter_map
        (fun (m : Runtime.in_transit) ->
          if Runtime.is_crashed t m.dst then None else Some (Runtime.Deliver m.msg_id))
        (Runtime.in_transit t)
    in
    let crashed = List.length (List.filter (Runtime.is_crashed t) procs) in
    let crashes =
      if crashed < config.max_crashes then
        List.filter_map
          (fun p -> if Runtime.is_active t p then Some (Runtime.Crash p) else None)
          procs
      else []
    in
    let expected = steps @ delivers @ crashes in
    let n = List.length expected in
    if Runtime.enabled t <> expected then Alcotest.fail "enabled differs";
    Alcotest.(check int) "enabled_count" n (Runtime.enabled_count t);
    Alcotest.(check int) "enabled_steps" (List.length steps) (Runtime.enabled_steps t);
    List.iteri
      (fun i e -> if Runtime.enabled_nth t i <> e then Alcotest.failf "enabled_nth %d" i)
      expected;
    List.iter
      (fun i ->
        match Runtime.enabled_nth t i with
        | _ -> Alcotest.failf "enabled_nth %d of %d did not raise" i n
        | exception Invalid_argument _ -> ())
      [ -1; n ];
    n
  in
  let crashes = ref 0 in
  List.iter
    (fun (_, (mk, max_steps)) ->
      for i = 0 to 29 do
        let config = mk () in
        let t = Runtime.create config (Runtime.Gen (Rng.stream ~seed:7 ~index:((2 * i) + 1))) in
        let pick = Adversary.Schedulers.uniform (Rng.stream ~seed:7 ~index:(2 * i)) in
        let choose t n =
          Alcotest.(check int) "run's count" (check config t) n;
          let i = pick t n in
          (match Runtime.enabled_nth t i with Runtime.Crash _ -> incr crashes | _ -> ());
          i
        in
        ignore (Runtime.run t ~max_steps choose);
        ignore (check config t)
      done)
    (decision_cases ());
  if !crashes = 0 then Alcotest.fail "no trial chose a crash"

(* A message for an object the configuration does not declare fails
   the [Send] or [Broadcast] step that makes it, before it enters
   transit. *)
let test_unknown_object () =
  let chan : Obj_impl.t =
    {
      name = "chan";
      invoke = (fun ~self:_ ~meth:_ ~arg:_ -> Proc.return Value.unit);
      on_message = None;
      init_server = None;
      registers = (fun ~n:_ -> []);
    }
  in
  let program ~self =
    let m = Message.make ~obj_name:"nope" (Value.int self) in
    if self = 0 then Proc.send 1 m else Proc.broadcast m
  in
  let config = { Runtime.n = 2; objects = [ chan ]; program; max_crashes = 0 } in
  List.iter
    (fun p ->
      let t = Runtime.create config (Runtime.Gen (Rng.of_int 1)) in
      Alcotest.check_raises "unknown object" (Invalid_argument "unknown object nope")
        (fun () -> Runtime.step t (Runtime.Step p));
      Alcotest.(check int) "nothing in transit" 0 (List.length (Runtime.in_transit t));
      Alcotest.(check int) "nothing sent" 0 (Trace.count_messages (Runtime.trace t)))
    [ 0; 1 ]

(* The [sim.*] counters are tallied per runtime and published when [run]
   or [step] returns or raises. Wherever a run stops, their deltas must
   equal what the Full trace recorded: [sim.messages_sent] its
   [count_messages], deliveries, register reads and writes and coin flips
   its entries of each kind, and [sim.steps] the events stepped. *)
let sim_counters =
  List.map Obs.Metrics.counter
    [
      "sim.steps"; "sim.messages_sent"; "sim.messages_delivered";
      "sim.register_reads"; "sim.register_writes"; "sim.coin_flips";
    ]

let read_counters () = List.map Obs.Metrics.counter_value sim_counters

let check_counters ~what c0 ~stepped t =
  let tr = Runtime.trace t in
  let count f = List.length (List.filter f (Trace.entries tr)) in
  let expected =
    [
      stepped;
      Trace.count_messages tr;
      count (function Trace.Delivered _ -> true | _ -> false);
      count (function Trace.Reg_read _ -> true | _ -> false);
      count (function Trace.Reg_write _ -> true | _ -> false);
      count (function Trace.Randomized _ -> true | _ -> false);
    ]
  in
  Alcotest.(check (list int))
    (what ^ ": steps, sent, delivered, reads, writes, flips")
    expected
    (List.map2 ( - ) (read_counters ()) c0)

(* one Full-trace uniform run of each pinned configuration to its end *)
let test_counters_completed_run () =
  List.iteri
    (fun i (name, (mk, max_steps)) ->
      let t = Runtime.create (mk ()) (Runtime.Gen (Rng.stream ~seed:5 ~index:((2 * i) + 1))) in
      let pick = Adversary.Schedulers.uniform (Rng.stream ~seed:5 ~index:(2 * i)) in
      let stepped = ref 0 in
      let c0 = read_counters () in
      (match Runtime.run t ~max_steps (fun t n -> incr stepped; pick t n) with
      | Runtime.Completed -> ()
      | r -> Alcotest.failf "%s: run %a" name Runtime.pp_run_result r);
      check_counters ~what:name c0 ~stepped:!stepped t)
    (decision_cases ())

(* ABD^2's weakener draws seven times per trial; a three-draw tape cuts
   the run mid-way, after messages have moved *)
let test_counters_tape_exhausted () =
  let t =
    Runtime.create (Programs.Weakener.abd_k_config ~k:2) (Runtime.Tape [| 1; 0; 1 |])
  in
  let pick = Adversary.Schedulers.uniform (Rng.of_int 3) in
  let stepped = ref 0 in
  let c0 = read_counters () in
  Alcotest.check_raises "tape runs out" Runtime.Tape_exhausted (fun () ->
      ignore (Runtime.run t ~max_steps:1_000_000 (fun t n -> incr stepped; pick t n)));
  if Trace.count_messages (Runtime.trace t) = 0 then Alcotest.fail "no message was sent";
  check_counters ~what:"cut run" c0 ~stepped:!stepped t

(* [Runtime.step] publishes per call, the raising step included *)
let test_counters_single_steps () =
  let t =
    Runtime.create (Programs.Weakener.abd_k_config ~k:2) (Runtime.Tape [| 0; 1; 1; 0 |])
  in
  let rng = Rng.of_int 9 in
  let c0 = read_counters () in
  let rec go stepped =
    let evs = Runtime.enabled t in
    match Runtime.step t (List.nth evs (Rng.index rng (List.length evs))) with
    | () ->
        check_counters ~what:(Fmt.str "step %d" stepped) c0 ~stepped t;
        go (stepped + 1)
    | exception Runtime.Tape_exhausted -> stepped
  in
  let stepped = go 1 in
  if stepped < 20 then Alcotest.failf "tape ran out after %d steps" stepped;
  check_counters ~what:"raising step" c0 ~stepped t

(* Seed 1, 5,000 ABD^2 trials under the uniform scheduler, recorded on
   the runtime that bumped the process-wide counters per event: the
   tallies published per run must add up to the same totals, and to the
   same at 4 jobs as at 1. The 4-job estimate owns its pool and joins
   its workers before it returns. *)
let test_mc_tallies_pinned () =
  let steps = Obs.Metrics.counter "sim.steps"
  and sent = Obs.Metrics.counter "sim.messages_sent" in
  let at jobs =
    let s0 = Obs.Metrics.counter_value steps and m0 = Obs.Metrics.counter_value sent in
    let r =
      Adversary.Monte_carlo.estimate ~jobs ~trials:5_000 ~seed:1
        ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad (fun () ->
          Programs.Weakener.abd_k_config ~k:2)
    in
    (r.bad, Obs.Metrics.counter_value steps - s0, Obs.Metrics.counter_value sent - m0)
  in
  let pinned = (19, 1_134_502, 539_911) in
  let t3 = Alcotest.(triple int int int) in
  Alcotest.check t3 "1 job: bad, sim.steps, sim.messages_sent" pinned (at 1);
  Alcotest.check t3 "4 jobs: bad, sim.steps, sim.messages_sent" pinned (at 4);
  Alcotest.(check int) "no worker domain outlives the estimate" 0
    (Par.Pool.spawned_domains ())

(* Allocation guard: minor words per simulator step ([Gc.minor_words]
   over the [sim.steps] counter) for each simulator workload of the bench
   harness. Each row is (workload, words per step measured under OCaml
   5.1.1, bound); every bound is at most 1.5x its measured figure, so a
   per-step allocation that grows by half fails on every CI leg. *)
let alloc_workloads =
  let mc ~trials ~seed config () =
    let r =
      Adversary.Monte_carlo.estimate ~jobs:1 ~trials ~seed
        ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad config
    in
    Alcotest.(check int) "all trials complete" 0
      (r.Adversary.Monte_carlo.deadlocks + r.step_limited)
  in
  let completes ~max_steps t choose =
    match Runtime.run t ~max_steps choose with
    | Runtime.Completed -> ()
    | r -> Alcotest.failf "run %a" Runtime.pp_run_result r
  in
  (* E8: one eager run of the weakener per k, seed 7 *)
  let eager_abd_k () =
    List.iter
      (fun k ->
        let config =
          if k = 0 then Programs.Weakener.abd_config ()
          else Programs.Weakener.abd_k_config ~k
        in
        let t =
          Runtime.create ~trace_level:Trace.History config (Runtime.Gen (Rng.of_int 7))
        in
        completes ~max_steps:2_000_000 t Adversary.Schedulers.eager_delivery)
      [ 0; 2; 3; 4; 6; 8 ]
  in
  (* E9: 25 seeds of ABD^k for the first T = 6 rounds, 25 of plain ABD *)
  let round_based () =
    let n = 3 and window = 6 and max_rounds = 100 in
    let k = Core.Round_based.recommended_k ~rounds:window ~steps_per_round:1 in
    List.iter
      (fun (k, fallback) ->
        for seed = 1 to 25 do
          let config =
            Programs.Round_based.config ~n ~rounds_before_fallback:fallback ~max_rounds ~k
          in
          let rng = Rng.of_int seed in
          let t =
            Runtime.create ~trace_level:Trace.History config (Runtime.Gen (Rng.split rng))
          in
          completes ~max_steps:10_000_000 t (Adversary.Schedulers.uniform rng)
        done)
      [ (k, window); (1, 0) ]
  in
  [
    ( "ABD^2 Monte-Carlo, 500 trials", 25.3, 37.0,
      mc ~trials:500 ~seed:1 (fun () -> Programs.Weakener.abd_k_config ~k:2) );
    ( "E1 atomic Monte-Carlo, 2,000 trials", 58.1, 87.0,
      mc ~trials:2_000 ~seed:101 Programs.Weakener.atomic_config );
    ("E8 eager ABD^k runs", 23.8, 35.0, eager_abd_k);
    ("E9 round-based runs", 28.9, 43.0, round_based);
  ]

let test_words_per_step () =
  let steps = Obs.Metrics.counter "sim.steps" in
  let over =
    List.filter_map
      (fun (name, measured, bound, run) ->
        let s0 = Obs.Metrics.counter_value steps in
        let w0 = Gc.minor_words () in
        run ();
        let words = Gc.minor_words () -. w0 in
        let per = words /. float_of_int (Obs.Metrics.counter_value steps - s0) in
        if per <= bound then None
        else
          Some
            (Fmt.str "%s: %.1f words per step (at most %g, measured %g)" name per
               bound measured))
      alloc_workloads
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* [server_state] reads each replica of an ABD object: after a run that
   delivers every message eagerly, all three servers hold the last
   write's [Pair (v, ts)], and process i writes the value i. Objects
   without a server role, and unknown names, read [None]. *)
let test_server_state () =
  let abd = Objects.Abd.make ~name:"X" ~n:3 ~init:Value.none in
  let reg = Objects.Atomic_register.make ~name:"Y" ~init:Value.none in
  let program ~self =
    let* _ = Obj_impl.call abd ~self ~tag:"w" ~meth:"write" ~arg:(Value.int self) in
    let* _ = Obj_impl.call reg ~self ~tag:"y" ~meth:"write" ~arg:(Value.int self) in
    Proc.return ()
  in
  let config =
    { Runtime.n = 3; objects = [ abd; reg ]; program; max_crashes = 0 }
  in
  let t = Runtime.create config (Runtime.Gen (Rng.of_int 3)) in
  (match Runtime.run t ~max_steps:10_000 Adversary.Schedulers.eager_delivery with
  | Runtime.Completed -> ()
  | _ -> Alcotest.fail "ABD run did not complete");
  let states = List.init 3 (fun proc -> Runtime.server_state t ~obj_name:"X" ~proc) in
  (match states with
  | Some (Value.Pair (v, (Value.Pair (Value.Int _, Value.Int w) as ts))) :: _ ->
      Alcotest.check value "the writer's value" (Value.int w) v;
      List.iter
        (fun s -> Alcotest.(check (option value)) "every server" (Some (Value.pair v ts)) s)
        states
  | _ -> Alcotest.fail "server 0 holds no Pair (v, ts)");
  Alcotest.(check (option value)) "atomic register has no server" None
    (Runtime.server_state t ~obj_name:"Y" ~proc:0);
  Alcotest.(check (option value)) "unknown object" None
    (Runtime.server_state t ~obj_name:"Z" ~proc:0)

let value_roundtrip () =
  Alcotest.check value "none/some" (Value.some (Value.int 3)) (Value.some (Value.int 3));
  Alcotest.(check (option value)) "to_option none" None (Value.to_option Value.none);
  Alcotest.(check (option value))
    "to_option some" (Some (Value.int 3))
    (Value.to_option (Value.some (Value.int 3)))

let tests =
  [
    Alcotest.test_case "trivial program completes" `Quick test_trivial_completes;
    Alcotest.test_case "replay determinism" `Quick test_determinism_same_schedule;
    Alcotest.test_case "mailbox is FIFO" `Quick test_mailbox_fifo;
    Alcotest.test_case "recv blocks without message" `Quick test_recv_blocks;
    Alcotest.test_case "register discipline enforced" `Quick test_register_discipline;
    Alcotest.test_case "tape randomness" `Quick test_tape_randomness;
    Alcotest.test_case "tape exhaustion raises" `Quick test_tape_exhaustion;
    Alcotest.test_case "crash event" `Quick test_crash_event;
    Alcotest.test_case "histories are well-formed" `Quick test_history_well_formed;
    Alcotest.test_case "outcome extraction" `Quick test_outcome_extraction;
    Alcotest.test_case "trace History level" `Quick test_trace_history_level;
    Alcotest.test_case "value option roundtrip" `Quick value_roundtrip;
    Alcotest.test_case "scheduling decisions pinned" `Quick test_decisions_pinned;
    Alcotest.test_case "sim: words per step bounded" `Quick test_words_per_step;
    Alcotest.test_case "server_state reads ABD replicas" `Quick test_server_state;
    Alcotest.test_case "enabled positions match the observers" `Quick test_enabled_positions;
    Alcotest.test_case "unknown objects fail at send" `Quick test_unknown_object;
    Alcotest.test_case "counters match a completed run" `Quick test_counters_completed_run;
    Alcotest.test_case "counters match a run cut by Tape_exhausted" `Quick
      test_counters_tape_exhausted;
    Alcotest.test_case "counters match single steps" `Quick test_counters_single_steps;
    Alcotest.test_case "Monte-Carlo tallies pinned at 1 and 4 jobs" `Quick
      test_mc_tallies_pinned;
    Alcotest.test_case "message state pinned" `Quick test_message_state_pinned;
    Alcotest.test_case "receive cursor finds the oldest match" `Quick test_receive_cursor;
  ]
