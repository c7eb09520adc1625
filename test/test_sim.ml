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
    enable_crashes = false;
    max_crashes = 0;
  }

let test_trivial_completes () =
  let t = Scheds.run_random (trivial_config ()) in
  Alcotest.(check bool) "finished" true (Runtime.finished t);
  let h = Runtime.history t in
  Alcotest.(check int) "six operations" 6 (List.length (History.Hist.ops h))

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
      enable_crashes = false;
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
      enable_crashes = false;
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
      enable_crashes = false;
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
      enable_crashes = false;
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
      enable_crashes = false;
      max_crashes = 0;
    }
  in
  let t = Runtime.create config (Runtime.Tape [||]) in
  Alcotest.check_raises "exhausted" Runtime.Tape_exhausted (fun () ->
      Runtime.step t (Runtime.Step 0))

let test_crash_event () =
  let config = { (trivial_config ()) with enable_crashes = true; max_crashes = 1 } in
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
      if config.enable_crashes && crashed < config.max_crashes then
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

(* Allocation guard, of the same form as memo_tbl's words-per-binding
   test: 500 ABD^2 weakener trials at History level (the Monte-Carlo
   path) must allocate at most 40 minor words per simulator step. *)
let test_words_per_step () =
  let steps = Obs.Metrics.counter "sim.steps" in
  let s0 = Obs.Metrics.counter_value steps in
  let w0 = Gc.minor_words () in
  let r =
    Adversary.Monte_carlo.estimate ~jobs:1 ~trials:500 ~seed:1
      ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
      (fun () -> Programs.Weakener.abd_k_config ~k:2)
  in
  let words = Gc.minor_words () -. w0 in
  let n = Obs.Metrics.counter_value steps - s0 in
  Alcotest.(check int) "all trials complete" 0 (r.Adversary.Monte_carlo.deadlocks + r.step_limited);
  let per = words /. float_of_int n in
  if per > 40.0 then Alcotest.failf "%.1f words per step (at most 40)" per

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
    { Runtime.n = 3; objects = [ abd; reg ]; program; enable_crashes = false;
      max_crashes = 0 }
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
    Alcotest.test_case "sim: at most 40 words per step" `Quick test_words_per_step;
    Alcotest.test_case "server_state reads ABD replicas" `Quick test_server_state;
    Alcotest.test_case "enabled positions match the observers" `Quick test_enabled_positions;
  ]
