type tag =
  | Pool_task_start
  | Pool_task_stop
  | Pool_idle_start
  | Pool_idle_stop
  | Gc_minor
  | Gc_major
  | Domain_spawn
  | Domain_stop
  | Store_spill

(* Wire codes are part of the dump format: append only, never renumber.
   Codes 0-3, 18, 19 and 22-24 belonged to retired per-probe memo events,
   code 8 to retired queue-depth samples, codes 9-12 to retired simulator
   steps and adversary decisions, code 17 to retired work-stealing steals
   and code 20 to retired allocation samples; they stay unassigned so old
   dumps still load (their events drop). *)
let tag_code = function
  | Pool_task_start -> 4
  | Pool_task_stop -> 5
  | Pool_idle_start -> 6
  | Pool_idle_stop -> 7
  | Gc_minor -> 13
  | Gc_major -> 14
  | Domain_spawn -> 15
  | Domain_stop -> 16
  | Store_spill -> 21

let all_tags =
  [
    Pool_task_start; Pool_task_stop; Pool_idle_start; Pool_idle_stop; Gc_minor;
    Gc_major; Domain_spawn; Domain_stop; Store_spill;
  ]

let tag_of_code c = List.find_opt (fun t -> tag_code t = c) all_tags

let tag_name = function
  | Pool_task_start -> "pool_task_start"
  | Pool_task_stop -> "pool_task_stop"
  | Pool_idle_start -> "pool_idle_start"
  | Pool_idle_stop -> "pool_idle_stop"
  | Gc_minor -> "gc_minor"
  | Gc_major -> "gc_major"
  | Domain_spawn -> "domain_spawn"
  | Domain_stop -> "domain_stop"
  | Store_spill -> "store_spill"

(* ---- per-domain rings ------------------------------------------------ *)

(* One event is 4 consecutive [data] slots — tag code, payload a, payload
   b, timestamp in integer µs — so a record touches one cache line
   instead of four parallel arrays. *)
type ring = {
  domain : int;
  mask : int;  (* capacity - 1; capacity is a power of two *)
  data : int array;  (* 4 * capacity slots *)
  mutable next : int;  (* total events ever recorded *)
  mutable registered : bool;  (* false after [reset] until the next record *)
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled v = Atomic.set enabled_flag v

let default_capacity = 65_536
let capacity_req = Atomic.make default_capacity

let round_pow2 n =
  let n = max n 1024 in
  let rec go c = if c >= n then c else go (c * 2) in
  go 1024

let set_capacity n = Atomic.set capacity_req (round_pow2 n)

(* Every ring ever created, protected by [registry_mutex]. The record path
   takes the lock only when a ring (re-)registers: once at DLS creation,
   and once after a [reset] dropped it from the registry — a live domain's
   ring stays reachable through its DLS slot across resets, so it must
   re-announce itself or its post-reset events would never appear in a
   dump. *)
let registry : ring list ref = ref []
let registry_mutex = Mutex.create ()

let register r =
  Mutex.lock registry_mutex;
  if not (List.memq r !registry) then registry := r :: !registry;
  r.registered <- true;
  Mutex.unlock registry_mutex

let make_ring () =
  let cap = Atomic.get capacity_req in
  let r =
    {
      domain = (Domain.self () :> int);
      mask = cap - 1;
      data = Array.make (4 * cap) 0;
      next = 0;
      registered = false;
    }
  in
  register r;
  r

let ring_key = Domain.DLS.new_key make_ring

let record tag a b =
  if Atomic.get enabled_flag then begin
    let r = Domain.DLS.get ring_key in
    if not r.registered then register r;
    let base = 4 * (r.next land r.mask) in
    r.data.(base) <- tag_code tag;
    r.data.(base + 1) <- a;
    r.data.(base + 2) <- b;
    r.data.(base + 3) <- int_of_float (Span.now_us ());
    r.next <- r.next + 1
  end

(* ---- runtime events -------------------------------------------------- *)

(* Runtime events arrive outside the ring discipline (they are drained in
   bulk from the runtime's own ring files), so they go to plain growable
   per-ring-id lanes, newest first, stamped on the runtime's clock in µs;
   [dump] maps them onto [Span.now_us]. [lost] counts the events the
   runtime overwrote before a poll read them. *)
type rt_event = { rt_tag : tag; rt_a : int; rt_raw_us : float }
type rt_lane = { mutable rt_events : rt_event list; mutable lost : int }

let rt_lanes : (int, rt_lane) Hashtbl.t = Hashtbl.create 8
let rt_cursor : Runtime_events.cursor option ref = ref None

(* Offset from the runtime's clock to [Span.now_us], fixed once per
   process by [start_runtime_events]; [reset] keeps it. *)
let rt_offset_us = ref 0.0

let rt_lane ring_id =
  match Hashtbl.find_opt rt_lanes ring_id with
  | Some l -> l
  | None ->
      let l = { rt_events = []; lost = 0 } in
      Hashtbl.replace rt_lanes ring_id l;
      l

let raw_us ts = Int64.to_float (Runtime_events.Timestamp.to_int64 ts) /. 1e3

let rt_add ring_id tag a ts =
  let l = rt_lane ring_id in
  l.rt_events <- { rt_tag = tag; rt_a = a; rt_raw_us = raw_us ts } :: l.rt_events

(* The clock calibration: one unit user event, written between two
   [Span.now_us] reads, so its runtime timestamp falls in that window. *)
type Runtime_events.User.tag += Clock_calibration

let calibration =
  lazy
    (Runtime_events.User.register "blunting.clock_calibration"
       Clock_calibration Runtime_events.Type.unit)

let calibration_raw_us : float option ref = ref None

let rt_callbacks =
  lazy
    (let phase_tag = function
       | Runtime_events.EV_MINOR -> Some Gc_minor
       | Runtime_events.EV_MAJOR -> Some Gc_major
       | _ -> None
     in
     let runtime_begin ring_id ts phase =
       match phase_tag phase with
       | Some t -> rt_add ring_id t 0 ts
       | None -> ()
     in
     let runtime_end ring_id ts phase =
       match phase_tag phase with
       | Some t -> rt_add ring_id t 1 ts
       | None -> ()
     in
     let lifecycle ring_id ts kind arg =
       match kind with
       | Runtime_events.EV_DOMAIN_SPAWN ->
           rt_add ring_id Domain_spawn (Option.value arg ~default:0) ts
       | Runtime_events.EV_DOMAIN_TERMINATE ->
           rt_add ring_id Domain_stop (Option.value arg ~default:0) ts
       | _ -> ()
     in
     let lost_events ring_id n =
       let l = rt_lane ring_id in
       l.lost <- l.lost + n
     in
     let user _ring_id ts ev () =
       match Runtime_events.User.tag ev with
       | Clock_calibration -> calibration_raw_us := Some (raw_us ts)
       | _ -> ()
     in
     Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lifecycle
       ~lost_events ()
     |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.unit user)

let poll cursor =
  try ignore (Runtime_events.read_poll cursor (Lazy.force rt_callbacks) None)
  with _ -> ()

let poll_runtime_events () = Option.iter poll !rt_cursor

let start_runtime_events () =
  match !rt_cursor with
  | Some _ -> Ok ()
  | None -> (
      try
        Runtime_events.start ();
        let cursor = Runtime_events.create_cursor None in
        let before = Span.now_us () in
        Runtime_events.User.write (Lazy.force calibration) ();
        let after = Span.now_us () in
        poll cursor;
        match !calibration_raw_us with
        | Some raw ->
            rt_offset_us := raw -. ((before +. after) /. 2.0);
            rt_cursor := Some cursor;
            Ok ()
        | None ->
            Runtime_events.free_cursor cursor;
            Error "the clock calibration event was not read back"
      with e -> Error (Printexc.to_string e))

(* ---- dumping --------------------------------------------------------- *)

type event = { tag : tag; a : int; b : int; ts_us : float }

type domain_dump = {
  domain : int;
  recorded : int;
  dropped : int;
  events : event list;
}

type dump = {
  capacity : int;
  domains : domain_dump list;
  runtime : domain_dump list;
}

let dump_ring r =
  let cap = r.mask + 1 in
  let retained = min r.next cap in
  let first = r.next - retained in
  let events = ref [] in
  for k = r.next - 1 downto first do
    let base = 4 * (k land r.mask) in
    match tag_of_code r.data.(base) with
    | Some tag ->
        events :=
          {
            tag;
            a = r.data.(base + 1);
            b = r.data.(base + 2);
            ts_us = float_of_int r.data.(base + 3);
          }
          :: !events
    | None -> ()
  done;
  {
    domain = r.domain;
    recorded = r.next;
    dropped = r.next - retained;
    events = !events;
  }

let dump () =
  let rings =
    Mutex.lock registry_mutex;
    let rs = !registry in
    Mutex.unlock registry_mutex;
    rs
  in
  poll_runtime_events ();
  let domains =
    List.filter (fun r -> r.next > 0) rings
    |> List.map dump_ring
    |> List.sort (fun a b -> compare a.domain b.domain)
  in
  let runtime =
    Hashtbl.fold
      (fun ring_id l acc ->
        let events =
          List.rev_map
            (fun e ->
              {
                tag = e.rt_tag;
                a = e.rt_a;
                b = 0;
                ts_us = e.rt_raw_us -. !rt_offset_us;
              })
            l.rt_events
        in
        let n = List.length events in
        if n = 0 && l.lost = 0 then acc
        else
          { domain = ring_id; recorded = n + l.lost; dropped = l.lost; events }
          :: acc)
      rt_lanes []
    |> List.sort (fun a b -> compare a.domain b.domain)
  in
  { capacity = Atomic.get capacity_req; domains; runtime }

let reset () =
  Mutex.lock registry_mutex;
  let rs = !registry in
  registry := [];
  Mutex.unlock registry_mutex;
  (* rings still reachable through a live domain's DLS are zeroed so a
     stale reference cannot resurrect pre-reset events, and marked
     unregistered so their next record re-announces them; rings of dead
     domains become garbage *)
  List.iter
    (fun r ->
      r.next <- 0;
      r.registered <- false)
    rs;
  (* pending runtime events predate the reset: drain them and drop them *)
  poll_runtime_events ();
  Hashtbl.reset rt_lanes

(* ---- JSON ------------------------------------------------------------ *)

let schema_id = "blunting-trace/1"

let event_to_json e =
  Json.List
    [ Json.Int (tag_code e.tag); Json.Int e.a; Json.Int e.b; Json.Float e.ts_us ]

let domain_dump_to_json d =
  Json.Obj
    [
      ("domain", Json.Int d.domain);
      ("recorded", Json.Int d.recorded);
      ("dropped", Json.Int d.dropped);
      ("events", Json.List (List.map event_to_json d.events));
    ]

let to_json d =
  Json.Obj
    [
      ("schema", Json.String schema_id);
      ( "tag_names",
        Json.Obj
          (List.map
             (fun t -> (string_of_int (tag_code t), Json.String (tag_name t)))
             all_tags) );
      ("capacity", Json.Int d.capacity);
      ("domains", Json.List (List.map domain_dump_to_json d.domains));
      ("runtime", Json.List (List.map domain_dump_to_json d.runtime));
    ]

let ( let* ) = Result.bind

let event_of_json = function
  | Json.List [ code; a; b; ts ] -> (
      match
        ( Json.to_int_opt code,
          Json.to_int_opt a,
          Json.to_int_opt b,
          Json.to_number_opt ts )
      with
      | Some code, Some a, Some b, Some ts_us ->
          (* unknown codes (from a newer writer) drop silently *)
          Ok (Option.map (fun tag -> { tag; a; b; ts_us }) (tag_of_code code))
      | _ -> Error "event cells must be [int, int, int, number]")
  | _ -> Error "event must be a 4-element array"

let domain_dump_of_json j =
  let int_field name =
    match Option.bind (Json.member name j) Json.to_int_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed %s (int)" name)
  in
  let* domain = int_field "domain" in
  let* recorded = int_field "recorded" in
  let* dropped = int_field "dropped" in
  let* raw =
    match Option.bind (Json.member "events" j) Json.to_list_opt with
    | Some l -> Ok l
    | None -> Error "missing events array"
  in
  let* events =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* e = event_of_json e in
        Ok (match e with Some e -> e :: acc | None -> acc))
      (Ok []) raw
  in
  Ok { domain; recorded; dropped; events = List.rev events }

let dump_list_of_json j name =
  match Option.bind (Json.member name j) Json.to_list_opt with
  | None -> Ok []
  | Some l ->
      List.fold_left
        (fun acc d ->
          let* acc = acc in
          let* d = domain_dump_of_json d in
          Ok (d :: acc))
        (Ok []) l
      |> Result.map List.rev

let of_json j =
  match Option.bind (Json.member "schema" j) Json.to_string_opt with
  | Some s when s = schema_id ->
      let capacity =
        Option.value ~default:default_capacity
          (Option.bind (Json.member "capacity" j) Json.to_int_opt)
      in
      let* domains = dump_list_of_json j "domains" in
      let* runtime = dump_list_of_json j "runtime" in
      Ok { capacity; domains; runtime }
  | Some s -> Error (Printf.sprintf "unsupported trace schema %S" s)
  | None -> Error "missing schema field (not a blunting trace dump?)"

let write_file path d = Json.write_file path (to_json d)

let load_file path =
  let* j = Json.read_file path in
  Result.map_error (fun e -> path ^ ": " ^ e) (of_json j)

let capture path f =
  (match start_runtime_events () with
  | Ok () -> ()
  | Error e -> Fmt.epr "trace: runtime events unavailable (%s)@." e);
  reset ();
  set_enabled true;
  let v = Fun.protect ~finally:(fun () -> set_enabled false) f in
  let d = dump () in
  write_file path d;
  (v, d)

(* ---- Chrome export --------------------------------------------------- *)

let app_pid = 0
let runtime_pid = 1

let chrome_domain_events ~pid d =
  let tid = d.domain in
  let ev = Chrome_trace.event ~pid ~tid in
  List.filter_map
    (fun e ->
      let instant name args =
        Some (ev ~cat:"trace" ~args ~name ~ts:e.ts_us Chrome_trace.Instant)
      in
      match e.tag with
      | Pool_task_start ->
          Some
            (ev ~cat:"pool"
               ~args:[ ("lo", Json.Int e.a); ("hi", Json.Int e.b) ]
               ~name:"task" ~ts:e.ts_us Chrome_trace.Begin)
      | Pool_task_stop ->
          Some (ev ~cat:"pool" ~name:"task" ~ts:e.ts_us Chrome_trace.End)
      | Pool_idle_start ->
          Some (ev ~cat:"pool" ~name:"idle" ~ts:e.ts_us Chrome_trace.Begin)
      | Pool_idle_stop ->
          Some (ev ~cat:"pool" ~name:"idle" ~ts:e.ts_us Chrome_trace.End)
      | Gc_minor | Gc_major ->
          let name = tag_name e.tag in
          Some
            (ev ~cat:"gc" ~name ~ts:e.ts_us
               (if e.a = 0 then Chrome_trace.Begin else Chrome_trace.End))
      | Store_spill ->
          instant "store_spill"
            [ ("entries", Json.Int e.a); ("bytes", Json.Int e.b) ]
      | Domain_spawn | Domain_stop ->
          instant (tag_name e.tag) [ ("domain", Json.Int e.a) ])
    d.events

let chrome_events d =
  let meta =
    Chrome_trace.process_name ~pid:app_pid "blunting"
    :: Chrome_trace.process_name ~pid:runtime_pid "ocaml-runtime"
    :: List.map
         (fun dd ->
           Chrome_trace.thread_name ~pid:app_pid ~tid:dd.domain
             (Printf.sprintf "domain %d" dd.domain))
         d.domains
    @ List.map
        (fun dd ->
          Chrome_trace.thread_name ~pid:runtime_pid ~tid:dd.domain
            (Printf.sprintf "runtime ring %d" dd.domain))
        d.runtime
  in
  meta
  @ List.concat_map (chrome_domain_events ~pid:app_pid) d.domains
  @ List.concat_map (chrome_domain_events ~pid:runtime_pid) d.runtime
