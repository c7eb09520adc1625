(* Tests for the per-domain tracing ring: enable gating, record/dump
   accounting, wrap-around drops, the dump JSON round-trip, the Chrome
   trace export/parse round-trip over a multi-domain dump (lane
   assignment, per-lane timestamp order), the trace analyzer on synthetic
   dumps, a live traced solve that fits a small ring, and captures whose
   runtime events sit on the ring's clock and report what they lose. *)

(* Every test starts from a clean slate and leaves tracing disabled: the
   suite shares one process with the fuzz and par tests, which also
   record when tracing is on. *)
let with_tracing f =
  Obs.Ring.reset ();
  Obs.Ring.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Ring.set_enabled false;
      Obs.Ring.reset ())
    f

let test_disabled_is_noop () =
  Obs.Ring.reset ();
  Obs.Ring.set_enabled false;
  Obs.Ring.record Obs.Ring.Pool_task_start 1 0;
  Obs.Ring.record Obs.Ring.Store_spill 42 1;
  let d = Obs.Ring.dump () in
  Alcotest.(check int) "nothing recorded" 0 (List.length d.Obs.Ring.domains);
  Alcotest.(check bool) "flag reads false" false (Obs.Ring.enabled ())

let test_record_dump_accounting () =
  with_tracing @@ fun () ->
  Obs.Ring.record Obs.Ring.Pool_task_start 11 1;
  Obs.Ring.record Obs.Ring.Store_spill 11 2;
  Obs.Ring.record Obs.Ring.Pool_task_stop 4 2;
  Obs.Ring.set_enabled false;
  let d = Obs.Ring.dump () in
  match d.domains with
  | [ dd ] ->
      Alcotest.(check int) "recording domain id" (Domain.self () :> int) dd.domain;
      Alcotest.(check int) "recorded" 3 dd.recorded;
      Alcotest.(check int) "dropped" 0 dd.dropped;
      Alcotest.(check (list string))
        "tags in record order"
        [ "pool_task_start"; "store_spill"; "pool_task_stop" ]
        (List.map (fun (e : Obs.Ring.event) -> Obs.Ring.tag_name e.tag) dd.events);
      Alcotest.(check (list int))
        "payload a preserved" [ 11; 11; 4 ]
        (List.map (fun (e : Obs.Ring.event) -> e.a) dd.events);
      let ts = List.map (fun (e : Obs.Ring.event) -> e.ts_us) dd.events in
      Alcotest.(check bool) "timestamps monotone" true (List.sort compare ts = ts)
  | ds -> Alcotest.failf "expected 1 domain dump, got %d" (List.length ds)

(* A domain keeps its DLS ring across [reset] — its events must show up
   in dumps taken after the reset (the ring re-registers on record). *)
let test_survives_reset () =
  with_tracing @@ fun () ->
  Obs.Ring.record Obs.Ring.Pool_idle_start 1 0;
  Obs.Ring.reset ();
  Obs.Ring.record Obs.Ring.Store_spill 2 0;
  let d = Obs.Ring.dump () in
  match d.domains with
  | [ dd ] ->
      Alcotest.(check int) "only the post-reset event" 1 dd.recorded;
      Alcotest.(check (list string))
        "pre-reset event gone" [ "store_spill" ]
        (List.map (fun (e : Obs.Ring.event) -> Obs.Ring.tag_name e.tag) dd.events)
  | ds -> Alcotest.failf "expected 1 domain dump, got %d" (List.length ds)

(* Wrap-around: [set_capacity] only sizes rings created after the call,
   so record from a freshly spawned domain (fresh DLS slot => fresh
   ring) rather than this one, whose ring already exists. *)
let test_wrap_drops_oldest () =
  Obs.Ring.reset ();
  Obs.Ring.set_capacity 1024;
  Obs.Ring.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Ring.set_enabled false;
      Obs.Ring.set_capacity 65536;
      Obs.Ring.reset ())
  @@ fun () ->
  let total = 1500 in
  let did =
    Domain.join
      (Domain.spawn (fun () ->
           for i = 1 to total do
             Obs.Ring.record Obs.Ring.Store_spill i 0
           done;
           (Domain.self () :> int)))
  in
  let d = Obs.Ring.dump () in
  Alcotest.(check int) "capacity rounded as requested" 1024 d.capacity;
  match List.find_opt (fun (dd : Obs.Ring.domain_dump) -> dd.domain = did) d.domains with
  | None -> Alcotest.fail "spawned domain's ring missing from dump"
  | Some dd ->
      Alcotest.(check int) "recorded counts every event" total dd.recorded;
      Alcotest.(check int) "dropped = overflow" (total - 1024) dd.dropped;
      Alcotest.(check int) "retained = capacity" 1024 (List.length dd.events);
      let a_of (e : Obs.Ring.event) = e.a in
      Alcotest.(check int)
        "oldest retained event survives"
        (total - 1024 + 1)
        (a_of (List.hd dd.events));
      Alcotest.(check int)
        "newest event is last" total
        (a_of (List.nth dd.events (List.length dd.events - 1)))

let test_json_round_trip () =
  with_tracing @@ fun () ->
  Obs.Ring.record Obs.Ring.Store_spill 7 1;
  Obs.Ring.record Obs.Ring.Pool_task_start 3 2;
  Obs.Ring.set_enabled false;
  let d = Obs.Ring.dump () in
  match Obs.Ring.of_json (Obs.Ring.to_json d) with
  | Error e -> Alcotest.failf "dump did not parse back: %s" e
  | Ok d' ->
      (* the JSON printer's %.17g float repr makes this exact *)
      Alcotest.(check bool) "parsed dump equals original" true (d = d')

(* Satellite: multi-domain Chrome export -> parse round-trip. Two domains
   record slices and instants; the exported trace must keep every event,
   put each domain's events on its own lane (tid = domain id, pid 0) and
   keep timestamps non-decreasing within each lane. *)
let test_chrome_round_trip_two_domains () =
  with_tracing @@ fun () ->
  Obs.Ring.record Obs.Ring.Pool_task_start 0 10;
  Obs.Ring.record Obs.Ring.Store_spill 42 2;
  Obs.Ring.record Obs.Ring.Pool_task_stop 0 10;
  let other =
    Domain.join
      (Domain.spawn (fun () ->
           Obs.Ring.record Obs.Ring.Pool_idle_start 0 0;
           Obs.Ring.record Obs.Ring.Pool_idle_stop 0 0;
           Obs.Ring.record Obs.Ring.Store_spill 3 0;
           (Domain.self () :> int)))
  in
  Obs.Ring.set_enabled false;
  let d = Obs.Ring.dump () in
  Alcotest.(check int) "two domains recorded" 2 (List.length d.domains);
  let events = Obs.Ring.chrome_events d in
  match Obs.Chrome_trace.of_json (Obs.Chrome_trace.to_json events) with
  | Error e -> Alcotest.failf "chrome trace did not parse back: %s" e
  | Ok events' ->
      Alcotest.(check int)
        "every event survives the round-trip" (List.length events)
        (List.length events');
      Alcotest.(check bool) "round-trip preserves events" true (events = events');
      let is_meta (e : Obs.Chrome_trace.event) = e.phase = Obs.Chrome_trace.Metadata in
      let app =
        List.filter (fun (e : Obs.Chrome_trace.event) -> e.pid = 0 && not (is_meta e)) events'
      in
      let lanes = List.sort_uniq compare (List.map (fun (e : Obs.Chrome_trace.event) -> e.tid) app) in
      let domains =
        List.sort compare (List.map (fun (dd : Obs.Ring.domain_dump) -> dd.domain) d.domains)
      in
      Alcotest.(check (list int)) "one lane per recording domain" domains lanes;
      Alcotest.(check bool) "spawned domain has its own lane" true (List.mem other lanes);
      (* per-domain event counts carry over to the lanes *)
      List.iter
        (fun (dd : Obs.Ring.domain_dump) ->
          let on_lane =
            List.filter (fun (e : Obs.Chrome_trace.event) -> e.tid = dd.domain) app
          in
          Alcotest.(check int)
            (Fmt.str "lane %d event count" dd.domain)
            (List.length dd.events) (List.length on_lane);
          let ts = List.map (fun (e : Obs.Chrome_trace.event) -> e.ts) on_lane in
          Alcotest.(check bool)
            (Fmt.str "lane %d timestamps non-decreasing" dd.domain)
            true
            (List.sort compare ts = ts))
        d.domains

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* The analyzer over a hand-built dump: a busy domain that spills, an
   idle domain, known busy/idle windows. *)
let test_analyze_synthetic_dump () =
  let ev tag a b ts_us = { Obs.Ring.tag; a; b; ts_us } in
  let d0 =
    {
      Obs.Ring.domain = 0;
      recorded = 4;
      dropped = 0;
      events =
        [
          ev Obs.Ring.Pool_task_start 0 4 0.0;
          ev Obs.Ring.Store_spill 40 4096 20.0;
          ev Obs.Ring.Store_spill 20 2048 30.0;
          ev Obs.Ring.Pool_task_stop 0 4 100.0;
        ];
    }
  in
  let d1 =
    {
      Obs.Ring.domain = 1;
      recorded = 2;
      dropped = 0;
      events =
        [
          ev Obs.Ring.Pool_idle_start 0 0 0.0;
          ev Obs.Ring.Pool_idle_stop 0 0 50.0;
        ];
    }
  in
  let dump = { Obs.Ring.capacity = 1024; domains = [ d0; d1 ]; runtime = [] } in
  let t = Obs.Trace_analysis.analyze ~buckets:4 dump in
  (match
     List.find_opt
       (fun (r : Obs.Trace_analysis.domain_report) -> r.domain = 0)
       t.domains
   with
  | Some r ->
      Alcotest.(check int) "d0 spill runs" 2 r.spills;
      Alcotest.(check int) "d0 spill bytes" 6144 r.spill_bytes;
      Alcotest.(check (float 1e-9)) "d0 busy time" 100.0 r.busy_us;
      Alcotest.(check (float 1e-9)) "d0 utilization" 1.0 r.utilization
  | None -> Alcotest.fail "domain 0 missing from report");
  (match
     List.find_opt
       (fun (r : Obs.Trace_analysis.domain_report) -> r.domain = 1)
       t.domains
   with
  | Some r ->
      Alcotest.(check (float 1e-9)) "d1 idle time" 50.0 r.idle_us;
      Alcotest.(check (float 1e-9)) "d1 never busy" 0.0 r.busy_us
  | None -> Alcotest.fail "domain 1 missing from report");
  (* the report renders and exports without tripping over the synthetic data *)
  let rendered = Fmt.str "%a" Obs.Trace_analysis.pp t in
  Alcotest.(check bool) "report sums the spill runs" true
    (contains ~affix:"2 spill runs (6144 B)" rendered);
  match Obs.Trace_analysis.to_json t with
  | Obs.Json.Obj _ -> ()
  | _ -> Alcotest.fail "to_json is not an object"

(* ---- edge cases: the analyzer and parser on degenerate inputs -------- *)

(* An empty dump (no domain ever recorded) must analyze to a report with
   all-zero aggregates, and render/export without raising. *)
let test_analyze_empty_dump () =
  let dump = { Obs.Ring.capacity = 1024; domains = []; runtime = [] } in
  let t = Obs.Trace_analysis.analyze ~buckets:4 dump in
  Alcotest.(check int) "no domains" 0 (List.length t.domains);
  ignore (Fmt.str "%a" Obs.Trace_analysis.pp t);
  match Obs.Trace_analysis.to_json t with
  | Obs.Json.Obj _ -> ()
  | _ -> Alcotest.fail "to_json is not an object"

(* With tracing disabled the live dump is empty, and that dump feeds the
   analyzer cleanly — the path a user hits running `trace analyze` on a
   run that never enabled --trace-out. *)
let test_analyze_disabled_tracing () =
  Obs.Ring.reset ();
  Obs.Ring.set_enabled false;
  Obs.Ring.record Obs.Ring.Store_spill 1 1;
  let d = Obs.Ring.dump () in
  Alcotest.(check int) "nothing recorded while disabled" 0
    (List.length d.domains);
  let t = Obs.Trace_analysis.analyze ~buckets:4 d in
  Alcotest.(check int) "empty report" 0 (List.length t.domains)

(* Single-domain dump: per-domain counts and utilization compute without
   a second domain to compare against. *)
let test_analyze_single_domain () =
  let ev tag a b ts_us = { Obs.Ring.tag; a; b; ts_us } in
  let d0 =
    {
      Obs.Ring.domain = 0;
      recorded = 4;
      dropped = 0;
      events =
        [
          ev Obs.Ring.Pool_task_start 0 2 0.0;
          ev Obs.Ring.Store_spill 7 1 5.0;
          ev Obs.Ring.Store_spill 7 2 10.0;
          ev Obs.Ring.Pool_task_stop 0 2 20.0;
        ];
    }
  in
  let dump = { Obs.Ring.capacity = 1024; domains = [ d0 ]; runtime = [] } in
  let t = Obs.Trace_analysis.analyze ~buckets:4 dump in
  match t.domains with
  | [ r ] ->
      Alcotest.(check int) "both spill runs counted" 2 r.spills;
      Alcotest.(check int) "spill bytes summed" 3 r.spill_bytes;
      Alcotest.(check (float 1e-9)) "busy time" 20.0 r.busy_us
  | ds -> Alcotest.failf "expected 1 domain report, got %d" (List.length ds)

(* Compatibility both ways: a dump written by a newer ring with an extra
   event tag, or by an older one with a retired tag (wire code 8 held
   queue-depth samples, codes 9-12 simulator steps and adversary
   decisions, code 17 work-stealing steals, code 20 allocation samples),
   must parse — the unknown event is skipped, not an error. *)
let skips_code code =
  with_tracing @@ fun () ->
  Obs.Ring.record Obs.Ring.Store_spill 7 1;
  Obs.Ring.set_enabled false;
  let j = Obs.Ring.to_json (Obs.Ring.dump ()) in
  let unknown = Obs.Json.List [ Obs.Json.Int code; Obs.Json.Int 1; Obs.Json.Int 2; Obs.Json.Float 3.0 ] in
  let j =
    match j with
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "domains", Obs.Json.List [ Obs.Json.Obj dd ] ->
                   ( k,
                     Obs.Json.List
                       [
                         Obs.Json.Obj
                           (List.map
                              (fun (dk, dv) ->
                                match (dk, dv) with
                                | "events", Obs.Json.List evs ->
                                    (dk, Obs.Json.List (evs @ [ unknown ]))
                                | _ -> (dk, dv))
                              dd);
                       ] )
               | _ -> (k, v))
             kvs)
    | _ -> Alcotest.fail "dump JSON is not an object"
  in
  match Obs.Ring.of_json j with
  | Error e -> Alcotest.failf "tag code %d made the parse fail: %s" code e
  | Ok d -> (
      match d.domains with
      | [ dd ] ->
          Alcotest.(check (list string))
            "known event kept, unknown skipped" [ "store_spill" ]
            (List.map
               (fun (e : Obs.Ring.event) -> Obs.Ring.tag_name e.tag)
               dd.events)
      | ds -> Alcotest.failf "expected 1 domain, got %d" (List.length ds))

let test_of_json_skips_unknown_tag () =
  List.iter skips_code [ 99; 20; 17; 8; 9; 10; 11; 12 ]

(* ---- a live traced solve --------------------------------------------- *)

module Va = Mdp.Solver.Make (Model.Weakener_va.Game)

(* With memo probes kept out of the ring, a 1024-slot ring holds a whole
   traced solve of VA^3 (15,172 states): a budgeted solve (1 byte,
   clamped to the store's 64 KiB floor, so it spills) drops nothing and
   its spill events match the store's exact run count. [set_capacity]
   only sizes rings created after the call, so the solve runs on a
   freshly spawned domain. A traced sequential Monte-Carlo run of the ABD
   weakener records nothing at all: simulator steps and adversary
   decisions are not timeline events. The same run on a 2-job pool
   leaves its fresh worker domain's ring whole, with its task slices
   intact. *)
let test_live_traced_solve () =
  Obs.Ring.reset ();
  Obs.Ring.set_capacity 1024;
  Obs.Ring.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Ring.set_enabled false;
      Obs.Ring.set_capacity 65536;
      Obs.Ring.reset ();
      Va.reset ())
  @@ fun () ->
  let init = Model.Weakener_va.init ~k:3 in
  let sum f (t : Obs.Trace_analysis.t) =
    List.fold_left (fun a r -> a + f r) 0 t.domains
  in
  let run_mc ?pool () =
    Adversary.Monte_carlo.estimate ?pool ~trials:300 ~seed:11
      ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
      Programs.Weakener.abd_config
  in
  let mc = run_mc () in
  Alcotest.(check int) "every Monte-Carlo trial ran" 300 mc.trials;
  Alcotest.(check int) "a traced Monte-Carlo run records nothing" 0
    (List.length (Obs.Ring.dump ()).domains);
  Va.reset ();
  ignore (Domain.join (Domain.spawn (fun () -> Va.value ~memo_budget:1 init)));
  let runs =
    match Va.store_stats () with
    | Some s -> s.Store.Memo.spill_runs
    | None -> Alcotest.fail "the budgeted solve armed no store"
  in
  Alcotest.(check bool) "the budgeted solve spilled" true (runs > 0);
  let t = Obs.Trace_analysis.analyze (Obs.Ring.dump ()) in
  Alcotest.(check int) "budgeted solve drops nothing" 0
    (sum (fun r -> r.dropped) t);
  Alcotest.(check int) "trace spills = store spill_runs" runs
    (sum (fun r -> r.spills) t);
  Obs.Ring.reset ();
  let workers =
    Par.Pool.with_pool ~jobs:2 (fun pool ->
        ignore (run_mc ~pool ());
        Par.Pool.domain_ids pool)
  in
  let t = Obs.Trace_analysis.analyze (Obs.Ring.dump ()) in
  List.iter
    (fun (r : Obs.Trace_analysis.domain_report) ->
      Alcotest.(check int) (Fmt.str "domain %d drops nothing" r.domain) 0
        r.dropped)
    t.domains;
  List.iter
    (fun id ->
      match
        List.find_opt
          (fun (r : Obs.Trace_analysis.domain_report) -> r.domain = id)
          t.domains
      with
      | None -> Alcotest.failf "worker domain %d not traced" id
      | Some r ->
          Alcotest.(check bool)
            (Fmt.str "worker domain %d busy" id)
            true (r.busy_us > 0.0))
    workers

(* ---- capture and the runtime-event clock ---------------------------- *)

let with_capture f =
  let path = Filename.temp_file "ring-capture" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Obs.Ring.reset ())
    (fun () -> f path)

(* Runtime events share the ring's clock: [start_runtime_events]
   calibrates the runtime's clock once, so every GC and lifecycle event of
   a captured 2-job Monte-Carlo run lies between the clock reads that
   bracket the capture, and the minor collections that stop the workers
   fall inside their task slices. [slack_us] covers the two clock sources (the
   runtime's monotonic clock, [Span]'s wall clock) drifting apart by a
   few ppm; an offset taken at dump time is off by the whole solve. *)
let test_runtime_events_on_ring_clock () =
  with_capture @@ fun path ->
  let slack_us = 50.0 in
  let mc ?pool () =
    Adversary.Monte_carlo.estimate ?pool ~trials:400 ~seed:5
      ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Weakener.bad
      Programs.Weakener.abd_config
  in
  let t_start = Obs.Span.now_us () in
  let r, d =
    Obs.Ring.capture path (fun () ->
        Par.Pool.with_pool ~jobs:2 (fun pool -> mc ~pool ()))
  in
  let t_dump = Obs.Span.now_us () in
  Alcotest.(check bool) "capture leaves recording off" false (Obs.Ring.enabled ());
  Alcotest.(check bool) "tallies as the sequential run" true (r = mc ());
  (match Obs.Ring.load_file path with
  | Ok d' -> Alcotest.(check bool) "the written dump loads back" true (d = d')
  | Error e -> Alcotest.failf "capture wrote an unloadable dump: %s" e);
  let rt =
    List.concat_map (fun (dd : Obs.Ring.domain_dump) -> dd.events) d.runtime
  in
  Alcotest.(check bool) "runtime events captured" true (rt <> []);
  List.iter
    (fun (e : Obs.Ring.event) ->
      if e.ts_us < t_start -. slack_us || e.ts_us > t_dump +. slack_us then
        Alcotest.failf "%s at %.1f us lies outside the capture [%.1f, %.1f]"
          (Obs.Ring.tag_name e.tag) e.ts_us t_start t_dump)
    rt;
  let slices =
    List.concat_map
      (fun (dd : Obs.Ring.domain_dump) ->
        let _, acc =
          List.fold_left
            (fun (opened, acc) (e : Obs.Ring.event) ->
              match (e.tag, opened) with
              | Obs.Ring.Pool_task_start, _ -> (Some e.ts_us, acc)
              | Obs.Ring.Pool_task_stop, Some lo -> (None, (lo, e.ts_us) :: acc)
              | _ -> (opened, acc))
            (None, []) dd.events
        in
        acc)
      d.domains
  in
  Alcotest.(check bool) "the workers ran task slices" true (slices <> []);
  let in_slice (e : Obs.Ring.event) =
    e.tag = Obs.Ring.Gc_minor && e.a = 0
    && List.exists (fun (lo, hi) -> lo <= e.ts_us && e.ts_us <= hi) slices
  in
  Alcotest.(check bool) "a minor GC falls inside a pool task slice" true
    (List.exists in_slice rt)

(* The runtime overwrites events no poll has read yet; its lane reports
   them as dropped. 50,000 forced minor collections overrun the
   per-domain runtime ring between capture start and dump. *)
let test_runtime_lane_reports_lost_events () =
  with_capture @@ fun path ->
  let (), d =
    Obs.Ring.capture path (fun () ->
        for _ = 1 to 50_000 do
          Gc.minor ()
        done)
  in
  let lost =
    List.fold_left (fun n (dd : Obs.Ring.domain_dump) -> n + dd.dropped) 0 d.runtime
  in
  Alcotest.(check bool) "the runtime lane counts lost events" true (lost > 0);
  let t = Obs.Trace_analysis.analyze d in
  Alcotest.(check int) "the analysis reports them" lost t.runtime_dropped

let tests =
  [
    Alcotest.test_case "disabled record is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "record/dump accounting" `Quick test_record_dump_accounting;
    Alcotest.test_case "ring survives reset" `Quick test_survives_reset;
    Alcotest.test_case "wrap drops oldest events" `Quick test_wrap_drops_oldest;
    Alcotest.test_case "dump JSON round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "chrome round-trip, two domains" `Quick
      test_chrome_round_trip_two_domains;
    Alcotest.test_case "analyzer on synthetic dump" `Quick test_analyze_synthetic_dump;
    Alcotest.test_case "analyzer on empty dump" `Quick test_analyze_empty_dump;
    Alcotest.test_case "analyzer with tracing disabled" `Quick
      test_analyze_disabled_tracing;
    Alcotest.test_case "analyzer on single-domain dump" `Quick
      test_analyze_single_domain;
    Alcotest.test_case "of_json skips unknown event tags" `Quick
      test_of_json_skips_unknown_tag;
    Alcotest.test_case "live traced solve fits a 1024-slot ring" `Quick
      test_live_traced_solve;
    Alcotest.test_case "runtime events share the ring clock" `Quick
      test_runtime_events_on_ring_clock;
    Alcotest.test_case "runtime lanes report lost events" `Quick
      test_runtime_lane_reports_lost_events;
  ]
