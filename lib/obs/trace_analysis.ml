type domain_report = {
  domain : int;
  events : int;
  dropped : int;
  spills : int;
  spill_bytes : int;
  busy_us : float;
  idle_us : float;
  utilization : float;
}

type t = {
  t0_us : float;
  t1_us : float;
  domains : domain_report list;
  runtime_events : int;
  runtime_dropped : int;
  timeline_buckets : int;
  timeline : (int * float array) list;
}

(* Sum the durations of (start, stop) slice pairs among a domain's events,
   also feeding per-bucket busy time. Slices have no reason to nest, but a
   depth counter keeps a truncated ring (lost [start]) from going
   negative. *)
let slice_time ~t0 ~t1 ~buckets ~bucket_acc ~start_tag ~stop_tag events =
  let total = ref 0.0 in
  let depth = ref 0 in
  let opened = ref 0.0 in
  let span = Float.max (t1 -. t0) 1e-9 in
  let credit s e =
    total := !total +. (e -. s);
    match bucket_acc with
    | None -> ()
    | Some acc ->
        let w = span /. float_of_int buckets in
        for i = 0 to buckets - 1 do
          let blo = t0 +. (float_of_int i *. w) in
          let bhi = blo +. w in
          let o = Float.min e bhi -. Float.max s blo in
          if o > 0.0 then acc.(i) <- acc.(i) +. (o /. w)
        done
  in
  List.iter
    (fun (e : Ring.event) ->
      if e.tag = start_tag then begin
        if !depth = 0 then opened := e.ts_us;
        incr depth
      end
      else if e.tag = stop_tag && !depth > 0 then begin
        decr depth;
        if !depth = 0 then credit !opened e.ts_us
      end)
    events;
  if !depth > 0 then credit !opened t1;
  !total

let analyze ?(buckets = 20) (d : Ring.dump) =
  let all_events =
    List.concat_map (fun (dd : Ring.domain_dump) -> dd.events) (d.domains @ d.runtime)
  in
  let t0, t1 =
    List.fold_left
      (fun (lo, hi) (e : Ring.event) ->
        (Float.min lo e.ts_us, Float.max hi e.ts_us))
      (infinity, neg_infinity) all_events
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let t1 = if Float.is_finite t1 then t1 else 0.0 in
  let timeline = ref [] in
  let reports =
    List.map
      (fun (dd : Ring.domain_dump) ->
        let spills = ref 0 and spill_bytes = ref 0 in
        List.iter
          (fun (e : Ring.event) ->
            if e.tag = Ring.Store_spill then begin
              (* [a] = entries in the run, [b] = run bytes on disk *)
              incr spills;
              spill_bytes := !spill_bytes + e.b
            end)
          dd.events;
        let bucket_acc = Array.make buckets 0.0 in
        let busy_us =
          slice_time ~t0 ~t1 ~buckets ~bucket_acc:(Some bucket_acc)
            ~start_tag:Ring.Pool_task_start ~stop_tag:Ring.Pool_task_stop
            dd.events
        in
        let idle_us =
          slice_time ~t0 ~t1 ~buckets ~bucket_acc:None
            ~start_tag:Ring.Pool_idle_start ~stop_tag:Ring.Pool_idle_stop
            dd.events
        in
        if busy_us > 0.0 then timeline := (dd.domain, bucket_acc) :: !timeline;
        {
          domain = dd.domain;
          events = List.length dd.events;
          dropped = dd.dropped;
          spills = !spills;
          spill_bytes = !spill_bytes;
          busy_us;
          idle_us;
          utilization =
            (if busy_us > 0.0 && t1 > t0 then busy_us /. (t1 -. t0) else 0.0);
        })
      d.domains
  in
  {
    t0_us = t0;
    t1_us = t1;
    domains = reports;
    runtime_events =
      List.fold_left
        (fun n (dd : Ring.domain_dump) -> n + List.length dd.events)
        0 d.runtime;
    runtime_dropped =
      List.fold_left (fun n (dd : Ring.domain_dump) -> n + dd.dropped) 0 d.runtime;
    timeline_buckets = buckets;
    timeline = List.sort (fun (a, _) (b, _) -> compare a b) !timeline;
  }

(* ---- rendering ------------------------------------------------------- *)

let spark fractions =
  (* ten ASCII intensity levels, dense enough to eyeball idle domains *)
  let levels = " .:-=+*#%@" in
  String.init (Array.length fractions) (fun i ->
      let f = Float.min 1.0 (Float.max 0.0 fractions.(i)) in
      levels.[min 9 (int_of_float (f *. 10.0))])

let plural n ~one ~many = if n = 1 then one else many

let pp ppf t =
  let span_s = (t.t1_us -. t.t0_us) /. 1e6 in
  let sum f = List.fold_left (fun a d -> a + f d) 0 t.domains in
  let ndomains = List.length t.domains in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "trace: %d events on %d domain%s, %d dropped, span %.3fs@,"
    (sum (fun d -> d.events))
    ndomains
    (plural ndomains ~one:"" ~many:"s")
    (sum (fun d -> d.dropped))
    span_s;
  if t.runtime_events + t.runtime_dropped > 0 then
    Fmt.pf ppf "runtime: %d events, %d lost before they were read@,"
      t.runtime_events t.runtime_dropped;
  if t.domains <> [] then begin
    Fmt.pf ppf "@,%-8s %9s %9s %8s %8s %7s@," "domain" "events" "dropped"
      "busy(s)" "idle(s)" "util";
    List.iter
      (fun d ->
        Fmt.pf ppf "%-8d %9d %9d %8.3f %8.3f %6.1f%%@," d.domain d.events
          d.dropped (d.busy_us /. 1e6) (d.idle_us /. 1e6)
          (100.0 *. d.utilization))
      t.domains;
    let spills = sum (fun d -> d.spills) in
    if spills > 0 then
      Fmt.pf ppf "@,out-of-core store: %d spill run%s (%d B)@," spills
        (plural spills ~one:"" ~many:"s")
        (sum (fun d -> d.spill_bytes))
  end;
  if t.timeline <> [] then begin
    Fmt.pf ppf "@,utilization timeline (%d buckets of %.3fs):@,"
      t.timeline_buckets
      (span_s /. float_of_int t.timeline_buckets);
    List.iter
      (fun (d, fracs) -> Fmt.pf ppf "  domain %-3d |%s|@," d (spark fracs))
      t.timeline
  end;
  Fmt.pf ppf "@]"

let to_json t =
  let domain_json d =
    Json.Obj
      [
        ("domain", Json.Int d.domain);
        ("events", Json.Int d.events);
        ("dropped", Json.Int d.dropped);
        ("spills", Json.Int d.spills);
        ("spill_bytes", Json.Int d.spill_bytes);
        ("busy_us", Json.Float d.busy_us);
        ("idle_us", Json.Float d.idle_us);
        ("utilization", Json.Float d.utilization);
      ]
  in
  Json.Obj
    [
      ("t0_us", Json.Float t.t0_us);
       ("t1_us", Json.Float t.t1_us);
       ("domains", Json.List (List.map domain_json t.domains));
       ("runtime_events", Json.Int t.runtime_events);
       ("runtime_dropped", Json.Int t.runtime_dropped);
       ( "timeline",
         Json.Obj
           (List.map
              (fun (d, fracs) ->
                ( string_of_int d,
                  Json.List
                    (Array.to_list (Array.map (fun f -> Json.Float f) fracs)) ))
              t.timeline) );
    ]
