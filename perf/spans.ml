(* Benchmark-side spans. Each timed operation is aggregated in memory as
   a call count, total nanoseconds and (where asked) minor words; the
   first [sample_cap] calls and every rep are also kept as individual
   spans for a Chrome-trace export written once, at exit. The clock is
   bechamel's monotonic clock (CLOCK_MONOTONIC, in ns). *)

let now () = Int64.to_int (Monotonic_clock.now ())

type op = {
  name : string;
  mutable calls : int;
  mutable ns : int;
  mutable words : int;
}

let ops : op list ref = ref []

let op name =
  let o = { name; calls = 0; ns = 0; words = 0 } in
  ops := o :: !ops;
  o

let reset () =
  List.iter
    (fun o ->
      o.calls <- 0;
      o.ns <- 0;
      o.words <- 0)
    !ops

type event = { ev : string; start : int; dur : int }

let sample_cap = 4096
let sampled = ref 0
let events : event list ref = ref []

let stop_at o t0 t1 =
  o.calls <- o.calls + 1;
  o.ns <- o.ns + (t1 - t0);
  if !sampled < sample_cap then begin
    incr sampled;
    events := { ev = o.name; start = t0; dur = t1 - t0 } :: !events
  end

(* [stop o t0] closes a call of [o] opened at [t0 = now ()]. *)
let stop o t0 = stop_at o t0 (now ())

(* [stop_words o t0 t1 w] closes a call that ran from [t0] to [t1] and
   allocated [w] minor words. *)
let stop_words o t0 t1 w =
  stop_at o t0 t1;
  o.words <- o.words + w

(* [span name f] runs [f] as one always-recorded span; returns its
   result and duration in seconds. *)
let span name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  events := { ev = name; start = t0; dur = t1 - t0 } :: !events;
  (r, float_of_int (t1 - t0) /. 1e9)

let per_call o = if o.calls = 0 then 0.0 else float_of_int o.ns /. float_of_int o.calls

let write_chrome path =
  let origin = List.fold_left (fun m e -> min m e.start) max_int !events in
  let us ns = float_of_int ns /. 1e3 in
  Obs.Chrome_trace.write_file path
    (Obs.Chrome_trace.process_name ~pid:1 "perf.exe"
    :: List.rev_map
         (fun e ->
           Obs.Chrome_trace.event ~cat:"perf" ~pid:1 ~tid:1 ~name:e.ev
             ~ts:(us (e.start - origin))
             (Obs.Chrome_trace.Complete (us e.dur)))
         !events)
