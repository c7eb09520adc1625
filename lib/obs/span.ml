type span = { name : string; start_us : float; dur_us : float; gc : Gc_stats.delta }

let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6
let log : span list ref = ref []

let time ?observe name f =
  let gc0 = Gc_stats.sample () in
  let start_us = now_us () in
  let v = f () in
  let dur_us = now_us () -. start_us in
  let gc = Gc_stats.delta gc0 (Gc_stats.sample ()) in
  log := { name; start_us; dur_us; gc } :: !log;
  let seconds = dur_us /. 1e6 in
  (match observe with None -> () | Some h -> Metrics.observe h seconds);
  (v, seconds)

let spans () = List.rev !log

let chrome_events ?(pid = 0) ?(tid = 0) () =
  List.map
    (fun s ->
      Chrome_trace.event ~cat:"phase" ~pid ~tid ~name:s.name ~ts:s.start_us
        (Chrome_trace.Complete s.dur_us))
    (spans ())

let reset () = log := []
