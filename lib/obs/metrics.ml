type hist = {
  bounds : float array;  (* increasing upper bounds, +inf excluded *)
  counts : int array;  (* length bounds + 1; last = overflow bucket *)
  mutable sum : float;
  mutable count : int;
  mutable vmin : float;
  mutable vmax : float;
}

type metric =
  | Counter of int Atomic.t
  | Gauge of float ref
  | Hist of hist

(* Counters are bumped from every domain (parallel Monte-Carlo trials
   step the simulator on pool workers); gauges and histograms are
   written by the calling domain only. *)
type counter = int Atomic.t
type gauge = float ref
type histogram = hist

type entry = { metric : metric; help : string }

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let counter ?(help = "") name =
  match Hashtbl.find_opt registry name with
  | Some { metric = Counter c; _ } -> c
  | Some { metric; _ } ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %S already registered as a %s" name
           (kind_name metric))
  | None ->
      let c = Atomic.make 0 in
      Hashtbl.replace registry name { metric = Counter c; help };
      c

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

let gauge ?(help = "") name =
  match Hashtbl.find_opt registry name with
  | Some { metric = Gauge g; _ } -> g
  | Some { metric; _ } ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %S already registered as a %s" name
           (kind_name metric))
  | None ->
      let g = ref 0.0 in
      Hashtbl.replace registry name { metric = Gauge g; help };
      g

let set_gauge g v = g := v
let max_gauge g v = if v > !g then g := v
let gauge_value g = !g

let default_buckets =
  (* a 1-2-5 progression spanning microseconds to ~10M steps *)
  let rec go acc m =
    if m > 1e7 then List.rev acc else go ((5.0 *. m) :: (2.0 *. m) :: m :: acc) (m *. 10.0)
  in
  go [] 1e-6

let histogram ?(buckets = default_buckets) ?(help = "") name =
  match Hashtbl.find_opt registry name with
  | Some { metric = Hist h; _ } -> h
  | Some { metric; _ } ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %S already registered as a %s" name
           (kind_name metric))
  | None ->
      let bounds = Array.of_list buckets in
      Array.sort Float.compare bounds;
      let h =
        {
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          sum = 0.0;
          count = 0;
          vmin = Float.nan;
          vmax = Float.nan;
        }
      in
      Hashtbl.replace registry name { metric = Hist h; help };
      h

let observe h v =
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1;
  if Float.is_nan h.vmin || v < h.vmin then h.vmin <- v;
  if Float.is_nan h.vmax || v > h.vmax then h.vmax <- v

type histogram_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  buckets : (float * int) list;
}

(* Prometheus-style interpolation: walk the per-bucket counts to the bucket
   holding rank [q * count], then interpolate linearly inside it. Bucket
   edges are the configured bounds, tightened by the observed min/max (the
   first bucket has no lower bound, the overflow bucket no upper one). *)
let percentile (h : hist) q =
  if h.count = 0 then Float.nan
  else if h.count = 1 then
    (* every percentile of a single observation is that observation; skip
       the bucket interpolation, which would otherwise only land here via
       the closing min/max clamp *)
    h.vmin
  else begin
    let target = q *. float_of_int h.count in
    let nbuckets = Array.length h.counts in
    let rec find i below =
      let upto = below + h.counts.(i) in
      if float_of_int upto >= target || i = nbuckets - 1 then (i, below, upto)
      else find (i + 1) upto
    in
    let i, below, upto = find 0 0 in
    let lo = if i = 0 then h.vmin else Float.max h.bounds.(i - 1) h.vmin in
    let hi = if i < Array.length h.bounds then Float.min h.bounds.(i) h.vmax else h.vmax in
    let v =
      if upto = below || hi <= lo then hi
      else
        lo
        +. (hi -. lo)
           *. ((target -. float_of_int below) /. float_of_int (upto - below))
    in
    Float.min (Float.max v h.vmin) h.vmax
  end

let histogram_summary h =
  (* only non-empty buckets are reported: (upper bound, cumulative count)
     pairs where the cumulative count increased *)
  let cumulative = ref 0 in
  let buckets = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        cumulative := !cumulative + c;
        let le =
          if i < Array.length h.bounds then h.bounds.(i) else Float.infinity
        in
        buckets := (le, !cumulative) :: !buckets
      end)
    h.counts;
  {
    count = h.count;
    sum = h.sum;
    min = h.vmin;
    max = h.vmax;
    p50 = percentile h 0.50;
    p90 = percentile h 0.90;
    p99 = percentile h 0.99;
    buckets = List.rev !buckets;
  }

let find_counter name =
  match Hashtbl.find_opt registry name with
  | Some { metric = Counter c; _ } -> Some (Atomic.get c)
  | _ -> None

let sorted_entries () =
  Hashtbl.fold (fun name e acc -> (name, e) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () =
  List.filter_map
    (function
      | name, { metric = Counter c; _ } -> Some (name, Atomic.get c)
      | _ -> None)
    (sorted_entries ())

let snapshot () =
  let entries = sorted_entries () in
  let counters =
    List.filter_map
      (function
        | name, { metric = Counter c; _ } -> Some (name, Json.Int (Atomic.get c))
        | _ -> None)
      entries
  in
  let gauges =
    List.filter_map
      (function
        | name, { metric = Gauge g; _ } -> Some (name, Json.Float !g) | _ -> None)
      entries
  in
  let histograms =
    List.filter_map
      (function
        | name, { metric = Hist h; _ } ->
            let s = histogram_summary h in
            let num v = if s.count = 0 then Json.Null else Json.Float v in
            Some
              ( name,
                Json.Obj
                  [
                    ("count", Json.Int s.count);
                    ("sum", Json.Float s.sum);
                    ("min", num s.min);
                    ("max", num s.max);
                    ("p50", num s.p50);
                    ("p90", num s.p90);
                    ("p99", num s.p99);
                    ( "buckets",
                      Json.List
                        (List.map
                           (fun (le, c) ->
                             Json.Obj
                               [
                                 ( "le",
                                   if Float.is_finite le then Json.Float le
                                   else Json.String "+inf" );
                                 ("count", Json.Int c);
                               ])
                           s.buckets) );
                  ] )
        | _ -> None)
      entries
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms);
    ]

let reset () =
  Hashtbl.iter
    (fun _ { metric; _ } ->
      match metric with
      | Counter c -> Atomic.set c 0
      | Gauge g -> g := 0.0
      | Hist h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.sum <- 0.0;
          h.count <- 0;
          h.vmin <- Float.nan;
          h.vmax <- Float.nan)
    registry

let pp ppf () =
  let entries = sorted_entries () in
  let width =
    List.fold_left (fun acc (n, _) -> Stdlib.max acc (String.length n)) 0 entries
  in
  let pad n = n ^ String.make (width - String.length n) ' ' in
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (name, { metric; _ }) ->
      match metric with
      | Counter c -> Fmt.pf ppf "%s  %d@," (pad name) (Atomic.get c)
      | Gauge g -> Fmt.pf ppf "%s  %g@," (pad name) !g
      | Hist h ->
          if h.count = 0 then Fmt.pf ppf "%s  (no observations)@," (pad name)
          else
            Fmt.pf ppf
              "%s  count=%d sum=%g min=%g max=%g mean=%g p50=%g p90=%g p99=%g@,"
              (pad name) h.count h.sum h.vmin h.vmax
              (h.sum /. float_of_int h.count)
              (percentile h 0.50) (percentile h 0.90) (percentile h 0.99))
    entries;
  Fmt.pf ppf "@]"
