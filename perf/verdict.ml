(* Judging a candidate set of runs against a baseline set.

   Each run contributes one value per metric, as perf.exe reported it. A
   metric is [Worse] when the candidate median is worse than the baseline
   median by more than the metric's bound and the runs are steady enough
   to say so; [Better] when the candidate wins at least nine in ten of
   all (baseline, candidate) run pairs and the medians differ by more
   than the baseline's interquartile distance; [Unresolved] when the
   run-to-run spread is wider than the bound, so neither "unchanged" nor
   "worse" can be claimed. Per-layer metrics have no bound: they get the
   pairwise rule in both directions and never fail a comparison. *)

type t = Better | Worse | Unchanged | Unresolved

let to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* The candidate's relative loss: positive means worse. *)
let worse_share ~better (a : Sample.summary) (b : Sample.summary) =
  if a.median = 0.0 then if b.median = a.median then 0.0 else infinity
  else
    let d = (b.median -. a.median) /. Float.abs a.median in
    match better with Spec.Lower -> d | Spec.Higher -> -.d

(* Share of (baseline, candidate) pairs the candidate wins and loses;
   ties count for neither. *)
let pair_shares ~better a b =
  let beats x y = match better with Spec.Lower -> y < x | Spec.Higher -> y > x in
  let wins = ref 0 and losses = ref 0 in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if beats x y then incr wins else if beats y x then incr losses)
        b)
    a;
  let pairs = float_of_int (List.length a * List.length b) in
  (float_of_int !wins /. pairs, float_of_int !losses /. pairs)

let judge ~better ?bound a b =
  let sa = Sample.summarize a and sb = Sample.summarize b in
  let wins, losses = pair_shares ~better a b in
  let clear = Float.abs (sb.median -. sa.median) > sa.q3 -. sa.q1 in
  let loss = worse_share ~better sa sb in
  match bound with
  | None ->
      if wins >= 0.9 && clear then Better
      else if losses >= 0.9 && clear then Worse
      else Unchanged
  | Some bound ->
      let spread = Float.max (Sample.spread sa) (Sample.spread sb) in
      if loss > bound then
        if spread <= bound || losses >= 0.9 then Worse else Unresolved
      else if wins >= 0.9 && clear then Better
      else if spread > bound then Unresolved
      else Unchanged

type row = {
  workload : string;
  traced : bool;
  metric : string;
  unit_ : string;
  bound : float option;
  a : Sample.summary;
  b : Sample.summary;
  verdict : t;
}

(* Documents must come from comparable hosts: the same CPU count and
   the same compiler. *)
let check_fingerprints (docs : Results.t list) =
  match docs with
  | [] -> Error "no results documents"
  | d :: rest -> (
      let f = d.Results.fingerprint in
      let differs (o : Results.t) =
        o.fingerprint.nproc <> f.nproc || o.fingerprint.ocaml <> f.ocaml
      in
      match List.find_opt differs rest with
      | None -> Ok ()
      | Some o ->
          Error
            (Printf.sprintf
               "refusing to compare: nproc %d / OCaml %s (%s) vs nproc %d / \
                OCaml %s (%s)"
               f.nproc f.ocaml d.workload o.fingerprint.nproc o.fingerprint.ocaml
               o.workload))

let values (docs : Results.t list) ~workload ~traced name =
  List.filter_map
    (fun (d : Results.t) ->
      if d.workload = workload && d.traced = traced then
        List.find_map
          (fun (m : Results.metric) ->
            if m.name = name then Some m.value else None)
          d.metrics
      else None)
    docs

(* One row per (workload, traced, metric) present on both sides, sorted
   by that key. Traced runs report per-layer metrics, which carry no
   bound. *)
let rows spec ~(baseline : Results.t list) ~(candidate : Results.t list) =
  let keys =
    List.concat_map
      (fun (d : Results.t) ->
        List.map
          (fun (m : Results.metric) -> (d.workload, d.traced, m.name, m.unit_))
          d.metrics)
      baseline
    |> List.sort_uniq compare
  in
  List.filter_map
    (fun (workload, traced, name, unit_) ->
      let a = values baseline ~workload ~traced name in
      let b = values candidate ~workload ~traced name in
      if a = [] || b = [] then None
      else
        let better, bound =
          match Spec.find spec name with
          | Some m -> (m.better, if traced then None else m.bound)
          | None -> (Spec.Lower, None)
        in
        Some
          {
            workload;
            traced;
            metric = name;
            unit_;
            bound;
            a = Sample.summarize a;
            b = Sample.summarize b;
            verdict = judge ~better ?bound a b;
          })
    keys

let regressions rows =
  List.filter (fun r -> r.bound <> None && r.verdict = Worse) rows
