type severity = Info | Warn | Fail

let severity_label = function Info -> "info" | Warn -> "WARN" | Fail -> "FAIL"
let severity_rank = function Fail -> 0 | Warn -> 1 | Info -> 2

type finding = {
  severity : severity;
  section : string option;
  subject : string;
  detail : string;
}

(* Every experiment here is deterministic: [abs_tol] (paper vs
   measured) absorbs only float printing noise, [rel_tol] (run vs
   baseline) a last-digit difference. *)
let abs_tol = 1e-6
let rel_tol = 1e-9

type report = {
  findings : finding list;
  sections_compared : int;
  rows_compared : int;
  metrics_compared : int;
}

let failures r = List.filter (fun f -> f.severity = Fail) r.findings
let exit_code r = if failures r = [] then 0 else 1

(* ---- helpers --------------------------------------------------------- *)

let ( let* ) = Result.bind

let rel_drift ~from ~to_ =
  if from = to_ then 0.0
  else abs_float (to_ -. from) /. Float.max (abs_float from) 1e-12

let pp_num ppf v =
  if Float.is_integer v && abs_float v < 1e15 then Fmt.pf ppf "%.0f" v
  else Fmt.pf ppf "%.6g" v

let number j = Json.to_number_opt j

let sections_of doc =
  match Json.member "experiments" doc with
  | Some (Json.List l) ->
      List.filter_map
        (fun s ->
          match Option.bind (Json.member "id" s) Json.to_string_opt with
          | Some id -> Some (id, s)
          | None -> None)
        l
  | _ -> []

let rows_of section =
  match Json.member "rows" section with
  | Some (Json.List l) ->
      List.filter_map
        (fun r ->
          match Option.bind (Json.member "quantity" r) Json.to_string_opt with
          | Some q -> Some (q, r)
          | None -> None)
        l
  | _ -> []

(* Section metrics, flattened one level so a nested "counters" object
   compares per leaf ("counters.sim.steps", ...). *)
let metrics_of section =
  match Json.member "metrics" section with
  | Some (Json.Obj kvs) ->
      List.concat_map
        (fun (k, v) ->
          match v with
          | Json.Obj sub ->
              List.filter_map
                (fun (k', v') ->
                  Option.map (fun n -> (k ^ "." ^ k', n)) (number v'))
                sub
          | v -> (
              match number v with Some n -> [ (k, n) ] | None -> []))
        kvs
  | _ -> []

(* ---- the comparison -------------------------------------------------- *)

let paper_findings ~section_id rows =
  List.filter_map
    (fun (quantity, r) ->
      match
        ( Option.bind (Json.member "paper_value" r) number,
          Option.bind (Json.member "measured_value" r) number )
      with
      | Some pv, Some mv
        when Float.is_finite pv && Float.is_finite mv
             && abs_float (mv -. pv) > abs_tol ->
          Some
            {
              severity = Fail;
              section = Some section_id;
              subject = quantity;
              detail =
                Fmt.str "measured %a drifted from paper %a (|Δ| = %.3g > tol %.3g)"
                  pp_num mv pp_num pv
                  (abs_float (mv -. pv))
                  abs_tol;
            }
      | _ -> None)
    rows

let drift_finding ~section ~subject ~from ~to_ =
  let d = rel_drift ~from ~to_ in
  if d > rel_tol then
    Some
      {
        severity = Fail;
        section;
        subject;
        detail =
          Fmt.str "%a -> %a (drift %.2f%% > tolerance %.2f%%)" pp_num from
            pp_num to_ (100.0 *. d)
            (100.0 *. rel_tol);
      }
  else None

let compare_rows ~section_id base cur =
  let compared = ref 0 in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  List.iter
    (fun (quantity, brow) ->
      match List.assoc_opt quantity cur with
      | None ->
          emit
            {
              severity = Warn;
              section = Some section_id;
              subject = quantity;
              detail = "row present in baseline but missing in current run";
            }
      | Some crow -> (
          incr compared;
          match
            ( Option.bind (Json.member "measured_value" brow) number,
              Option.bind (Json.member "measured_value" crow) number )
          with
          | Some from, Some to_ when Float.is_finite from && Float.is_finite to_
            -> (
              match
                drift_finding ~section:(Some section_id) ~subject:quantity
                  ~from ~to_
              with
              | Some f -> emit f
              | None -> ())
          | _ -> ()))
    base;
  List.iter
    (fun (quantity, _) ->
      if not (List.mem_assoc quantity base) then
        emit
          {
            severity = Info;
            section = Some section_id;
            subject = quantity;
            detail = "new row, absent from baseline";
          })
    cur;
  (!compared, List.rev !findings)

let compare_metrics ~section_id base cur =
  let compared = ref 0 in
  let findings =
    List.filter_map
      (fun (key, from) ->
        let subject = "metrics." ^ key in
        match List.assoc_opt key cur with
        | None ->
            Some
              {
                severity = Warn;
                section = Some section_id;
                subject;
                detail = "metric present in baseline but missing in current run";
              }
        | Some to_ when Float.is_finite from && Float.is_finite to_ ->
            incr compared;
            drift_finding ~section:(Some section_id) ~subject ~from ~to_
        | Some _ -> None)
      base
  in
  (!compared, findings)

let diff ~baseline ~current =
  let* () =
    Result.map_error (fun e -> "baseline: " ^ e) (Results.validate baseline)
  in
  let* () =
    Result.map_error (fun e -> "current: " ^ e) (Results.validate current)
  in
  let bsec = sections_of baseline and csec = sections_of current in
  let findings = ref [] in
  let add fs = findings := !findings @ fs in
  let sections = ref 0 and rows = ref 0 and metrics = ref 0 in
  (* the current document's own paper-vs-measured agreement: the hard gate *)
  List.iter
    (fun (id, s) -> add (paper_findings ~section_id:id (rows_of s)))
    csec;
  List.iter
    (fun (id, bs) ->
      match List.assoc_opt id csec with
      | None ->
          add
            [
              {
                severity = Warn;
                section = Some id;
                subject = "section";
                detail = "present in baseline, missing in current run (skipped)";
              };
            ]
      | Some cs ->
          incr sections;
          let n, fs = compare_rows ~section_id:id (rows_of bs) (rows_of cs) in
          rows := !rows + n;
          add fs;
          let n, fs =
            compare_metrics ~section_id:id (metrics_of bs) (metrics_of cs)
          in
          metrics := !metrics + n;
          add fs)
    bsec;
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id bsec) then
        add
          [
            {
              severity = Info;
              section = Some id;
              subject = "section";
              detail = "new section, absent from baseline";
            };
          ])
    csec;
  Ok
    {
      findings =
        List.stable_sort
          (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity))
          !findings;
      sections_compared = !sections;
      rows_compared = !rows;
      metrics_compared = !metrics;
    }

(* ---- rendering ------------------------------------------------------- *)

let pp_report ppf r =
  let count sev = List.length (List.filter (fun f -> f.severity = sev) r.findings) in
  Fmt.pf ppf
    "compared %d sections (%d rows, %d metrics): %d fail, %d warn, %d info@,"
    r.sections_compared r.rows_compared r.metrics_compared
    (count Fail) (count Warn) (count Info);
  if r.findings <> [] then begin
    let w_sev = 4 in
    let w_sec =
      List.fold_left
        (fun acc f ->
          max acc (String.length (Option.value ~default:"-" f.section)))
        3 r.findings
    in
    let w_sub =
      List.fold_left (fun acc f -> max acc (String.length f.subject)) 7 r.findings
    in
    let pad width s = s ^ String.make (max 0 (width - String.length s)) ' ' in
    Fmt.pf ppf "%s  %s  %s  %s@," (pad w_sev "sev") (pad w_sec "sec")
      (pad w_sub "subject") "detail";
    Fmt.pf ppf "%s  %s  %s  %s@,"
      (String.make w_sev '-') (String.make w_sec '-') (String.make w_sub '-')
      "------";
    List.iter
      (fun f ->
        Fmt.pf ppf "%s  %s  %s  %s@,"
          (pad w_sev (severity_label f.severity))
          (pad w_sec (Option.value ~default:"-" f.section))
          (pad w_sub f.subject) f.detail)
      r.findings
  end;
  if failures r = [] then Fmt.pf ppf "OK — no hard regressions"
  else Fmt.pf ppf "REGRESSION — %d hard failure(s)" (List.length (failures r))

(* ---- file plumbing --------------------------------------------------- *)

let run_files ~baseline ~current ppf =
  match Json.read_file baseline with
  | Error e -> Error e
  | Ok b -> (
      match Json.read_file current with
      | Error e -> Error e
      | Ok c -> (
          match diff ~baseline:b ~current:c with
          | Error e -> Error e
          | Ok report ->
              Fmt.pf ppf "%s -> %s@.@[<v>%a@]@." baseline current pp_report report;
              Ok (exit_code report)))
