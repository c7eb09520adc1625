let schema_version = 6

(* v5 documents (no out-of-core store telemetry) remain valid: the
   committed BENCH_*.json baselines are v5 and v6. v6 only adds an
   optional top-level "store" block, so the validator body is shared. *)
let accepted_versions = [ 5; 6 ]

type row = {
  quantity : string;
  paper : string;
  measured : string;
  paper_value : float option;
  measured_value : float option;
}

type section = {
  id : string;
  title : string;
  mutable rows : row list;  (* reversed *)
  mutable metrics : (string * Json.t) list;  (* reversed *)
}

type t = { generated_by : string; mutable sections : section list (* reversed *) }

let create ~generated_by () = { generated_by; sections = [] }

let section t ~id ~title =
  let s = { id; title; rows = []; metrics = [] } in
  t.sections <- s :: t.sections;
  s

let row section ?paper_value ?measured_value ~quantity ~paper ~measured () =
  section.rows <- { quantity; paper; measured; paper_value; measured_value } :: section.rows

let add_section_metrics section kvs = section.metrics <- List.rev_append kvs section.metrics

let row_to_json r =
  let opt name = function None -> [] | Some v -> [ (name, Json.Float v) ] in
  Json.Obj
    ([
       ("quantity", Json.String r.quantity);
       ("paper", Json.String r.paper);
       ("measured", Json.String r.measured);
     ]
    @ opt "paper_value" r.paper_value
    @ opt "measured_value" r.measured_value)

let section_to_json s =
  Json.Obj
    [
      ("id", Json.String s.id);
      ("title", Json.String s.title);
      ("rows", Json.List (List.rev_map row_to_json s.rows));
      ("metrics", Json.Obj (List.rev s.metrics));
    ]

let span_to_json (s : Span.span) =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("start_us", Json.Float s.start_us);
      ("dur_us", Json.Float s.dur_us);
      ("gc", Gc_stats.to_json s.gc);
    ]

(* v6: the out-of-core memo's telemetry, set by whoever ran a budgeted
   solve (this module cannot depend on the store library — the store
   records into [Ring], so the dependency runs the other way). Absent
   from purely in-RAM runs. *)
let store_block : Json.t option ref = ref None
let set_store_block j = store_block := Some j

let to_json t =
  Gc_stats.publish_gauges ();
  let store =
    match !store_block with Some s -> [ ("store", s) ] | None -> []
  in
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("generated_by", Json.String t.generated_by);
       ("generated_at_unix", Json.Float (Unix.time ()));
       ("experiments", Json.List (List.rev_map section_to_json t.sections));
       ("metrics", Metrics.snapshot ());
       ("spans", Json.List (List.map span_to_json (Span.spans ())));
     ]
    @ store)

let write t ~path = Json.write_file path (to_json t)

(* ---- validation ----------------------------------------------------- *)

let ( let* ) = Result.bind

let need what = function Some v -> Ok v | None -> Error ("missing or ill-typed " ^ what)

let field obj name = Json.member name obj

let check_string obj ~ctx name =
  let* _ =
    need
      (Printf.sprintf "%s.%s (string)" ctx name)
      (Option.bind (field obj name) Json.to_string_opt)
  in
  Ok ()

let check_number_opt obj ~ctx name =
  match field obj name with
  | None -> Ok ()
  (* [Null] is what the printers emit for non-finite floats (bare nan/inf
     would not be JSON); an absent measurement is as valid as a missing
     field. *)
  | Some Json.Null -> Ok ()
  | Some v -> (
      match Json.to_number_opt v with
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "%s.%s must be a number or null" ctx name))

let check_obj obj ~ctx name =
  match field obj name with
  | Some (Json.Obj _) -> Ok ()
  | _ -> Error (Printf.sprintf "%s.%s must be an object" ctx name)

let rec check_all = function
  | [] -> Ok ()
  | check :: rest ->
      let* () = check in
      check_all rest

let check_list obj ~ctx name check_item =
  let* items =
    need
      (Printf.sprintf "%s.%s (array)" ctx name)
      (Option.bind (field obj name) Json.to_list_opt)
  in
  check_all (List.mapi check_item items)

let validate_row ~ctx i r =
  let ctx = Printf.sprintf "%s.rows[%d]" ctx i in
  check_all
    [
      check_string r ~ctx "quantity";
      check_string r ~ctx "paper";
      check_string r ~ctx "measured";
      check_number_opt r ~ctx "paper_value";
      check_number_opt r ~ctx "measured_value";
    ]

let validate_experiment i e =
  let ctx = Printf.sprintf "experiments[%d]" i in
  check_all
    [
      check_string e ~ctx "id";
      check_string e ~ctx "title";
      check_list e ~ctx "rows" (validate_row ~ctx);
      check_obj e ~ctx "metrics";
    ]

let validate_metrics_snapshot j =
  check_all
    [
      check_obj j ~ctx:"metrics" "counters";
      check_obj j ~ctx:"metrics" "gauges";
      check_obj j ~ctx:"metrics" "histograms";
    ]

let validate_span i s =
  let ctx = Printf.sprintf "spans[%d]" i in
  check_all
    [
      check_string s ~ctx "name";
      (match Option.bind (field s "start_us") Json.to_number_opt with
      | Some _ -> Ok ()
      | None -> Error (ctx ^ ".start_us must be a number"));
      (match Option.bind (field s "dur_us") Json.to_number_opt with
      | Some _ -> Ok ()
      | None -> Error (ctx ^ ".dur_us must be a number"));
      (match field s "gc" with
      | None | Some (Json.Obj _) -> Ok ()
      | Some _ -> Error (ctx ^ ".gc must be an object"));
    ]

(* v6's optional block: the counters a spill gate asserts on
   must be numbers; extra fields stay legal for forward compatibility. *)
let validate_store j =
  match field j "store" with
  | None -> Ok ()
  | Some (Json.Obj _ as s) ->
      check_all
        (List.map
           (fun name ->
             match Option.bind (field s name) Json.to_number_opt with
             | Some _ -> Ok ()
             | None -> Error (Printf.sprintf "store.%s must be a number" name))
           [
             "budget_bytes"; "spilled_entries"; "spill_runs"; "bytes_spilled";
             "evictions"; "cache_hits"; "cache_misses"; "cache_hit_rate";
             "read_amplification"; "write_amplification"; "disk_hits";
           ])
  | Some _ -> Error "store must be an object"

let validate j =
  match j with
  | Json.Obj _ ->
      let* v =
        need "schema_version (int)"
          (Option.bind (field j "schema_version") Json.to_int_opt)
      in
      let* () =
        if List.mem v accepted_versions then Ok ()
        else
          Error
            (Printf.sprintf "unsupported schema_version %d (accept %s)" v
               (String.concat ", " (List.map string_of_int accepted_versions)))
      in
      let* () = check_string j ~ctx:"document" "generated_by" in
      let* () = check_list j ~ctx:"document" "experiments" validate_experiment in
      let* metrics = need "metrics (object)" (field j "metrics") in
      let* () = validate_metrics_snapshot metrics in
      let* () = check_list j ~ctx:"document" "spans" validate_span in
      let* () = validate_store j in
      Ok ()
  | _ -> Error "document must be a JSON object"
