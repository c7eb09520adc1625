(* The benchmark definition in BENCHMARK.json: workload names and, per
   metric, its unit, its direction and (end-to-end metrics only) the
   share of the baseline median by which it may worsen. *)

module Json = Obs.Json

type direction = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : direction;
  bound : float option;  (** [None] for per-layer metrics *)
}

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let ( let* ) = Result.bind

let str k j =
  Option.to_result ~none:(Printf.sprintf "missing string %S" k)
    (Option.bind (Json.member k j) Json.to_string_opt)

let list k j =
  Option.to_result ~none:(Printf.sprintf "missing list %S" k)
    (Option.bind (Json.member k j) Json.to_list_opt)

let metric ~bounded j =
  let* name = str "name" j in
  let* unit_ = str "unit" j in
  let* better =
    match str "better" j with
    | Ok "lower" -> Ok Lower
    | Ok "higher" -> Ok Higher
    | _ -> Error (Printf.sprintf "metric %s: better must be lower or higher" name)
  in
  let* bound =
    if not bounded then Ok None
    else
      match Option.bind (Json.member "bound" j) Json.to_number_opt with
      | Some b -> Ok (Some b)
      | None -> Error (Printf.sprintf "metric %s: missing bound" name)
  in
  Ok { name; unit_; better; bound }

let rec map_all f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_all f rest in
      Ok (y :: ys)

let of_json j =
  let* ws = list "workloads" j in
  let* workloads = map_all (str "name") ws in
  let* e2e = list "end_to_end" j in
  let* end_to_end = map_all (metric ~bounded:true) e2e in
  let* layer = list "per_layer" j in
  let* per_layer = map_all (metric ~bounded:false) layer in
  Ok { workloads; end_to_end; per_layer }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
      match Json.of_string s with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok j -> Result.map_error (Printf.sprintf "%s: %s" path) (of_json j))

let find t name =
  List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)
