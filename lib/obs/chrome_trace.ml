type phase =
  | Begin
  | End
  | Complete of float
  | Instant
  | Metadata

type event = {
  name : string;
  cat : string;
  phase : phase;
  ts : float;
  pid : int;
  tid : int;
  args : (string * Json.t) list;
}

let event ?(cat = "blunting") ?(pid = 0) ?(tid = 0) ?(args = []) ~name ~ts phase =
  { name; cat; phase; ts; pid; tid; args }

let thread_name ~pid ~tid name =
  event ~cat:"__metadata" ~pid ~tid
    ~args:[ ("name", Json.String name) ]
    ~name:"thread_name" ~ts:0.0 Metadata

let process_name ~pid name =
  event ~cat:"__metadata" ~pid
    ~args:[ ("name", Json.String name) ]
    ~name:"process_name" ~ts:0.0 Metadata

let ph_string = function
  | Begin -> "B"
  | End -> "E"
  | Complete _ -> "X"
  | Instant -> "i"
  | Metadata -> "M"

let event_to_json e =
  let base =
    [
      ("name", Json.String e.name);
      ("cat", Json.String e.cat);
      ("ph", Json.String (ph_string e.phase));
      ("ts", Json.Float e.ts);
      ("pid", Json.Int e.pid);
      ("tid", Json.Int e.tid);
    ]
  in
  let dur = match e.phase with Complete d -> [ ("dur", Json.Float d) ] | _ -> [] in
  let scope = match e.phase with Instant -> [ ("s", Json.String "t") ] | _ -> [] in
  let args = match e.args with [] -> [] | kvs -> [ ("args", Json.Obj kvs) ] in
  Json.Obj (base @ dur @ scope @ args)

let to_json events =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_to_json events));
      ("displayTimeUnit", Json.String "ms");
    ]

let write_file path events = Json.write_file path (to_json events)

(* The inverse of [to_json], for round-trip tests and external tooling
   that post-processes exported traces. Only the phases [ph_string] emits
   are understood; anything else is a parse error, not a silent drop. *)
let of_json j =
  let ( let* ) = Result.bind in
  let event_of_json i e =
    let str name = Option.bind (Json.member name e) Json.to_string_opt in
    let num name = Option.bind (Json.member name e) Json.to_number_opt in
    let int name = Option.bind (Json.member name e) Json.to_int_opt in
    let need what = function
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "traceEvents[%d]: missing %s" i what)
    in
    let* name = need "name (string)" (str "name") in
    let* ph = need "ph (string)" (str "ph") in
    let* ts = need "ts (number)" (num "ts") in
    let* pid = need "pid (int)" (int "pid") in
    let* tid = need "tid (int)" (int "tid") in
    let* phase =
      match ph with
      | "B" -> Ok Begin
      | "E" -> Ok End
      | "X" -> (
          match num "dur" with
          | Some d -> Ok (Complete d)
          | None -> Error (Printf.sprintf "traceEvents[%d]: X without dur" i))
      | "i" -> Ok Instant
      | "M" -> Ok Metadata
      | ph -> Error (Printf.sprintf "traceEvents[%d]: unknown phase %S" i ph)
    in
    let cat = Option.value ~default:"" (str "cat") in
    let args =
      match Json.member "args" e with Some (Json.Obj kvs) -> kvs | _ -> []
    in
    Ok { name; cat; phase; ts; pid; tid; args }
  in
  match Json.member "traceEvents" j with
  | Some (Json.List l) ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest ->
            let* ev = event_of_json i e in
            go (i + 1) (ev :: acc) rest
      in
      go 0 [] l
  | _ -> Error "document lacks a traceEvents array"
