type expect = Fail | Pass

type t = {
  seed : int;
  iter : int;
  oracle : string;
  case : Case.t option;
  schedule : int array;
  expect : expect;
  detail : string;
}

let version = 1

let expect_to_string = function Fail -> "fail" | Pass -> "pass"

let expect_of_string = function
  | "fail" -> Ok Fail
  | "pass" -> Ok Pass
  | s -> Error (Fmt.str "corpus: unknown expectation %S" s)

let to_json t =
  let open Obs.Json in
  Obj
    [
      ("blunting_fuzz_corpus", Int version);
      ("seed", Int t.seed);
      ("iter", Int t.iter);
      ("oracle", String t.oracle);
      ( "case",
        match t.case with None -> Null | Some case -> Case.to_json case );
      ("schedule", List (Array.to_list (Array.map (fun c -> Int c) t.schedule)));
      ("expect", String (expect_to_string t.expect));
      ("detail", String t.detail);
    ]

let of_json j =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let int key err =
    match Option.bind (member key j) to_int_opt with
    | Some i -> Ok i
    | None -> Error err
  in
  let str key err =
    match Option.bind (member key j) to_string_opt with
    | Some s -> Ok s
    | None -> Error err
  in
  let* v = int "blunting_fuzz_corpus" "corpus: missing version marker" in
  if v <> version then Error (Fmt.str "corpus: unsupported version %d" v)
  else
    let* seed = int "seed" "corpus: missing seed" in
    let* iter = int "iter" "corpus: missing iter" in
    let* oracle = str "oracle" "corpus: missing oracle" in
    let* case =
      match member "case" j with
      | None | Some Null -> Ok None
      | Some cj -> Result.map Option.some (Case.of_json cj)
    in
    let* schedule =
      match Option.bind (member "schedule" j) to_list_opt with
      | None -> Error "corpus: missing schedule"
      | Some codes ->
          let ints = List.filter_map to_int_opt codes in
          if List.length ints <> List.length codes then
            Error "corpus: non-integer schedule code"
          else Ok (Array.of_list ints)
    in
    let* expect =
      let* s = str "expect" "corpus: missing expect" in
      expect_of_string s
    in
    let* detail = str "detail" "corpus: missing detail" in
    Ok { seed; iter; oracle; case; schedule; expect; detail }

let filename t = Fmt.str "fuzz-%s-s%d-i%d.json" t.oracle t.seed t.iter

let write ~dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename t) in
  Obs.Json.write_file path (to_json t);
  path

let read path =
  Result.bind (Obs.Json.read_file path) (fun j ->
      Result.map_error (fun e -> path ^ ": " ^ e) (of_json j))

let pp ppf t =
  Fmt.pf ppf "%s oracle, seed %d, iter %d, %a, %d-step schedule, expect %s"
    t.oracle t.seed t.iter
    (Fmt.option ~none:(Fmt.any "no case") Case.pp)
    t.case (Array.length t.schedule)
    (expect_to_string t.expect)
