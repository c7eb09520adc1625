(* One benchmark invocation's results: the one-line object printed last
   on standard output, and the fuller document written with [--out] that
   [compare.exe] consumes. *)

module Json = Obs.Json

let schema = "blunting-perf/1"

(* Where the numbers were taken. [compare.exe] refuses to compare
   documents whose [nproc] or [ocaml] differ. *)
type fingerprint = {
  nproc : int;
  domains : int;  (** [Domain.recommended_domain_count ()] *)
  ocaml : string;
  commit : string;
  seed : int;
  reps : int;
}

type metric = {
  name : string;
  unit_ : string;
  value : float;
  reps : Sample.summary option;  (** per-rep spread behind [value] *)
}

type t = {
  workload : string;
  size : string;
  traced : bool;
  fingerprint : fingerprint;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* nproc counts the CPUs this process may run on, as nproc(1) does. *)
let nproc () =
  let count_range r =
    match List.map int_of_string_opt (String.split_on_char '-' (String.trim r)) with
    | [ Some _ ] -> 1
    | [ Some a; Some b ] -> b - a + 1
    | _ -> 0
  in
  let from_status line =
    match String.index_opt line ':' with
    | Some i when String.sub line 0 i = "Cpus_allowed_list" ->
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        Some
          (List.fold_left ( + ) 0
             (List.map count_range (String.split_on_char ',' v)))
    | _ -> None
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s -> (
      match List.find_map from_status (String.split_on_char '\n' s) with
      | Some n when n > 0 -> n
      | _ -> Domain.recommended_domain_count ())
  | exception Sys_error _ -> Domain.recommended_domain_count ()

(* The commit being measured, or "unknown" outside a git checkout. *)
let git_commit () =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let r, w = Unix.pipe ~cloexec:true () in
  let spawned =
    try
      Some
        (Unix.create_process "git" [| "git"; "rev-parse"; "HEAD" |] Unix.stdin
           w null)
    with Unix.Unix_error _ -> None
  in
  Unix.close w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr r in
  let commit =
    match spawned with
    | None -> "unknown"
    | Some pid -> (
        let line = In_channel.input_line ic in
        match (snd (Unix.waitpid [] pid), line) with
        | Unix.WEXITED 0, Some c -> String.trim c
        | _ -> "unknown")
  in
  close_in ic;
  commit

let fingerprint ~commit ~seed ~reps =
  {
    nproc = nproc ();
    domains = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    commit;
    seed;
    reps;
  }

let summary_json (s : Sample.summary) =
  Json.Obj
    [
      ("n", Json.Int s.n);
      ("min", Json.Float s.min);
      ("q1", Json.Float s.q1);
      ("median", Json.Float s.median);
      ("q3", Json.Float s.q3);
      ("max", Json.Float s.max);
    ]

let metric_json ~full m =
  let base = [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ] in
  match (full, m.reps) with
  | true, Some s -> Json.Obj (base @ [ ("reps", summary_json s) ])
  | _ -> Json.Obj base

let metrics_json ~full t =
  Json.Obj (List.map (fun m -> (m.name, metric_json ~full m)) t.metrics)

(* The result line: exactly these four keys. *)
let line t =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool t.correct);
         ("attempted", Json.Int t.attempted);
         ("failed", Json.Int t.failed);
         ("metrics", metrics_json ~full:false t);
       ])

let to_json t =
  let f = t.fingerprint in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("workload", Json.String t.workload);
      ("size", Json.String t.size);
      ("trace", Json.Bool t.traced);
      ( "fingerprint",
        Json.Obj
          [
            ("nproc", Json.Int f.nproc);
            ("recommended_domain_count", Json.Int f.domains);
            ("ocaml", Json.String f.ocaml);
            ("commit", Json.String f.commit);
            ("seed", Json.Int f.seed);
            ("reps", Json.Int f.reps);
          ] );
      ("correct", Json.Bool t.correct);
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("metrics", metrics_json ~full:true t);
    ]

(* ---- reading --------------------------------------------------------- *)

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let to_bool = function Json.Bool b -> Some b | _ -> None
let to_obj = function Json.Obj kv -> Some kv | _ -> None

let summary_of_json j =
  let num k = field k Json.to_number_opt j in
  let* n = field "n" Json.to_int_opt j in
  let* min = num "min" in
  let* q1 = num "q1" in
  let* median = num "median" in
  let* q3 = num "q3" in
  let* max = num "max" in
  Ok { Sample.n; min; q1; median; q3; max }

let metric_of_json (name, j) =
  let* value = field "value" Json.to_number_opt j in
  let* unit_ = field "unit" Json.to_string_opt j in
  let* reps =
    match Json.member "reps" j with
    | None -> Ok None
    | Some s -> Result.map Option.some (summary_of_json s)
  in
  Ok { name; unit_; value; reps }

let rec all = function
  | [] -> Ok []
  | r :: rest ->
      let* x = r in
      let* xs = all rest in
      Ok (x :: xs)

let of_json j =
  let* s = field "schema" Json.to_string_opt j in
  if s <> schema then Error (Printf.sprintf "unknown schema %S" s)
  else
    let* workload = field "workload" Json.to_string_opt j in
    let* size = field "size" Json.to_string_opt j in
    let* traced = field "trace" to_bool j in
    let* fp = field "fingerprint" Option.some j in
    let* nproc = field "nproc" Json.to_int_opt fp in
    let* domains = field "recommended_domain_count" Json.to_int_opt fp in
    let* ocaml = field "ocaml" Json.to_string_opt fp in
    let* commit = field "commit" Json.to_string_opt fp in
    let* seed = field "seed" Json.to_int_opt fp in
    let* reps = field "reps" Json.to_int_opt fp in
    let* correct = field "correct" to_bool j in
    let* attempted = field "attempted" Json.to_int_opt j in
    let* failed = field "failed" Json.to_int_opt j in
    let* kv = field "metrics" to_obj j in
    let* metrics = all (List.map metric_of_json kv) in
    Ok
      {
        workload;
        size;
        traced;
        fingerprint = { nproc; domains; ocaml; commit; seed; reps };
        correct;
        attempted;
        failed;
        metrics;
      }

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
      match Json.of_string s with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok j -> Result.map_error (Printf.sprintf "%s: %s" path) (of_json j))

(* The result line read back from the last line of [text]. *)
let of_line text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  match List.rev lines with
  | [] -> Error "no output"
  | last :: _ ->
      let* j = Json.of_string last in
      let* correct = field "correct" to_bool j in
      let* attempted = field "attempted" Json.to_int_opt j in
      let* failed = field "failed" Json.to_int_opt j in
      let* kv = field "metrics" to_obj j in
      let* metrics = all (List.map metric_of_json kv) in
      Ok (correct, attempted, failed, metrics)
