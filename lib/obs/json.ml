type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_string t =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        if Float.is_finite f then Buffer.add_string buf (float_repr f)
        else Buffer.add_string buf "null"
    | String s -> escape buf s
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          l;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            go v)
          kvs;
        Buffer.add_char buf '}'
  in
  go t;
  Buffer.contents buf

let pp_string ppf s =
  let buf = Buffer.create (String.length s + 2) in
  escape buf s;
  Format.pp_print_string ppf (Buffer.contents buf)

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_string ppf (if b then "true" else "false")
  | Int n -> Format.pp_print_int ppf n
  | Float f ->
      Format.pp_print_string ppf (if Float.is_finite f then float_repr f else "null")
  | String s -> pp_string ppf s
  | List [] -> Format.pp_print_string ppf "[]"
  | List l ->
      Format.fprintf ppf "@[<v 2>[@,%a@;<0 -2>]@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
           pp)
        l
  | Obj [] -> Format.pp_print_string ppf "{}"
  | Obj kvs ->
      let pp_kv ppf (k, v) = Format.fprintf ppf "@[<hov 2>%a:@ %a@]" pp_string k pp v in
      Format.fprintf ppf "@[<v 2>{@,%a@;<0 -2>}@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
           pp_kv)
        kvs

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      Format.fprintf ppf "%a@." pp t)

(* ---- parsing -------------------------------------------------------- *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let error c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None
let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.s then error c "truncated \\u escape";
            let hex = String.sub c.s c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error c "invalid \\u escape"
            in
            c.pos <- c.pos + 4;
            (* re-encode the code point as UTF-8 (surrogates are kept raw —
               the printers never emit them) *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> error c "invalid escape")
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch when is_num_char ch -> advance c; true | _ -> false do
    ()
  done;
  let lexeme = String.sub c.s start (c.pos - start) in
  if lexeme = "" then error c "expected number";
  let is_float =
    String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lexeme
  in
  if is_float then
    match float_of_string_opt lexeme with
    | Some f -> Float f
    | None -> error c "invalid number"
  else
    match int_of_string_opt lexeme with
    | Some n -> Int n
    | None -> (
        match float_of_string_opt lexeme with
        | Some f -> Float f
        | None -> error c "invalid number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string_body c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> error c "expected ',' or ']'"
        in
        List (items [])
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else
        let pair () =
          skip_ws c;
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec items acc =
          let kv = pair () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (kv :: acc)
          | Some '}' ->
              advance c;
              List.rev (kv :: acc)
          | _ -> error c "expected ',' or '}'"
        in
        Obj (items [])
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing garbage after JSON value"
      else Ok v
  | exception Parse_error msg -> Error msg

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string contents)

(* ---- accessors ------------------------------------------------------ *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
let to_int_opt = function Int n -> Some n | _ -> None
let to_float_opt = function Float f -> Some f | _ -> None

let to_number_opt = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
