(** A minimal JSON tree, printer and parser.

    The repo deliberately carries no third-party JSON dependency; every
    machine-readable artifact (metrics snapshots, Chrome traces, bench
    results) goes through this module, and the parser exists so tests and
    the schema checker can round-trip what the printers emit. Numbers are
    split into [Int] and [Float] so counters serialize without a decimal
    point; the parser maps any number with a fraction or exponent to
    [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Printing} *)

(** [to_string t] is compact single-line JSON (RFC 8259 escaping; non-finite
    floats print as [null], which Chrome's trace viewer tolerates). *)
val to_string : t -> string

(** [pp] prints multi-line, two-space-indented JSON. *)
val pp : Format.formatter -> t -> unit

(** [write_file path t] writes [pp]-formatted JSON plus a trailing newline. *)
val write_file : string -> t -> unit

(** {1 Parsing} *)

(** [of_string s] parses one JSON value (surrounding whitespace allowed). *)
val of_string : string -> (t, string) result

(** [read_file path] reads the whole file and parses it with [of_string].
    Errors name the file: the [Sys_error] text when it cannot be read,
    ["PATH: "] and the parse error otherwise. *)
val read_file : string -> (t, string) result

(** {1 Accessors} *)

(** [member key t] is the value bound to [key] when [t] is an object. *)
val member : string -> t -> t option

(** [to_list_opt], [to_int_opt], ... are shape-checking projections. *)
val to_list_opt : t -> t list option

val to_int_opt : t -> int option
val to_float_opt : t -> float option

(** [to_number_opt] accepts both [Int] and [Float]. *)
val to_number_opt : t -> float option

val to_string_opt : t -> string option
