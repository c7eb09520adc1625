(** Corpus files: replayable fuzz executions on disk.

    A corpus entry pins everything needed to reproduce one oracle verdict:
    the engine seed, the iteration index (both RNG streams derive from the
    pair), the generated {!Case.t}, the (shrunk) schedule of choice codes,
    which oracle to evaluate, and the expected verdict. Entries serialize
    as deterministic JSON ({!Obs.Json.pp} — same entry, byte-identical
    file), so replay determinism is testable by comparing file contents.

    Shrunk regression seeds live under [test/corpus/] and are replayed by
    the tier-1 test suite; the nightly fuzz workflow uploads fresh failing
    entries as CI artifacts. *)

type expect = Fail | Pass

type t = {
  seed : int;
  iter : int;
  oracle : string;  (** ["lin"], ["model"], ["dist"] or ["par"] *)
  case : Case.t option;  (** [None] for session oracles (dist/par) *)
  schedule : int array;  (** choice codes; empty for session oracles *)
  expect : expect;
  detail : string;  (** human-readable context (oracle diagnostic) *)
}

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result

(** [filename t] is the canonical basename,
    [fuzz-<oracle>-s<seed>-i<iter>.json]. *)
val filename : t -> string

(** [write ~dir t] writes the entry under [dir] (created if missing) at
    its canonical name and returns the path. *)
val write : dir:string -> t -> string

(** [read path] loads one entry; errors name the file. *)
val read : string -> (t, string) result
val pp : Format.formatter -> t -> unit
