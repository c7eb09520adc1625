(** Combinators for canonical state keys ({!Solver.GAME.encode}).

    The solver memoizes on the byte string produced by [encode], so an
    encoder must be injective on reachable states: equal states must
    produce equal keys and distinct states distinct keys. These
    combinators guarantee injectivity compositionally — every value is
    either self-delimiting (fixed-width or tagged) or length-prefixed —
    so an encoder that writes each field of the state exactly once, in a
    fixed order, is injective by construction.

    Keys are compact binary: small ints are one byte, so a typical model
    state of a few dozen fields keys in well under 100 bytes. This is the
    whole point — the memo table then hashes and compares flat strings
    instead of traversing deep algebraic states on every probe.

    Encoders write into a reusable {!buf} ({!Solver.GAME.encode_into}):
    the solver keeps one buffer per instance, [reset]s it before each
    probe, and hands the [(data, length)] slice straight to the memo
    table — a probe of an already-memoized state copies no key. [run]
    recovers the old string-returning behavior for cold paths. *)

(** A reusable byte buffer: an append cursor over a growable byte array.
    Not thread-safe — use one per domain. *)
type buf

(** [create ?size ()] allocates an empty buffer (default capacity 64). *)
val create : ?size:int -> unit -> buf

(** [reset b] rewinds the cursor to 0 without shrinking the backing
    array. The next encoder reuses the same bytes. *)
val reset : buf -> unit

(** [length b] is the number of bytes written since the last [reset]. *)
val length : buf -> int

(** [data b] is the backing array. Only the first [length b] bytes are
    meaningful, and they are valid only until the next [reset]/append —
    callers that keep the key must copy ([contents]). *)
val data : buf -> Bytes.t

(** [int b v] appends an integer: one byte for [-120 <= v <= 134]
    (every value this repo's models store), nine bytes otherwise. *)
val int : buf -> int -> unit

(** [bool b v] appends one byte. *)
val bool : buf -> bool -> unit

(** [option b f v] appends a presence byte, then [f] on the payload. *)
val option : buf -> (buf -> 'a -> unit) -> 'a option -> unit

(** [list b f xs] appends the length (so adjacent lists cannot blur into
    each other), then each element. *)
val list : buf -> (buf -> 'a -> unit) -> 'a list -> unit

(** [raw b s] appends the bytes of [s] verbatim. For states that already
    are a canonical string (the packed ABD game, test games, derived
    encoders) — the caller is responsible for injectivity of the
    composition. *)
val raw : buf -> string -> unit

(** [contents b] copies the written slice out as an owned string. *)
val contents : buf -> string

(** [run f] allocates a private buffer, runs the encoder, and returns
    the key as a string. Thread-safe: every call uses a fresh buffer, so
    [encode] may run concurrently on several domains. *)
val run : (buf -> unit) -> string
