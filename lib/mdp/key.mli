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

(** {2 The memo form}

    The solver stores and probes keys in a packed form. Each byte of
    an encoded key carries little information: flags and option tags
    are [0]/[1] and the models' small ints are [v + 120] for [v] near
    0. So a key whose every byte lies in the 16-symbol alphabet
    [{0, 1, 119..132}] (flag bytes plus the ints [-1..12]) is stored as
    two 4-bit symbols per byte, about half its length.

    {b Layout.} A memo form is one tag byte, then:
    - tag [1] (even length) or [2] (odd length): the key's symbols, two
      per byte. The bytes [119..132] are the symbols [0..13], and [0]
      and [1] are [14] and [15]. Each full block of 16 key bytes becomes
      8 bytes, byte [j] holding key byte [j]'s symbol in its low nibble
      and key byte [j + 8]'s in its high one. The last [r < 16] key
      bytes become [ceil (r/2)] bytes the same way, with the first
      [ceil (r/2)] of them low and the rest high; when [r] is odd, the
      last high nibble is the pad symbol [14].
    - tag [0]: the key's bytes verbatim. Every key with a byte outside
      the alphabet takes this form: a wide-int escape ([255]), a field
      of 13 or more (the 5-replica ABD game reaches 16).

    {b Injectivity.} [unpack] inverts [pack]: the tag byte says which
    form follows. A raw form's key is the rest of the bytes. A packed
    form of [m] bytes holds a key of [n = 16 b + r] bytes with
    [m - 1 = 8 b + ceil (r/2)] and [r < 16]; for even [r] that is
    [b = (m - 1) / 8] and [r = 2 ((m - 1) mod 8)], for odd [r] it is
    [b = (m - 2) / 8] and [r = 2 (m - 1 - 8 b) - 1], so the tag and the
    length fix [b], [r] and the position of every symbol, and each
    symbol names exactly one byte. A function with a left inverse is
    injective, so distinct keys never pack equal; and since the form
    is a function of the key, equal keys always pack equal. The memo
    may therefore key on the memo form alone. A raw form is one byte
    longer than its key, so it must still fit the memo's length limit
    ({!Par.Memo_tbl.max_key_length}). *)

(** [pack src dst] overwrites [dst] with the memo form of [src]'s
    key: [1 + ceil (n / 2)] bytes for an [n]-byte key in the alphabet,
    [1 + n] otherwise. [src] is unchanged. It reads 16 key bytes a step
    as two unchecked 8-byte loads and numbers 8 bytes at once with word
    arithmetic, no table. *)
val pack : buf -> buf -> unit

(** [unpack p] is the key whose memo form is [p]: [unpack] of [pack]'s
    output is the input key. Raises [Invalid_argument] on a string no
    [pack] can produce from its tag and length. For tests and
    diagnostics; the solver never decodes a key. *)
val unpack : string -> string
