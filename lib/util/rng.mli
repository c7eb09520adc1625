(** Deterministic splittable pseudo-random generator (splitmix64).

    The simulator never touches OCaml's global [Random] state: every source of
    randomness is an explicit [Rng.t] so that executions are reproducible from
    a seed and independent streams can be split off for parallel experiments. *)

type t

(** [create seed] builds a generator from a 64-bit seed. *)
val create : int64 -> t

(** [of_int seed] is [create (Int64.of_int seed)]. *)
val of_int : int -> t

(** [copy t] is an independent generator with the same future output. *)
val copy : t -> t

(** [split t] returns a fresh generator whose stream is statistically
    independent from the remainder of [t]'s. Splitting advances [t], so
    sequentially split streams depend on the split order — for
    order-independent derivation use {!stream}. *)
val split : t -> t

(** [stream ~seed ~index] is an independent generator derived purely from
    the [(seed, index)] pair: the same stream results whatever order (or
    domain) the streams are created in. This is what makes Monte-Carlo
    trials embarrassingly parallel with bit-identical merged tallies —
    trial [i] draws from [stream ~seed ~index:i] instead of the [i]-th
    split of a sequentially-consumed master generator. Requires
    [index >= 0]. *)
val stream : seed:int -> index:int -> t

(** [bits64 t] draws 64 uniformly random bits. *)
val bits64 : t -> int64

(** [int t n] draws uniformly from [0 .. n-1] by rejection sampling (no
    modulo bias: residues are exactly equiprobable even when [n] does not
    divide the generator's 2^62 range). Raises [Invalid_argument] when
    [n <= 0]. *)
val int : t -> int -> int

(** [bool t] draws a fair boolean. *)
val bool : t -> bool

(** [float t] draws uniformly from [0, 1). *)
val float : t -> float

(** [index t n] is [int t n], read as a position: the index {!pick}
    draws for an [n]-element list, with the same stream. At [n = 1] it
    still consumes one draw (and returns 0), so the stream advances as
    for larger ranges. *)
val index : t -> int -> int

(** [pick t xs] draws a uniformly random element of the non-empty list:
    [List.nth xs (index t (List.length xs))], so it walks the list about
    one and a half times and allocates nothing. *)
val pick : t -> 'a list -> 'a

(** [shuffle t xs] is a uniformly random permutation of [xs]. *)
val shuffle : t -> 'a list -> 'a list
