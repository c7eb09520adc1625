(* The state lives unboxed in 8 bytes: a [mutable int64] field would
   box a fresh int64 on every draw. *)
type t = Bytes.t

(* splitmix64, Steele et al.; passes BigCrush and splits cleanly. *)
let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)
let copy = Bytes.copy

let bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  mix s

(* [bits64] with [mix] written out and the result cut to the low 62 bits:
   every intermediate stays unboxed, so a draw allocates nothing *)
let bits62 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  Int64.to_int z land max_int

let split t =
  let s = bits64 t in
  create (mix (Int64.logxor s 0xA3EC647659359ACDL))

let stream ~seed ~index =
  if index < 0 then invalid_arg "Rng.stream: index must be non-negative";
  (* one splitmix step over the seed, then a golden-ratio jump per index:
     distinct (seed, index) pairs land on well-separated states, and the
     derivation is a pure function of the pair — stream i can be built
     before, after, or concurrently with stream j *)
  let s = mix (Int64.add (Int64.of_int seed) golden) in
  create (mix (Int64.logxor s (Int64.mul golden (Int64.of_int (index + 1)))))

(* rejection sampling (same scheme as Stdlib.Random.int): draw 62
   uniform bits and retry in the top partial slice, so every residue is
   equally likely even when n does not divide 2^62 *)
let rec int_below t n =
  let v = bits62 t in
  let r = v mod n in
  if v - r > max_int - n + 1 then int_below t n else r

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_below t n

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t =
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v *. (1.0 /. 9007199254740992.0)

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | [ x ] ->
      ignore (bits62 t);  (* keep the stream in lockstep with the n>1 case *)
      x
  | _ -> List.nth xs (int_below t (List.length xs))

let shuffle t xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
