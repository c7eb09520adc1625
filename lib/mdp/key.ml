(* Injectivity argument: byte 255 is reserved as the wide-int escape, so
   the one-byte codes 0..254 (= -120..134) and the escaped 8-byte form
   decode unambiguously; bools and option tags are fixed one-byte; lists
   are length-prefixed. Any fixed-order composition of these is a prefix
   code over states.

   The buffer is a bare (bytes, len) pair rather than Stdlib.Buffer: the
   solver probes the memo table with the (data, len) slice directly, so a
   probe of an already-seen state builds no key — no Buffer record, no
   [contents] copy, no string.

   A key is a state's identity in the memo: test_par pins the ABD game's
   key bytes, so a layout change that would merge or split states fails
   there. [Model.Weakener_abd]'s state is those bytes, appended with
   [raw]. *)

type buf = { mutable data : Bytes.t; mutable len : int }

let create ?(size = 64) () = { data = Bytes.create (max 16 size); len = 0 }
let reset b = b.len <- 0
let length b = b.len
let data b = b.data

let grow b need =
  let cap = ref (Bytes.length b.data * 2) in
  while !cap < need do
    cap := !cap * 2
  done;
  let data = Bytes.create !cap in
  Bytes.blit b.data 0 data 0 b.len;
  b.data <- data

let[@inline] ensure b extra =
  if b.len + extra > Bytes.length b.data then grow b (b.len + extra)

let[@inline] add_u8 b v =
  ensure b 1;
  Bytes.unsafe_set b.data b.len (Char.unsafe_chr (v land 0xff));
  b.len <- b.len + 1

let wide b v =
  ensure b 9;
  Bytes.unsafe_set b.data b.len '\xff';
  Bytes.set_int64_le b.data (b.len + 1) (Int64.of_int v);
  b.len <- b.len + 9

let[@inline] int b v =
  if v >= -120 && v <= 134 then add_u8 b (v + 120) else wide b v

let[@inline] bool b v = add_u8 b (if v then 1 else 0)

let option b f = function
  | None -> add_u8 b 0
  | Some x ->
      add_u8 b 1;
      f b x

(* fully-applied recursion: [List.iter (f b)] would allocate a partial-
   application closure on every call, and encoders run once per memo
   probe *)
let rec iter_enc f b = function
  | [] -> ()
  | x :: tl ->
      f b x;
      iter_enc f b tl

let list b f xs =
  int b (List.length xs);
  iter_enc f b xs

let raw b s =
  let n = String.length s in
  ensure b n;
  Bytes.blit_string s 0 b.data b.len n;
  b.len <- b.len + n

let contents b = Bytes.sub_string b.data 0 b.len

let run f =
  let b = create () in
  f b;
  contents b
