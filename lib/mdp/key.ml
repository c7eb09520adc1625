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
   [raw]. The memo itself stores each key's memo form ([pack] below),
   about half as long; key.mli gives its layout and why it is
   injective. *)

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

(* ---- the memo form ----------------------------------------------------

   The 16 symbols are the bytes 119..132 (the ints -1..12), numbered
   0..13, then 0 and 1 (bools, option tags), numbered 14 and 15: a
   byte's symbol is the low nibble of [x + 9], plus 5 for 0 and 1. The
   pad symbol is 14, byte 0's.

   The symbols of a word's eight bytes are found at once (SWAR), with
   [t = w + 0x0909..]:
   - [mid_mask t] is 0xff in each byte of [t] in 0x80..0x8d, that is
     each [x] in 119..132, and 0 elsewhere. A valid byte's [x + 9] is
     below 256, so the lowest invalid byte of a word is never disturbed
     by a carry and is never taken for a mid byte (its [x + 9] is out
     of range, or wraps below 0x80);
   - a byte that is not mid must be 0 or 1. No invalid byte has only
     bits 0 and 7 (0, 1, 128 and 129 are valid), so [bad_bits] keeps
     bits 1..6 of the bytes that are not mid: it is 0 iff every byte is
     valid, and [Int64.to_int] (which drops bit 63) keeps that;
   - [syms] puts each byte's symbol in its low nibble: [t]'s low
     nibble, plus 5 in the bytes that are not mid. *)

let[@inline] mid_mask t =
  let open Int64 in
  let over = add (logand t 0x7f7f7f7f7f7f7f7fL) 0x7272727272727272L in
  let top = logand (logand t (lognot over)) 0x8080808080808080L in
  mul (shift_right_logical top 7) 0xffL

let[@inline] bad_bits w m =
  Int64.(logand (logand w 0x7e7e7e7e7e7e7e7eL) (lognot m))

let[@inline] syms t m =
  let open Int64 in
  logand (add t (logand (lognot m) 0x0505050505050505L)) 0x0f0f0f0f0f0f0f0fL

let[@inline] byte_of_sym s = if s <= 13 then s + 119 else s - 14
let pad = 14

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The [len <= 8] bytes at [pos] as a little-endian word, 0 above
   them. One unchecked load ending at [pos + len] when that is at least
   8 bytes in; byte by byte otherwise. *)
let[@inline] load data pos len =
  if len = 0 then 0L
  else if pos + len >= 8 then
    Int64.shift_right_logical (get64u data (pos + len - 8)) (64 - (8 * len))
  else begin
    let w = ref 0 in
    for j = pos + len - 1 downto pos do
      w := (!w lsl 8) lor Char.code (Bytes.unsafe_get data j)
    done;
    Int64.of_int !w
  end

(* Stores the symbols of the input words [a] and [b] as one word at
   [pos]: byte [j] holds the symbol of [a]'s byte [j] in its low nibble
   and [b]'s in its high one. Returns their [bad_bits]. *)
let[@inline] step out pos a b =
  let open Int64 in
  let ta = add a 0x0909090909090909L and tb = add b 0x0909090909090909L in
  let ma = mid_mask ta and mb = mid_mask tb in
  set64u out pos (logor (syms ta ma) (shift_left (syms tb mb) 4));
  to_int (logor (bad_bits a ma) (bad_bits b mb))

(* Sixteen input bytes per step, by two unchecked 8-byte loads and one
   unchecked 8-byte store. A last step takes the [r < 16] bytes left,
   split into a first half of [ceil (r/2)] bytes and the rest, padded
   with byte 0 (the pad). [ensure] reserved [n + 9] bytes, so every
   8-byte store stays inside [out] and the raw form fits; the loads
   stay inside [src.data] because [n] is its fill. A byte outside the
   alphabet makes the whole key raw, overwriting what was packed. *)
let pack src dst =
  let n = src.len and data = src.data in
  ensure dst (n + 9);
  let out = dst.data in
  let bad = ref 0 and i = ref 0 in
  while !i + 16 <= n do
    let a = get64u data !i and b = get64u data (!i + 8) in
    bad := !bad lor step out (1 + (!i lsr 1)) a b;
    i := !i + 16
  done;
  let r = n - !i in
  if r > 0 then begin
    let half = (r + 1) lsr 1 in
    bad :=
      !bad
      lor step out
            (1 + (!i lsr 1))
            (load data !i half)
            (load data (!i + half) (r - half))
  end;
  if !bad = 0 then begin
    Bytes.unsafe_set out 0 (if n land 1 = 0 then '\001' else '\002');
    dst.len <- 1 + ((n + 1) lsr 1)
  end
  else begin
    Bytes.unsafe_set out 0 '\000';
    Bytes.blit data 0 out 1 n;
    dst.len <- 1 + n
  end

let unpack p =
  let bad () = invalid_arg "Mdp.Key.unpack: not a memo form" in
  let m = String.length p in
  if m = 0 then bad ();
  match p.[0] with
  | '\000' -> String.sub p 1 (m - 1)
  | ('\001' | '\002') as tag ->
      (* [m - 1 = 8 blocks + ceil (r/2)] with [r < 16] of the parity *)
      let l = m - 1 in
      let blocks, r =
        if tag = '\001' then (l / 8, 2 * (l mod 8))
        else if l = 0 then bad ()
        else
          let blocks = (l - 1) / 8 in
          (blocks, (2 * (l - (8 * blocks))) - 1)
      in
      let half = (r + 1) lsr 1 in
      let nib k hi = (Char.code p.[1 + k] lsr if hi then 4 else 0) land 15 in
      if r land 1 = 1 && nib ((8 * blocks) + half - 1) true <> pad then bad ();
      String.init ((16 * blocks) + r) (fun j ->
          let s =
            if j < 16 * blocks then
              nib ((8 * (j / 16)) + (j mod 8)) (j mod 16 >= 8)
            else
              let j = j - (16 * blocks) in
              if j < half then nib ((8 * blocks) + j) false
              else nib ((8 * blocks) + j - half) true
          in
          Char.unsafe_chr (byte_of_sym s))
  | _ -> bad ()
