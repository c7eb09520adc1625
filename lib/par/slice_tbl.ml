(* A string-keyed hash table that can be probed with a (bytes, length)
   slice without materializing the key. The out-of-core store's RAM
   tier probes it on every memo probe of a budgeted solve: a state is
   encoded into a reusable buffer, and looking it up must not allocate. [Hashtbl] cannot do this
   — [Hashtbl.find_opt tbl (Bytes.sub_string buf 0 len)] copies the key
   on every probe, hit or miss. Here the probe hashes the slice in
   place, walks one chain comparing bytes, and copies the key out
   exactly once: when the slice is genuinely new.

   Entries are exposed (with a mutable [value] field) so callers can
   read-modify-write a binding from a single probe — the store probes
   once with a claim as the default and later overwrites the same entry
   with the computed value, where a [Hashtbl] would pay a second
   hash + chain walk for the [replace]. *)

type 'a entry = { hash : int; key : string; mutable value : 'a }

type 'a t = {
  mutable buckets : 'a entry list array;
  mutable mask : int;  (* Array.length buckets - 1; power of two *)
  mutable size : int;
  mutable fresh : bool;  (* did the last probe insert? *)
}

let create ?(size = 1024) () =
  let cap = ref 16 in
  while !cap < size do
    cap := !cap * 2
  done;
  { buckets = Array.make !cap []; mask = !cap - 1; size = 0; fresh = false }

let length t = t.size
let last_was_new t = t.fresh

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) [];
  t.size <- 0;
  t.fresh <- false

(* FNV-1a over the bytes, folded in OCaml's native int (wrapping
   multiplication is fine — both forms below MUST fold identically so a
   slice and its materialized string always land in the same chain, and
   in the same shard of a sharded wrapper). *)
let fnv_prime = 0x100000001b3
let fnv_seed = 0x3bf29ce484222325

let hash_slice data len =
  let h = ref fnv_seed in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get data i)) * fnv_prime
  done;
  !h

let hash_string s =
  let h = ref fnv_seed in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h

(* Word-wise equality: 8 bytes per iteration. The [int64] comparisons
   are compiler-specialized (monomorphic annotation) so the loads stay
   unboxed — no allocation. Probes compare the full key on every hit, so
   this runs for ~the key length on the solver's hottest path. *)
let rec words_match key data len i =
  if i + 8 <= len then
    (String.get_int64_le key i : int64) = Bytes.get_int64_le data i
    && words_match key data len (i + 8)
  else tail_match key data len i

and tail_match key data len i =
  i >= len
  || String.unsafe_get key i = Bytes.unsafe_get data i
     && tail_match key data len (i + 1)

let[@inline] slice_matches key data len =
  String.length key = len && words_match key data len 0

let grow t =
  let old = t.buckets in
  let cap = Array.length old * 2 in
  let buckets = Array.make cap [] in
  let mask = cap - 1 in
  Array.iter
    (fun chain ->
      List.iter
        (fun e ->
          let i = e.hash land mask in
          buckets.(i) <- e :: buckets.(i))
        chain)
    old;
  t.buckets <- buckets;
  t.mask <- mask

let[@inline] insert t h key default =
  let e = { hash = h; key; value = default } in
  let i = h land t.mask in
  t.buckets.(i) <- e :: t.buckets.(i);
  t.size <- t.size + 1;
  t.fresh <- true;
  if t.size > Array.length t.buckets then grow t;
  e

(* Chain walks as top-level fully-applied recursions: an inner [let rec]
   closure would allocate on every probe. *)
let rec probe_slice_chain t h data len default = function
  | [] -> insert t h (Bytes.sub_string data 0 len) default
  | e :: rest ->
      if e.hash = h && slice_matches e.key data len then begin
        t.fresh <- false;
        e
      end
      else probe_slice_chain t h data len default rest

let probe_slice t data ~len ~default =
  let h = hash_slice data len in
  probe_slice_chain t h data len default t.buckets.(h land t.mask)

let rec probe_string_chain t h key default = function
  | [] -> insert t h key default
  | e :: rest ->
      if e.hash = h && String.equal e.key key then begin
        t.fresh <- false;
        e
      end
      else probe_string_chain t h key default rest

let probe_string t key ~default =
  let h = hash_string key in
  probe_string_chain t h key default t.buckets.(h land t.mask)

let rec find_slice_chain h data len = function
  | [] -> None
  | e :: rest ->
      if e.hash = h && slice_matches e.key data len then Some e
      else find_slice_chain h data len rest

let find_slice t data ~len =
  let h = hash_slice data len in
  find_slice_chain h data len t.buckets.(h land t.mask)

let rec find_string_chain h key = function
  | [] -> None
  | e :: rest ->
      if e.hash = h && String.equal e.key key then Some e
      else find_string_chain h key rest

let find_string t key =
  let h = hash_string key in
  find_string_chain h key t.buckets.(h land t.mask)

let iter t f =
  Array.iter (fun chain -> List.iter (fun e -> f e.key e.value) chain) t.buckets

let fold t f init =
  Array.fold_left
    (fun acc chain ->
      List.fold_left (fun acc e -> f e.key e.value acc) acc chain)
    init t.buckets
