(* Order statistics of a handful of repeated measurements. *)

type summary = {
  n : int;
  min : float;
  q1 : float;
  median : float;
  q3 : float;
  max : float;
}

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median_of_sorted a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median: no data"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median xs = median_of_sorted (sorted xs)

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so spreads computed here and by a
   Python script over the same values agree. *)
let quartiles_of_sorted a =
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Sample.quartiles: no data"
  else if ld = 1 then (a.(0), a.(0))
  else
    let cut i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (cut 1, cut 3)

let summarize xs =
  let a = sorted xs in
  let q1, q3 = quartiles_of_sorted a in
  {
    n = Array.length a;
    min = a.(0);
    q1;
    median = median_of_sorted a;
    q3;
    max = a.(Array.length a - 1);
  }

(* Interquartile distance as a share of the median. *)
let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median
