let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance = function
  | [] | [ _ ] -> 0.0
  | xs ->
      let m = mean xs in
      let n = float_of_int (List.length xs) in
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs /. (n -. 1.0)

let binomial_ci ~successes ~trials =
  if trials = 0 then (0.0, 1.0)
  else begin
    let z = 1.959964 in
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let center = (p +. (z2 /. (2.0 *. n))) /. denom in
    let half =
      z *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n))) /. denom
    in
    (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))
  end

let fraction ~successes ~trials =
  if trials = 0 then 0.0 else float_of_int successes /. float_of_int trials

let intervals_overlap (lo1, hi1) (lo2, hi2) = lo1 <= hi2 && lo2 <= hi1

let binomial_compatible ~successes1 ~trials1 ~successes2 ~trials2 =
  intervals_overlap
    (binomial_ci ~successes:successes1 ~trials:trials1)
    (binomial_ci ~successes:successes2 ~trials:trials2)
