open Sim

type t = Runtime.t -> Runtime.event list -> Runtime.event

let uniform rng _t evs = Util.Rng.pick rng evs

let round_robin () =
  let next = ref 0 in
  fun t evs ->
    let n = Runtime.n t in
    let rec find tries =
      if tries >= n then
        match
          List.find_opt (function Runtime.Deliver _ -> true | _ -> false) evs
        with
        | Some e -> e
        | None -> List.hd evs
      else begin
        let p = (!next + tries) mod n in
        if List.mem (Runtime.Step p) evs then begin
          next := (p + 1) mod n;
          Runtime.Step p
        end
        else find (tries + 1)
      end
    in
    find 0

let eager_delivery _t evs =
  match List.find_opt (function Runtime.Deliver _ -> true | _ -> false) evs with
  | Some e -> e
  | None -> List.hd evs

let prefer_process p fallback t evs =
  if List.mem (Runtime.Step p) evs then Runtime.Step p else fallback t evs

let lazy_delivery rng _t evs =
  let steps = List.filter (function Runtime.Step _ -> true | _ -> false) evs in
  let pool = if steps = [] then evs else steps in
  Util.Rng.pick rng pool

let recording policy rng recorded t evs =
  let e = policy rng t evs in
  let i =
    let rec index j = function
      | [] -> invalid_arg "Schedulers.recording: policy chose a disabled event"
      | e' :: rest -> if e' = e then j else index (j + 1) rest
    in
    index 0 evs
  in
  recorded := i :: !recorded;
  e
