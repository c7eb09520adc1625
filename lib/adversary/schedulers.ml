open Sim

type t = Runtime.t -> int -> int

(* [uniform] and [lazy_delivery] return two-argument closures, so the
   run loop's [choose t n] calls them directly rather than through a
   partial application *)
let uniform rng = fun _t n -> Util.Rng.index rng n

(* The enabled order puts steps first, then deliveries, then crashes
   (Runtime.enabled), so a step's or the oldest delivery's position is
   found without building the list. *)

(* the position of [Step p] among the first [enabled_steps] positions,
   or -1 *)
let rec step_position t p i =
  if i >= Runtime.enabled_steps t then -1
  else
    match Runtime.enabled_nth t i with
    | Runtime.Step q when q = p -> i
    | _ -> step_position t p (i + 1)

let eager_delivery t n =
  let s = Runtime.enabled_steps t in
  if s < n then match Runtime.enabled_nth t s with Runtime.Deliver _ -> s | _ -> 0
  else 0

let round_robin () =
  let next = ref 0 in
  fun t n ->
    let procs = Runtime.n t in
    let rec find tries =
      if tries >= procs then eager_delivery t n
      else
        let p = (!next + tries) mod procs in
        let i = step_position t p 0 in
        if i >= 0 then begin
          next := (p + 1) mod procs;
          i
        end
        else find (tries + 1)
    in
    find 0

let prefer_process p fallback t n =
  let i = step_position t p 0 in
  if i >= 0 then i else fallback t n

(* the positions before the trailing [Crash] events, scanning back from
   [i] *)
let rec crash_free t i =
  if i > 0 && match Runtime.enabled_nth t (i - 1) with Runtime.Crash _ -> true | _ -> false
  then crash_free t (i - 1)
  else i

let uniform_no_crash rng t n =
  let m = crash_free t n in
  Util.Rng.index rng (if m = 0 then n else m)

let lazy_delivery rng =
 fun t n ->
  let s = Runtime.enabled_steps t in
  Util.Rng.index rng (if s = 0 then n else s)

let recording policy rng recorded =
  let choose = policy rng in
  fun t n ->
    let i = choose t n in
    recorded := i :: !recorded;
    i
