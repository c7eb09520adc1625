(* Microbench of the memo's probe-side key work: [Mdp.Key.pack]'s ns per
   ABD^3 key next to [Par.Memo_tbl.hash_slice]'s, on the raw key and on
   its packed form.

     dune exec bench/keybench.exe                # every 64th probe key
     dune exec bench/keybench.exe -- --every 16  # a denser sample

   The keys are the ones the solver probes, in probe order: an ABD^3
   solve records every [--every]th key its [encode_into] writes. A pass
   runs each column once over the whole sample, the columns in turn,
   and each column reports its fastest of [--reps] passes, in ns per
   key: on a shared host the fastest pass is the least disturbed. *)

let every = ref 64
let reps = ref 31

let () =
  Arg.parse
    [
      ("--every", Arg.Set_int every, "N  record every Nth probe key (64)");
      ("--reps", Arg.Set_int reps, "N  passes; each column keeps its fastest (31)");
    ]
    (fun a -> raise (Arg.Bad a))
    "keybench [--every N] [--reps N]";
  if !every < 1 || !reps < 1 then (prerr_endline "keybench: N >= 1"; exit 2)

module G = Model.Weakener_abd.Game

let sample = ref []
let seen = ref 0

module Recorded = struct
  include G

  let encode_into s b =
    G.encode_into s b;
    if !seen mod !every = 0 then sample := Mdp.Key.contents b :: !sample;
    incr seen
end

module S = Mdp.Solver.Make (Recorded)

let keys =
  ignore (S.value (Model.Weakener_abd.init ~k:3 ()));
  S.reset ();
  Array.of_list (List.rev !sample)

let n = Array.length keys

(* ns per key of each of [fs] over the sample, the fastest of [reps]
   interleaved passes *)
let time fs =
  let best = Array.map (fun _ -> infinity) fs in
  for _ = 1 to !reps do
    Array.iteri
      (fun j f ->
        let t0 = Unix.gettimeofday () in
        for i = 0 to n - 1 do
          f i
        done;
        best.(j) <- Float.min best.(j) (Unix.gettimeofday () -. t0))
      fs
  done;
  Array.map (fun b -> b *. 1e9 /. float_of_int n) best

(* As in a solve, each key is first written into the one reused buffer
   [src] (the solver's [encode_into]); the columns after [copy] add
   the work that follows it, and the differences are their cost.
   [copy + hash_slice raw] is a probe that hashes the encoding itself;
   [copy + pack + hash_slice packed] is the solver's probe, which
   hashes the memo form. *)
let src = Mdp.Key.create ()
let dst = Mdp.Key.create ()
let sink = ref 0

let copy i =
  Mdp.Key.reset src;
  Mdp.Key.raw src keys.(i)

let hash b =
  sink := !sink lxor Par.Memo_tbl.hash_slice (Mdp.Key.data b) (Mdp.Key.length b)

let () =
  let raw_bytes = Array.fold_left (fun s k -> s + String.length k) 0 keys in
  let packed_bytes = ref 0 and raw_forms = ref 0 in
  Array.iteri
    (fun i _ ->
      copy i;
      Mdp.Key.pack src dst;
      packed_bytes := !packed_bytes + Mdp.Key.length dst;
      if Bytes.get (Mdp.Key.data dst) 0 = '\000' then incr raw_forms)
    keys;
  Printf.printf
    "ABD^3: %d probe keys (every %d of %d), %.2f bytes raw, %.2f packed, %d raw forms\n"
    n !every !seen
    (float_of_int raw_bytes /. float_of_int n)
    (float_of_int !packed_bytes /. float_of_int n)
    !raw_forms;
  let c, ch, cp, cph =
    match
      time
        [|
          copy;
          (fun i -> copy i; hash src);
          (fun i -> copy i; Mdp.Key.pack src dst);
          (fun i -> copy i; Mdp.Key.pack src dst; hash dst);
        |]
    with
    | [| c; ch; cp; cph |] -> (c, ch, cp, cph)
    | _ -> assert false
  in
  Printf.printf
    "ns per key: copy %.1f | +hash_slice raw %.1f | +pack %.1f | +pack +hash_slice packed %.1f\n"
    c ch cp cph;
  Printf.printf
    "so: hash_slice raw %.1f, pack %.1f, hash_slice packed %.1f; a probe's key work %.1f -> %.1f\n"
    (ch -. c) (cp -. c) (cph -. cp) (ch -. c) (cph -. c);
  if !sink = 42 then print_newline ()
