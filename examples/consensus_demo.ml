(* Ben-Or randomized binary consensus on the message-passing substrate —
   the application class that motivates the paper (randomized round-based
   protocols whose termination probability a strong adversary attacks
   through implemented shared objects).

     dune exec examples/consensus_demo.exe
*)

open Util
open Sim

let n = 3
let trials = 20

let run ~seed ~inputs ~crash =
  let config = Programs.Ben_or.config ~n ~f:1 ~inputs ~max_rounds:60 in
  let config =
    if crash = None then { config with Runtime.enable_crashes = false } else config
  in
  let rng = Rng.of_int seed in
  let t = Runtime.create config (Runtime.Gen (Rng.split rng)) in
  (match crash with
  | Some p ->
      for _ = 1 to 6 do
        match Runtime.enabled t with
        | [] -> ()
        | e :: _ -> Runtime.step t e
      done;
      if Runtime.is_active t p then Runtime.step t (Runtime.Crash p)
  | None -> ());
  let sched = Adversary.Schedulers.uniform_no_crash rng in
  match Runtime.run t ~max_steps:2_000_000 sched with
  | Runtime.Completed -> Some t
  | _ -> None

let flips t =
  List.length
    (List.filter
       (fun (k, _, _) -> k = Proc.Program_random)
       (Trace.random_draws (Runtime.trace t)))

let () =
  Fmt.pr "=== Ben-Or randomized consensus (n = %d, f = 1) ============@.@." n;
  Fmt.pr "--- mixed inputs, fair scheduling -----------------------@.";
  let agree = ref 0 in
  for seed = 1 to trials do
    let inputs = [ seed mod 2; (seed / 2) mod 2; 1 - (seed mod 2) ] in
    match run ~seed ~inputs ~crash:None with
    | Some t ->
        let ds = Programs.Ben_or.decisions (Runtime.trace t) ~n in
        let show =
          String.concat ","
            (List.map (function Some v -> string_of_int v | None -> "?") ds)
        in
        if Programs.Ben_or.agreement ds && Programs.Ben_or.validity ~inputs ds then
          incr agree;
        Fmt.pr "trial %2d: inputs %s -> decisions %s (%d coin flips, %d steps)@."
          seed
          (String.concat "," (List.map string_of_int inputs))
          show (flips t)
          (Trace.count_steps (Runtime.trace t))
    | None -> Fmt.pr "trial %2d: did not complete@." seed
  done;
  Fmt.pr "@.agreement + validity: %d/%d trials@.@." !agree trials;

  Fmt.pr "--- one process crashes mid-protocol ---------------------@.";
  (match run ~seed:7 ~inputs:[ 0; 1; 0 ] ~crash:(Some 1) with
  | Some t ->
      let ds = Programs.Ben_or.decisions (Runtime.trace t) ~n in
      List.iteri
        (fun p d ->
          Fmt.pr "p%d: %s@." p
            (match d with
            | Some v -> Fmt.str "decided %d" v
            | None -> if Runtime.is_crashed t p then "crashed" else "undecided"))
        ds;
      Fmt.pr "agreement: %b@." (Programs.Ben_or.agreement ds)
  | None -> Fmt.pr "crash run did not complete@.");
  Fmt.pr
    "@.Section 7's recipe applies to protocols of exactly this shape: with@.\
     s flips per round and a T-round high-probability window, running any@.\
     shared objects the protocol uses as O^k with k > T*s blunts a strong@.\
     adversary for the whole window.@."
