(* A shared run helper for the test suites. *)

open Sim

(* Run a configuration to completion under a uniformly random schedule (a
   probabilistically fair scheduler, adequate for termination of
   quorum-based algorithms) and return the runtime. *)
let run_random ?(seed = 42) ?(max_steps = 100_000) config =
  let rng = Util.Rng.of_int seed in
  let t = Runtime.create config (Runtime.Gen (Util.Rng.split rng)) in
  match Runtime.run t ~max_steps (Adversary.Schedulers.uniform rng) with
  | Runtime.Completed -> t
  | Runtime.Deadlocked -> Alcotest.fail "run_random: deadlock"
  | Runtime.Step_limit_reached -> Alcotest.fail "run_random: step limit"
