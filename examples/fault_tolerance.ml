(* Crash fault tolerance of the ABD register (the reason it exists at all):
   with n = 5 replicas and majority quorums, any 2 processes may crash and
   the survivors' operations still complete and stay linearizable; with 3
   crashes, operations block forever.

     dune exec examples/fault_tolerance.exe
*)

open Util
open Sim
open Sim.Proc.Syntax

let n = 5

let make_config () =
  let reg = Objects.Abd.make ~name:"R" ~n ~init:Value.none in
  let program ~self =
    if self >= 3 then begin
      (* processes 3 and 4 are the clients; 0-2 only serve *)
      let call tag meth arg = Obj_impl.call reg ~self ~tag ~meth ~arg in
      let* _ = call "w" "write" (Value.int self) in
      let* v = call "r" "read" Value.unit in
      Fmt.pr "p%d read %a@." self Value.pp v;
      Proc.return ()
    end
    else Proc.return ()
  in
  { Runtime.n; objects = [ reg ]; program; enable_crashes = true; max_crashes = 3 }

let run_with_crashes crashed =
  let t = Runtime.create (make_config ()) (Runtime.Gen (Rng.of_int 99)) in
  List.iter (fun p -> Runtime.step t (Runtime.Crash p)) crashed;
  let rng = Rng.of_int 100 in
  let scheduler = Adversary.Schedulers.uniform_no_crash rng in
  Runtime.run t ~max_steps:100_000 scheduler |> fun result -> (t, result)

let () =
  Fmt.pr "=== ABD with n = 5, majority quorum = 3 ==================@.@.";
  Fmt.pr "--- 2 crashes (minority): operations complete -----------@.";
  let t, result = run_with_crashes [ 0; 1 ] in
  (match result with
  | Runtime.Completed ->
      let spec = History.Spec.register ~init:Value.none in
      Fmt.pr "completed; history linearizable: %b@.@."
        (Lin.Check.check spec (Runtime.history t))
  | _ -> failwith "expected completion despite minority crashes");

  Fmt.pr "--- 3 crashes (majority): clients block forever ----------@.";
  let t, result = run_with_crashes [ 0; 1; 2 ] in
  (match result with
  | Runtime.Step_limit_reached | Runtime.Deadlocked ->
      Fmt.pr "clients still pending after the step budget: p3 active=%b p4 active=%b@."
        (Runtime.is_active t 3) (Runtime.is_active t 4);
      Fmt.pr "no quorum of replicas is alive, as the ABD bound requires.@."
  | Runtime.Completed -> failwith "operations should not complete without a quorum")
