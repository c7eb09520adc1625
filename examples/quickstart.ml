(* Quickstart: simulate an ABD register shared by three crash-prone
   processes, run a concurrent workload under a random schedule, print the
   history, and check it linearizable.

     dune exec examples/quickstart.exe
*)

open Util
open Sim
open Sim.Proc.Syntax

let () =
  let n = 3 in
  (* Each process writes its id, reads, writes again, reads again; the
     workload is parameterized by the register implementation. *)
  let mk_config ?(quiet = false) reg =
    let program ~self =
      let call tag meth arg = Obj_impl.call reg ~self ~tag ~meth ~arg in
      let* _ = call "w1" "write" (Value.int self) in
      let* v1 = call "r1" "read" Value.unit in
      if not quiet then Fmt.pr "p%d first read:  %a@." self Value.pp v1;
      let* _ = call "w2" "write" (Value.int (self + 10)) in
      let* v2 = call "r2" "read" Value.unit in
      if not quiet then Fmt.pr "p%d second read: %a@." self Value.pp v2;
      Proc.return ()
    in
    { Runtime.n; objects = [ reg ]; program; max_crashes = 0 }
  in

  (* The shared object: a multi-writer ABD register (Algorithm 3 of the
     paper), replicated at every process with majority quorums. *)
  let config = mk_config (Objects.Abd.make ~name:"R" ~n ~init:Value.none) in

  (* Run to completion under a uniformly random (fair) schedule: at every
     step the scheduler picks among all enabled events — process steps and
     message deliveries. *)
  let rng = Rng.of_int 2024 in
  let t = Runtime.create config (Runtime.Gen (Rng.split rng)) in
  (match Runtime.run t ~max_steps:100_000 (Adversary.Schedulers.uniform rng) with
  | Runtime.Completed -> ()
  | _ -> failwith "run did not complete");

  Fmt.pr "@.--- history -------------------------------------------@.";
  Fmt.pr "%a@." History.Hist.pp (Runtime.history t);

  let spec = History.Spec.register ~init:Value.none in
  let ok = Lin.Check.check spec (Runtime.history t) in
  Fmt.pr "@.linearizable: %b@." ok;
  Fmt.pr "messages sent: %d, total steps: %d@."
    (Trace.count_messages (Runtime.trace t))
    (Trace.count_steps (Runtime.trace t));

  (* The same workload on the transformed register ABD^3: same interface,
     same linearizability, more query phases. *)
  let config3 =
    mk_config ~quiet:true (Objects.Abd.make_k ~k:3 ~name:"R" ~n ~init:Value.none)
  in
  let t3 = Runtime.create config3 (Runtime.Gen (Rng.split rng)) in
  (match Runtime.run t3 ~max_steps:200_000 (Adversary.Schedulers.uniform rng) with
  | Runtime.Completed -> ()
  | _ -> failwith "ABD^3 run did not complete");
  let client_sends t =
    List.length
      (List.filter
         (function
           | Trace.Sent { msg; _ } ->
               let tag = Message.tag_of msg.body in
               tag = "query" || tag = "update"
           | _ -> false)
         (Trace.entries (Runtime.trace t)))
  in
  Fmt.pr "@.ABD^3: linearizable: %b, client messages: %d (vs %d for ABD —@."
    (Lin.Check.check spec (Runtime.history t3))
    (client_sends t3) (client_sends t);
  Fmt.pr "the k query phases are the price of blunting the adversary)@."
