(* The Afek et al. wait-free snapshot (Section 5.2) and its transformed
   version Snapshot^k, on a producer/observer workload:

   - three processes publish a stream of values into their components while
     an observer scans;
   - histories are checked against the sequential snapshot specification;
   - the GHW-style randomized program compares plain and transformed
     snapshots under fair scheduling.

     dune exec examples/snapshot_demo.exe
*)

open Util
open Sim
open Sim.Proc.Syntax

let run_workload ~make_snapshot ~seed =
  let n = 3 in
  let snap = make_snapshot () in
  let program ~self =
    let call tag meth arg = Obj_impl.call snap ~self ~tag ~meth ~arg in
    if self < 2 then
      (* producers: publish three increasing values *)
      Proc.iter [ 1; 2; 3 ] (fun v ->
          let* _ =
            call (Fmt.str "u%d" v) "update"
              (Value.pair (Value.int self) (Value.int ((10 * self) + v)))
          in
          Proc.return ())
    else
      (* observer: scan repeatedly *)
      Proc.iter [ 1; 2; 3 ] (fun i ->
          let* s = call (Fmt.str "s%d" i) "scan" Value.unit in
          Fmt.pr "observer scan %d: %a@." i Value.pp s;
          Proc.return ())
  in
  let config =
    { Runtime.n; objects = [ snap ]; program; max_crashes = 0 }
  in
  let rng = Rng.of_int seed in
  let t = Runtime.create config (Runtime.Gen (Rng.split rng)) in
  (match Runtime.run t ~max_steps:200_000 (Adversary.Schedulers.uniform rng) with
  | Runtime.Completed -> ()
  | _ -> failwith "snapshot workload did not complete");
  t

let () =
  Fmt.pr "=== Afek et al. snapshot =================================@.";
  let t =
    run_workload ~seed:7 ~make_snapshot:(fun () ->
        Objects.Afek_snapshot.make ~name:"S" ~n:3 ~init:(Value.int 0))
  in
  let spec = History.Spec.snapshot ~n:3 ~init:(Value.int 0) in
  Fmt.pr "history linearizable w.r.t. snapshot spec: %b@.@."
    (Lin.Check.check spec (Runtime.history t));

  Fmt.pr "=== Snapshot^2 (preamble-iterated) =======================@.";
  let t2 =
    run_workload ~seed:7 ~make_snapshot:(fun () ->
        Objects.Afek_snapshot.make_k ~k:2 ~name:"S" ~n:3 ~init:(Value.int 0))
  in
  Fmt.pr "history linearizable w.r.t. snapshot spec: %b@."
    (Lin.Check.check spec (Runtime.history t2));
  Fmt.pr "register reads: plain %d vs transformed %d (the cost of blunting)@.@."
    (List.length
       (List.filter
          (function Trace.Reg_read _ -> true | _ -> false)
          (Trace.entries (Runtime.trace t))))
    (List.length
       (List.filter
          (function Trace.Reg_read _ -> true | _ -> false)
          (Trace.entries (Runtime.trace t2))));

  Fmt.pr "=== GHW-style randomized program over the snapshot =======@.";
  let mc name config =
    let r =
      Adversary.Monte_carlo.estimate ~trials:300 ~seed:17
        ~scheduler:Adversary.Schedulers.uniform ~bad:Programs.Ghw_snapshot.bad
        config
    in
    Fmt.pr "%s: bad = %a@." name Adversary.Monte_carlo.pp r
  in
  mc "atomic snapshot " Programs.Ghw_snapshot.atomic_config;
  mc "Afek snapshot   " Programs.Ghw_snapshot.afek_config;
  mc "Afek snapshot^2 " (fun () -> Programs.Ghw_snapshot.afek_k_config ~k:2)
