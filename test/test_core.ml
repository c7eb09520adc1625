(* Tests for the paper's quantitative content: the Theorem 4.2 bound and
   the Section 7 round-based recipe. *)

open Core

let feq = Alcotest.(check (float 1e-9))

let test_bound_weakener_instance () =
  (* Appendix A.3.1: with k = 2 the bound gives bad <= 7/8, i.e. p2
     terminates with probability at least 1/8 *)
  feq "k=2 instance" 0.875 (Bound.weakener_instance ~k:2);
  (* k = 1 <= r: no guarantee beyond the linearizable probability *)
  feq "k=1 instance" 1.0 (Bound.weakener_instance ~k:1)

let test_bound_hand_computed () =
  (* n=3, r=1, k=4: fraction = 1 - (3/4)^2 = 7/16 *)
  feq "fraction" (7.0 /. 16.0) (Bound.blunt_fraction ~n:3 ~r:1 ~k:4);
  feq "bound" (0.5 +. (7.0 /. 16.0 *. 0.5))
    (Bound.theorem_4_2 ~n:3 ~r:1 ~k:4 ~prob_atomic:0.5 ~prob_lin:1.0)

let test_bound_no_blunting_when_k_le_r () =
  List.iter
    (fun (k, r) ->
      feq (Fmt.str "k=%d r=%d" k r) 1.0 (Bound.blunt_fraction ~n:4 ~r ~k))
    [ (1, 1); (2, 2); (2, 5); (3, 7) ]

let test_bound_two_processes_vacuous () =
  (* n = 1: exponent 0, fraction 0: a single process cannot be raced *)
  feq "n=1" 0.0 (Bound.blunt_fraction ~n:1 ~r:1 ~k:5)

let prop_bound_monotone_in_k =
  QCheck.Test.make ~count:200 ~name:"bound decreases with k"
    QCheck.(triple (int_range 2 6) (int_range 1 5) (int_range 1 40))
    (fun (n, r, k) ->
      Bound.blunt_fraction ~n ~r ~k >= Bound.blunt_fraction ~n ~r ~k:(k + 1) -. 1e-12)

let prop_bound_sandwich =
  QCheck.Test.make ~count:200 ~name:"bound between prob_atomic and prob_lin"
    QCheck.(quad (int_range 1 6) (int_range 1 5) (int_range 1 60) (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (n, r, k, (a, b)) ->
      let prob_atomic = Float.min a b and prob_lin = Float.max a b in
      let v = Bound.theorem_4_2 ~n ~r ~k ~prob_atomic ~prob_lin in
      prob_atomic -. 1e-12 <= v && v <= prob_lin +. 1e-12)

let prop_bound_limit =
  QCheck.Test.make ~count:50 ~name:"bound tends to prob_atomic"
    QCheck.(pair (int_range 2 5) (int_range 1 4))
    (fun (n, r) ->
      Bound.theorem_4_2 ~n ~r ~k:100_000 ~prob_atomic:0.3 ~prob_lin:0.9 < 0.31)

let test_min_k_for () =
  let k = Bound.min_k_for ~n:3 ~r:1 ~epsilon:0.1 in
  Alcotest.(check bool) "achieves epsilon" true (Bound.blunt_fraction ~n:3 ~r:1 ~k <= 0.1);
  Alcotest.(check bool) "minimal" true
    (k = 1 || Bound.blunt_fraction ~n:3 ~r:1 ~k:(k - 1) > 0.1)

let test_bound_invalid_args () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Bound.blunt_fraction: n, r, k must be >= 1")
    (fun () -> ignore (Bound.blunt_fraction ~n:3 ~r:1 ~k:0));
  Alcotest.check_raises "prob order"
    (Invalid_argument "Bound.theorem_4_2: need 0 <= prob_atomic <= prob_lin <= 1")
    (fun () -> ignore (Bound.theorem_4_2 ~n:3 ~r:1 ~k:2 ~prob_atomic:0.9 ~prob_lin:0.2))

let test_round_based_recipe () =
  Alcotest.(check int) "k > T*s" 13 (Round_based.recommended_k ~rounds:4 ~steps_per_round:3);
  Alcotest.(check string) "plain naming" "read!plain" (Round_based.plain "read")

let test_round_based_fallback_abd () =
  (* the plain methods on the fallback ABD behave like the base object and
     share state with the transformed ones *)
  let open Sim in
  let open Sim.Proc.Syntax in
  let obj = Round_based.abd ~k:3 ~name:"R" ~n:3 ~init:(Util.Value.int 0) in
  let got = ref None in
  let program ~self =
    if self = 0 then begin
      let* _ =
        Obj_impl.call obj ~self ~tag:"w" ~meth:"write" ~arg:(Util.Value.int 7)
      in
      let* v =
        Obj_impl.call obj ~self ~tag:"r" ~meth:(Round_based.plain "read")
          ~arg:Util.Value.unit
      in
      got := Some v;
      Proc.return ()
    end
    else Proc.return ()
  in
  let t =
    Runtime.create
      { Runtime.n = 3; objects = [ obj ]; program; max_crashes = 0 }
      (Runtime.Gen (Util.Rng.of_int 3))
  in
  let rng = Util.Rng.of_int 4 in
  (match Runtime.run t ~max_steps:100_000 (Adversary.Schedulers.uniform rng) with
  | Runtime.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  (match !got with
  | Some v -> Alcotest.(check bool) "plain read sees transformed write" true (Util.Value.equal v (Util.Value.int 7))
  | None -> Alcotest.fail "no read result");
  (* the plain read performed exactly one query broadcast *)
  let queries_by_p0 =
    List.length
      (List.filter
         (function
           | Trace.Sent { src = 0; msg; dst = 0; _ } ->
               Message.tag_of msg.body = "query"
           | _ -> false)
         (Trace.entries (Runtime.trace t)))
  in
  (* write: 3 query phases; plain read: 1 query phase => 4 query broadcasts
     (counting only the copy addressed to p0 itself to count broadcasts) *)
  Alcotest.(check int) "k + 1 query phases total" 4 queries_by_p0

let tests =
  [
    Alcotest.test_case "Thm 4.2: weakener instance (1/8 claim)" `Quick
      test_bound_weakener_instance;
    Alcotest.test_case "Thm 4.2: hand-computed values" `Quick test_bound_hand_computed;
    Alcotest.test_case "Thm 4.2: k <= r gives no guarantee" `Quick
      test_bound_no_blunting_when_k_le_r;
    Alcotest.test_case "Thm 4.2: single process vacuous" `Quick
      test_bound_two_processes_vacuous;
    Alcotest.test_case "min_k_for" `Quick test_min_k_for;
    Alcotest.test_case "bound argument validation" `Quick test_bound_invalid_args;
    Alcotest.test_case "round-based recipe" `Quick test_round_based_recipe;
    Alcotest.test_case "round-based plain fallback on ABD" `Quick
      test_round_based_fallback_abd;
    QCheck_alcotest.to_alcotest prop_bound_monotone_in_k;
    QCheck_alcotest.to_alcotest prop_bound_sandwich;
    QCheck_alcotest.to_alcotest prop_bound_limit;
  ]
