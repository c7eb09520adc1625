open Util

type register_impl =
  | Atomic
  | Abd
  | Abd_k of int
  | Va
  | Va_k of int
  | Il
  | Abd_no_writeback

type t =
  | Weakener of { registers : register_impl }
  | Registers of { impl : register_impl; n : int }
  | Snapshots of { k : int; n : int }

let equal (a : t) (b : t) = a = b

(* ---- generation ----------------------------------------------------- *)

let gen_k rng = 1 + Rng.int rng 3

let gen_weakener_registers rng =
  match Rng.int rng 4 with
  | 0 -> Atomic
  | 1 -> Abd
  | 2 -> Abd_k (gen_k rng)
  | _ -> Va

let gen_register_impl rng =
  match Rng.int rng 5 with
  | 0 -> Abd
  | 1 -> Abd_k (gen_k rng)
  | 2 -> Va
  | 3 -> Va_k (gen_k rng)
  | _ -> Il

let generate ~planted rng =
  (* n is pinned to 3 for the planted bug: with more writers the extra
     timestamp traffic masks the stale second read almost entirely. *)
  if planted then Registers { impl = Abd_no_writeback; n = 3 }
  else
    match Rng.int rng 6 with
    | 0 | 1 -> Weakener { registers = gen_weakener_registers rng }
    | 2 | 3 | 4 -> Registers { impl = gen_register_impl rng; n = 2 + Rng.int rng 3 }
    | _ -> Snapshots { k = Rng.int rng 3; n = 2 + Rng.int rng 2 }

(* ---- assembly ------------------------------------------------------- *)

let reg_object ~name ~n ~init = function
  | Atomic -> Objects.Atomic_register.make ~name ~init
  | Abd -> Objects.Abd.make ~name ~n ~init
  | Abd_k k -> Objects.Abd.make_k ~k ~name ~n ~init
  | Va -> Objects.Vitanyi_awerbuch.make ~name ~n ~init
  | Va_k k -> Objects.Vitanyi_awerbuch.make_k ~k ~name ~n ~init
  | Il -> Objects.Israeli_li.make ~name ~n ~writer:0 ~init
  | Abd_no_writeback -> Objects.Abd.make_no_writeback ~name ~n ~init

let single_writer = function Il -> true | _ -> false

let config = function
  | Weakener { registers } -> (
      match registers with
      | Atomic -> Programs.Weakener.atomic_config ()
      | Il | Abd_no_writeback ->
          invalid_arg "Fuzz.Case.config: weakener needs multi-writer registers"
      | impl ->
          let n = Programs.Weakener.n_processes in
          Programs.Weakener.config
            ~r:(reg_object ~name:"R" ~n ~init:Value.none impl)
            ~c:(reg_object ~name:"C" ~n ~init:(Value.int (-1)) impl))
  | Registers { impl; n } ->
      let o = reg_object ~name:"R" ~n ~init:(Value.int 0) impl in
      let open Sim.Proc.Syntax in
      let program ~self =
        let call tag meth arg =
          Sim.Obj_impl.call o ~self ~tag ~meth ~arg
        in
        let reads =
          let* _ = call "r1" "read" Value.unit in
          let* _ = call "r2" "read" Value.unit in
          Sim.Proc.return ()
        in
        if single_writer impl then
          (* The IL writer may never read (Val[writer] is not even
             declared); readers never write. *)
          if self = 0 then
            let* _ = call "w1" "write" (Value.int 10) in
            let* _ = call "w2" "write" (Value.int 11) in
            Sim.Proc.return ()
          else reads
        else
          let* _ = call "w1" "write" (Value.int (10 + self)) in
          reads
      in
      {
        Sim.Runtime.n;
        objects = [ o ];
        program;
        max_crashes = 0;
      }
  | Snapshots { k; n } ->
      let o =
        if k = 0 then Objects.Afek_snapshot.make ~name:"S" ~n ~init:(Value.int 0)
        else Objects.Afek_snapshot.make_k ~k ~name:"S" ~n ~init:(Value.int 0)
      in
      let open Sim.Proc.Syntax in
      let program ~self =
        let call tag meth arg = Sim.Obj_impl.call o ~self ~tag ~meth ~arg in
        let* _ =
          call "u" "update"
            (Value.pair (Value.int self) (Value.int (self + 1)))
        in
        let* _ = call "s" "scan" Value.unit in
        Sim.Proc.return ()
      in
      {
        Sim.Runtime.n;
        objects = [ o ];
        program;
        max_crashes = 0;
      }

let specs = function
  | Weakener _ ->
      [
        ("R", History.Spec.register ~init:Value.none);
        ("C", History.Spec.register ~init:(Value.int (-1)));
      ]
  | Registers _ -> [ ("R", History.Spec.register ~init:(Value.int 0)) ]
  | Snapshots { n; _ } ->
      [ ("S", History.Spec.snapshot ~n ~init:(Value.int 0)) ]

let max_steps _ = 200_000

(* ---- serialization -------------------------------------------------- *)

let impl_to_string = function
  | Atomic -> "atomic"
  | Abd -> "abd"
  | Abd_k _ -> "abd-k"
  | Va -> "va"
  | Va_k _ -> "va-k"
  | Il -> "il"
  | Abd_no_writeback -> "abd-no-writeback"

let impl_k = function Abd_k k | Va_k k -> k | _ -> 0

let impl_of_string ~k = function
  | "atomic" -> Ok Atomic
  | "abd" -> Ok Abd
  | "abd-k" -> Ok (Abd_k k)
  | "va" -> Ok Va
  | "va-k" -> Ok (Va_k k)
  | "il" -> Ok Il
  | "abd-no-writeback" -> Ok Abd_no_writeback
  | s -> Error (Fmt.str "unknown register implementation %S" s)

let to_json case =
  let open Obs.Json in
  match case with
  | Weakener { registers } ->
      Obj
        [
          ("shape", String "weakener");
          ("impl", String (impl_to_string registers));
          ("k", Int (impl_k registers));
        ]
  | Registers { impl; n } ->
      Obj
        [
          ("shape", String "registers");
          ("impl", String (impl_to_string impl));
          ("k", Int (impl_k impl));
          ("n", Int n);
        ]
  | Snapshots { k; n } ->
      Obj [ ("shape", String "snapshots"); ("k", Int k); ("n", Int n) ]

let of_json j =
  let open Obs.Json in
  let str key = Option.bind (member key j) to_string_opt in
  let int key = Option.bind (member key j) to_int_opt in
  let k = Option.value ~default:0 (int "k") in
  match str "shape" with
  | Some "weakener" -> (
      match str "impl" with
      | Some s ->
          Result.map (fun registers -> Weakener { registers })
            (impl_of_string ~k s)
      | None -> Error "weakener case: missing impl")
  | Some "registers" -> (
      match (str "impl", int "n") with
      | Some s, Some n ->
          Result.map (fun impl -> Registers { impl; n }) (impl_of_string ~k s)
      | _ -> Error "registers case: missing impl or n")
  | Some "snapshots" -> (
      match int "n" with
      | Some n -> Ok (Snapshots { k; n })
      | None -> Error "snapshots case: missing n")
  | Some s -> Error (Fmt.str "unknown case shape %S" s)
  | None -> Error "case: missing shape"

let pp ppf = function
  | Weakener { registers } ->
      Fmt.pf ppf "weakener(%s%s)" (impl_to_string registers)
        (match impl_k registers with 0 -> "" | k -> Fmt.str ", k=%d" k)
  | Registers { impl; n } ->
      Fmt.pf ppf "registers(%s%s, n=%d)" (impl_to_string impl)
        (match impl_k impl with 0 -> "" | k -> Fmt.str ", k=%d" k)
        n
  | Snapshots { k; n } -> Fmt.pf ppf "snapshots(k=%d, n=%d)" k n
