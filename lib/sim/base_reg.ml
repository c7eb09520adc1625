open Util

type id = { obj_name : string; reg : string; index : int list }

type decl = {
  id : id;
  init : Value.t;
  writers : int list option;
  readers : int list option;
}

exception Discipline_violation of string

type cell = { decl : decl; mutable value : Value.t }

(* the order polymorphic [compare] gives [id] (fields in declaration
   order), without its C call *)
let compare_id a b =
  let c = String.compare a.obj_name b.obj_name in
  if c <> 0 then c
  else
    let c = String.compare a.reg b.reg in
    if c <> 0 then c else List.compare Int.compare a.index b.index

module IdMap = Map.Make (struct
  type t = id

  let compare = compare_id
end)

type store = { mutable cells : cell IdMap.t }

let id ~obj_name ?(index = []) reg = { obj_name; reg; index }

let pp_id ppf i =
  Fmt.pf ppf "%s.%s%a" i.obj_name i.reg
    (Fmt.list ~sep:Fmt.nop (fun ppf k -> Fmt.pf ppf "[%d]" k))
    i.index

let create_store decls =
  let cells =
    List.fold_left
      (fun acc d -> IdMap.add d.id { decl = d; value = d.init } acc)
      IdMap.empty decls
  in
  { cells }

let find store rid =
  match IdMap.find_opt rid store.cells with
  | Some c -> c
  | None ->
      raise (Discipline_violation (Fmt.str "undeclared register %a" pp_id rid))

let check_allowed kind allowed proc rid =
  match allowed with
  | None -> ()
  | Some procs ->
      if not (List.exists (Int.equal proc) procs) then
        raise
          (Discipline_violation
             (Fmt.str "process %d may not %s %a" proc kind pp_id rid))

let read store rid ~reader =
  let c = find store rid in
  check_allowed "read" c.decl.readers reader rid;
  c.value

let write store rid ~writer v =
  let c = find store rid in
  check_allowed "write" c.decl.writers writer rid;
  c.value <- v

let snapshot store =
  IdMap.fold (fun rid c acc -> (rid, c.value) :: acc) store.cells []
