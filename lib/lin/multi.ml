open Util
open History

(* The first object called in [h] that [specs] does not specify. *)
let unknown specs h =
  List.find_map
    (function
      | Action.Call c when not (List.mem_assoc c.obj_name specs) ->
          Some c.obj_name
      | _ -> None)
    h

let known specs h = Option.is_none (unknown specs h)

let check_local_result specs h =
  match unknown specs h with
  | Some name -> Error (Fmt.str "object %s has no specification" name)
  | None -> (
      match
        List.find_opt
          (fun (name, spec) -> not (Check.check spec (Hist.project_obj h name)))
          specs
      with
      | Some (name, _) ->
          Error (Fmt.str "history of object %s is not linearizable" name)
      | None -> Ok ())

let check_local specs h = Result.is_ok (check_local_result specs h)

(* The product specification: abstract state is the list of component
   states in [specs] order; methods are dispatched by prefixing the object
   name, which we encode by rewriting the history's method names. *)
let check_monolithic specs h =
  known specs h
  &&
  let product : Spec.t =
    {
      name = "product";
      init = Value.list (List.map (fun (_, (s : Spec.t)) -> s.init) specs);
      apply =
        (fun state ~meth ~arg ->
          match String.index_opt meth '/' with
          | None -> None
          | Some i ->
              let obj = String.sub meth 0 i in
              let m = String.sub meth (i + 1) (String.length meth - i - 1) in
              let rec go names states =
                match (names, states) with
                | (name, (spec : Spec.t)) :: names', st :: states' ->
                    if name = obj then
                      match spec.apply st ~meth:m ~arg with
                      | Some (st', ret) -> Some (st' :: states', ret)
                      | None -> None
                    else begin
                      match go names' states' with
                      | Some (rest, ret) -> Some (st :: rest, ret)
                      | None -> None
                    end
                | _ -> None
              in
              (match go specs (Value.to_list state) with
              | Some (states', ret) -> Some (Value.list states', ret)
              | None -> None));
    }
  in
  let tagged =
    List.map
      (fun a ->
        match a with
        | Action.Call c -> Action.Call { c with meth = c.obj_name ^ "/" ^ c.meth }
        | Action.Ret _ -> a)
      h
  in
  Check.check product tagged
