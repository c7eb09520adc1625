open Util
open History

let check_local_result specs h =
  (* one pass over the table from the back: each operation joins its
     object's slice (so every slice stays in call order), and the last
     unknown object met is the first called *)
  let slices = List.map (fun (name, spec) -> (name, spec, ref [])) specs in
  let unknown =
    Array.fold_right
      (fun (o : Hist.op) unknown ->
        match
          List.find_opt (fun (name, _, _) -> name = o.call.obj_name) slices
        with
        | Some (_, _, slice) ->
            slice := o :: !slice;
            unknown
        | None -> Some o.call.obj_name)
      (Hist.ops h) None
  in
  match unknown with
  | Some name -> Error (Fmt.str "object %s has no specification" name)
  | None -> (
      match
        List.find_opt
          (fun (_, spec, slice) ->
            not (Check.check_ops spec (Array.of_list !slice)))
          slices
      with
      | Some (name, _, _) ->
          Error (Fmt.str "history of object %s is not linearizable" name)
      | None -> Ok ())

let check_local specs h = Result.is_ok (check_local_result specs h)

(* The product specification: abstract state is the list of component
   states in [specs] order; methods are dispatched by prefixing the object
   name, which we encode by rewriting the table's method names. *)
let check_monolithic specs h =
  let ops = Hist.ops h in
  Array.for_all (fun (o : Hist.op) -> List.mem_assoc o.call.obj_name specs) ops
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
    Array.map
      (fun (o : Hist.op) ->
        let meth = o.call.obj_name ^ "/" ^ o.call.meth in
        { o with call = { o.call with meth } })
      ops
  in
  Check.check_ops product tagged
