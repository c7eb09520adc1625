type t = Action.t list

type op = {
  call : Action.call;
  ret : Util.Value.t option;
  call_index : int;
  ret_index : int;
}

(* One pass: a call appends an operation to a growing array; a return
   completes the latest operation of its invocation, found by scanning
   back from the newest call. *)
let ops h =
  let buf = ref [||] and n = ref 0 in
  List.iteri
    (fun i a ->
      match a with
      | Action.Call c ->
          let o =
            { call = c; ret = None; call_index = i; ret_index = max_int }
          in
          if !n = Array.length !buf then
            buf := Array.append !buf (Array.make (max 8 !n) o);
          !buf.(!n) <- o;
          incr n
      | Action.Ret r ->
          let rec finish j =
            if j >= 0 then
              let o = !buf.(j) in
              if o.call.inv = r.inv then
                !buf.(j) <- { o with ret = Some r.value; ret_index = i }
              else finish (j - 1)
          in
          finish (!n - 1))
    h;
  Array.sub !buf 0 !n

let pending h = List.filter (fun o -> o.ret = None) (Array.to_list (ops h))

let complete h =
  let pending_invs = List.map (fun o -> o.call.inv) (pending h) in
  List.filter
    (fun a ->
      match a with
      | Action.Call c -> not (List.mem c.inv pending_invs)
      | Action.Ret _ -> true)
    h

let project_obj h name = List.filter (fun a -> Action.obj_name a = name) h
let project_proc h p = List.filter (fun a -> Action.proc a = p) h

let well_formed h =
  let seen_call = Hashtbl.create 16 and seen_ret = Hashtbl.create 16 in
  let pending_of_proc = Hashtbl.create 16 in
  let step ok a =
    ok
    &&
    match a with
    | Action.Call c ->
        if Hashtbl.mem seen_call c.inv then false
        else if Hashtbl.mem pending_of_proc c.proc then false
        else begin
          Hashtbl.replace seen_call c.inv ();
          Hashtbl.replace pending_of_proc c.proc c.inv;
          true
        end
    | Action.Ret r ->
        if (not (Hashtbl.mem seen_call r.inv)) || Hashtbl.mem seen_ret r.inv then false
        else if Hashtbl.find_opt pending_of_proc r.proc <> Some r.inv then false
        else begin
          Hashtbl.replace seen_ret r.inv ();
          Hashtbl.remove pending_of_proc r.proc;
          true
        end
  in
  List.fold_left step true h

let is_sequential h =
  let rec go = function
    | [] -> true
    | Action.Call c :: Action.Ret r :: rest -> r.inv = c.inv && go rest
    | _ -> false
  in
  go h

let precedes _h a b = a.ret_index < b.call_index

let pp ppf h = Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut Action.pp) h
