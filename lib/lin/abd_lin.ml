open Util

(* An invocation of the object, from its call on: the value and timestamp
   of its first "adopted" note, and whether it has returned. *)
type inv_state = {
  call : History.Action.call;
  mutable adopted : (Value.t * Value.t) option;
  mutable returned : bool;
}

(* f of the invocations seen so far (newest first): the adopted ones
   whose timestamp is at most the greatest returned one, sorted by
   (timestamp, writes before reads, invocation id). *)
let f invs =
  let adopted =
    List.filter_map
      (fun o -> Option.map (fun (value, ts) -> (o, value, ts)) o.adopted)
      invs
  in
  let returned_ts =
    List.filter_map
      (fun (o, _, ts) -> if o.returned then Some ts else None)
      adopted
  in
  match List.sort (Fun.flip Value.ts_compare) returned_ts with
  | [] -> []
  | max_ts :: _ ->
      let kind o = if o.call.meth = "write" then 0 else 1 in
      let order (a, _, ta) (b, _, tb) =
        let c = Value.ts_compare ta tb in
        if c <> 0 then c else compare (kind a, a.call.inv) (kind b, b.call.inv)
      in
      List.filter (fun (_, _, ts) -> Value.ts_compare ts max_ts <= 0) adopted
      |> List.sort order
      |> List.map (fun (o, value, _) ->
             {
               Check.inv = o.call.inv;
               meth = o.call.meth;
               arg = o.call.arg;
               ret = (if o.call.meth = "read" then value else Value.unit);
             })

(* Fold the trace entries in order, tracking each invocation of
   [obj_name]. After every entry that changes the tracking and leaves the
   prefix Π-complete (every invocation called so far has adopted a
   timestamp), [at_complete] gets the invocations; [false] stops the
   fold with [None]. A prefix ending in an entry that changes nothing
   has the same f as the prefix before it, so it is skipped. Returns the
   invocations at the end, newest first. *)
let track ~obj_name ~at_complete entries =
  let invs = ref [] and unadopted = ref 0 in
  let find inv = List.find_opt (fun o -> o.call.inv = inv) !invs in
  let changed = function
    | Sim.Trace.Action (History.Action.Call c) when c.obj_name = obj_name ->
        invs := { call = c; adopted = None; returned = false } :: !invs;
        incr unadopted;
        true
    | Sim.Trace.Action (History.Action.Ret r) -> (
        match find r.inv with
        | Some o when not o.returned ->
            o.returned <- true;
            true
        | _ -> false)
    | Sim.Trace.Noted { name = "adopted"; value; inv = Some i; _ } -> (
        match find i with
        | Some o when o.adopted = None ->
            o.adopted <- Some (Value.to_pair value);
            decr unadopted;
            true
        | _ -> false)
    | _ -> false
  in
  let rec go = function
    | [] -> Some !invs
    | e :: rest ->
        if changed e && !unadopted = 0 && not (at_complete !invs) then None
        else go rest
  in
  go entries

let linearize ~obj_name entries : Check.linearization =
  Option.fold ~none:[] ~some:f
    (track ~obj_name ~at_complete:(fun _ -> true) entries)

let is_prefix_of short long =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | (a : Check.lin_step) :: ra, (b : Check.lin_step) :: rb ->
        a.inv = b.inv && Value.equal a.ret b.ret && go (ra, rb)
  in
  go (short, long)

let prefix_preserving ~obj_name trace =
  (* the empty prefix is complete, with f = [] *)
  let last = ref [] in
  let at_complete invs =
    let lin = f invs in
    is_prefix_of !last lin
    && begin
         last := lin;
         true
       end
  in
  Option.is_some (track ~obj_name ~at_complete (Sim.Trace.entries trace))
