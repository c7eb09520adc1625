open Util
open History

module M = struct
  open Obs.Metrics

  let nodes = counter ~help:"DFS nodes visited by the linearizability checker" "lin.nodes_visited"
  let backtracks = counter ~help:"DFS nodes exhausted without extension" "lin.backtracks"
  let checks = counter ~help:"linearizability checks run" "lin.checks"
end

type lin_step = { inv : Action.inv_id; meth : string; arg : Value.t; ret : Value.t }
type linearization = lin_step list

let pp_step ppf s =
  Fmt.pf ppf "%s(%a)#%d->%a" s.meth Value.pp s.arg s.inv Value.pp s.ret

let pp_linearization ppf l =
  Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") pp_step) l

(* The operation table: [Hist.ops] as an array, built once per check.
   Operation [i] is the history's [i]-th call; [ret_index.(i)] is the
   position of its return, [max_int] while it is pending. *)
type table = { ops : Hist.op array; ret_index : int array }

let table h =
  let ops = Array.of_list (Hist.ops h) in
  let ret_index =
    Array.map
      (fun (o : Hist.op) -> Option.value o.ret_index ~default:max_int)
      ops
  in
  { ops; ret_index }

(* A chosen set is a bitset over table positions, one bit per operation. *)
let empty_set tbl = Bytes.make ((Array.length tbl.ops + 7) / 8) '\000'
let bit i = 1 lsl (i land 7)
let mem set i = Char.code (Bytes.get set (i lsr 3)) land bit i <> 0

let flip set i =
  let b = i lsr 3 in
  Bytes.set set b (Char.chr (Char.code (Bytes.get set b) lxor bit i))

(* The earliest return among the completed operations not yet chosen,
   [max_int] when every completed operation is chosen. Operation [i] may
   be linearized next iff [call_index i] is below it: no unchosen
   operation returned before [i] was called. *)
let min_ret tbl set =
  let m = ref max_int in
  Array.iteri
    (fun i r -> if r < !m && not (mem set i) then m := r)
    tbl.ret_index;
  !m

(* Linearize operation [i] at [state]: its step and the successor state,
   if the specification accepts the call and agrees with the recorded
   return. *)
let apply (spec : Spec.t) tbl state i =
  let o = tbl.ops.(i) in
  match spec.apply state ~meth:o.call.meth ~arg:o.call.arg with
  | None -> None
  | Some (state', ret) -> (
      match o.ret with
      | Some expected when not (Value.equal expected ret) -> None
      | _ ->
          let step =
            { inv = o.call.inv; meth = o.call.meth; arg = o.call.arg; ret }
          in
          Some (step, state'))

(* Depth-first search for a witness, trying operations in call order. The
   chosen set is flipped in place and restored on backtrack; exhausted
   (chosen set, state) pairs are memoized. *)
let search (spec : Spec.t) tbl =
  let n = Array.length tbl.ops in
  let set = empty_set tbl in
  let failed = Hashtbl.create 97 in
  let rec dfs steps state =
    Obs.Metrics.incr M.nodes;
    let bound = min_ret tbl set in
    if bound = max_int then Some (List.rev steps)
    else begin
      let k = (Bytes.to_string set, state) in
      if Hashtbl.mem failed k then None
      else begin
        let rec try_from i =
          if i >= n then None
          else if mem set i || tbl.ops.(i).call_index > bound then
            try_from (i + 1)
          else
            match apply spec tbl state i with
            | None -> try_from (i + 1)
            | Some (step, state') -> (
                flip set i;
                let found = dfs (step :: steps) state' in
                flip set i;
                match found with Some _ -> found | None -> try_from (i + 1))
        in
        let found = try_from 0 in
        if Option.is_none found then begin
          Obs.Metrics.incr M.backtracks;
          Hashtbl.replace failed k ()
        end;
        found
      end
    end
  in
  Obs.Metrics.incr M.checks;
  dfs [] spec.init

let find spec h = search spec (table h)
let check spec h = Option.is_some (find spec h)

(* Replay a proposed prefix, checking feasibility. Returns the chosen set
   and resulting state, or None. *)
let replay_prefix (spec : Spec.t) tbl prefix =
  let set = empty_set tbl in
  let n = Array.length tbl.ops in
  let rec index inv i =
    if i >= n then None
    else if tbl.ops.(i).call.inv = inv then Some i
    else index inv (i + 1)
  in
  let rec go state = function
    | [] -> Some (set, state)
    | (s : lin_step) :: rest -> (
        match index s.inv 0 with
        | None -> None
        | Some i -> (
            let o = tbl.ops.(i) in
            if
              mem set i || o.call.meth <> s.meth
              || (not (Value.equal o.call.arg s.arg))
              || o.call_index > min_ret tbl set
            then None
            else
              match apply spec tbl state i with
              | Some (step, state') when Value.equal step.ret s.ret ->
                  flip set i;
                  go state' rest
              | _ -> None))
  in
  go spec.init prefix

let validate spec h lin =
  let tbl = table h in
  match replay_prefix spec tbl lin with
  | None -> false
  | Some (set, _) -> min_ret tbl set = max_int

let linearizations_extending (spec : Spec.t) (h : Hist.t) prefix : linearization Seq.t =
  let tbl = table h in
  match replay_prefix spec tbl prefix with
  | None -> Seq.empty
  | Some (set0, state0) ->
      let n = Array.length tbl.ops in
      (* lazy DFS producing every valid extension of the prefix; a branch
         is forced after its siblings were generated, so each owns a copy
         of its chosen set *)
      let rec gen steps set state () =
        let bound = min_ret tbl set in
        let here =
          if bound = max_int then Seq.return (prefix @ List.rev steps)
          else Seq.empty
        in
        let deeper =
          Seq.init n Fun.id
          |> Seq.concat_map (fun i ->
                 if mem set i || tbl.ops.(i).call_index > bound then Seq.empty
                 else
                   match apply spec tbl state i with
                   | None -> Seq.empty
                   | Some (step, state') ->
                       let set' = Bytes.copy set in
                       flip set' i;
                       gen (step :: steps) set' state')
        in
        Seq.append here deeper ()
      in
      gen [] set0 state0
