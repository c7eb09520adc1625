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

(* Every function below reads an operation table ([Hist.ops] or a
   slice of it). A chosen set is a bitset over table positions, one bit
   per operation. *)
let empty_set (ops : Hist.op array) =
  Bytes.make ((Array.length ops + 7) / 8) '\000'

let bit i = 1 lsl (i land 7)
let mem set i = Char.code (Bytes.get set (i lsr 3)) land bit i <> 0

let flip set i =
  let b = i lsr 3 in
  Bytes.set set b (Char.chr (Char.code (Bytes.get set b) lxor bit i))

(* The earliest return among the completed operations not yet chosen,
   [max_int] when every completed operation is chosen (a pending
   operation's [ret_index] is [max_int]). Operation [i] may be linearized
   next iff [call_index i] is below it: no unchosen operation returned
   before [i] was called. *)
let min_ret (ops : Hist.op array) set =
  let m = ref max_int in
  Array.iteri
    (fun i (o : Hist.op) ->
      if o.ret_index < !m && not (mem set i) then m := o.ret_index)
    ops;
  !m

(* Linearize operation [i] at [state]: its step and the successor state,
   if the specification accepts the call and agrees with the recorded
   return. *)
let apply (spec : Spec.t) (ops : Hist.op array) state i =
  let o = ops.(i) in
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
let search (spec : Spec.t) ops =
  let n = Array.length ops in
  let set = empty_set ops in
  let failed = Hashtbl.create 97 in
  let rec dfs steps state =
    Obs.Metrics.incr M.nodes;
    let bound = min_ret ops set in
    if bound = max_int then Some (List.rev steps)
    else begin
      let k = (Bytes.to_string set, state) in
      if Hashtbl.mem failed k then None
      else begin
        let rec try_from i =
          if i >= n then None
          else if mem set i || ops.(i).call_index > bound then
            try_from (i + 1)
          else
            match apply spec ops state i with
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

let find spec h = search spec (Hist.ops h)
let check_ops spec ops = Option.is_some (search spec ops)
let check spec h = check_ops spec (Hist.ops h)

(* Replay a proposed prefix, checking feasibility. Returns the chosen set
   and resulting state, or None. *)
let replay_prefix (spec : Spec.t) ops prefix =
  let set = empty_set ops in
  let rec go state = function
    | [] -> Some (set, state)
    | (s : lin_step) :: rest -> (
        match
          Array.find_index (fun (o : Hist.op) -> o.call.inv = s.inv) ops
        with
        | None -> None
        | Some i -> (
            let o = ops.(i) in
            if
              mem set i || o.call.meth <> s.meth
              || (not (Value.equal o.call.arg s.arg))
              || o.call_index > min_ret ops set
            then None
            else
              match apply spec ops state i with
              | Some (step, state') when Value.equal step.ret s.ret ->
                  flip set i;
                  go state' rest
              | _ -> None))
  in
  go spec.init prefix

let validate spec h lin =
  let ops = Hist.ops h in
  match replay_prefix spec ops lin with
  | None -> false
  | Some (set, _) -> min_ret ops set = max_int

let linearizations_extending (spec : Spec.t) (h : Hist.t) prefix : linearization Seq.t =
  let ops = Hist.ops h in
  match replay_prefix spec ops prefix with
  | None -> Seq.empty
  | Some (set0, state0) ->
      let n = Array.length ops in
      (* lazy DFS producing every valid extension of the prefix; a branch
         is forced after its siblings were generated, so each owns a copy
         of its chosen set *)
      let rec gen steps set state () =
        let bound = min_ret ops set in
        let here =
          if bound = max_int then Seq.return (prefix @ List.rev steps)
          else Seq.empty
        in
        let deeper =
          Seq.init n Fun.id
          |> Seq.concat_map (fun i ->
                 if mem set i || ops.(i).call_index > bound then Seq.empty
                 else
                   match apply spec ops state i with
                   | None -> Seq.empty
                   | Some (step, state') ->
                       let set' = Bytes.copy set in
                       flip set' i;
                       gen (step :: steps) set' state')
        in
        Seq.append here deeper ()
      in
      gen [] set0 state0
