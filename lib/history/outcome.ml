module Key = struct
  type t = string * int

  let compare (t1, o1) (t2, o2) =
    let c = String.compare t1 t2 in
    if c <> 0 then c else Int.compare o1 o2
end

module M = Map.Make (Key)

type t = Util.Value.t M.t

let empty = M.empty
let record t ~tag ~occurrence v = M.add (tag, occurrence) v t
let find t ~tag ~occurrence = M.find_opt (tag, occurrence) t
let find1 t tag = find t ~tag ~occurrence:0

(* the next occurrence of [tag]: one past the last recorded (keys of one
   tag are contiguous in the map and counted up from 0) *)
let next_occurrence t tag =
  match M.find_last_opt (fun (tag', _) -> String.compare tag' tag <= 0) t with
  | Some ((tag', occ), _) when String.equal tag' tag -> occ + 1
  | _ -> 0

(* [rets.(i)] for an invocation [i] without a return: a block of its own,
   told apart by physical equality *)
let no_ret = Util.Value.Str (String.make 1 '?')

(* One pass over the actions collects the calls (newest first) and
   indexes each return's value by invocation id in [rets], grown to
   cover the largest id; the completed calls are then numbered per tag
   in call order. A later return of an id replaces an earlier one. *)
let of_history h =
  let rets = ref [||] in
  let rec scan calls = function
    | [] -> calls
    | Action.Call c :: rest -> scan (c :: calls) rest
    | Action.Ret r :: rest ->
        let n = Array.length !rets in
        if r.inv >= n then begin
          let a = Array.make (max (2 * n) (r.inv + 1)) no_ret in
          Array.blit !rets 0 a 0 n;
          rets := a
        end;
        !rets.(r.inv) <- r.value;
        scan calls rest
  in
  let calls = scan [] h in
  let rets = !rets in
  List.fold_left
    (fun acc (c : Action.call) ->
      if c.inv >= Array.length rets || rets.(c.inv) == no_ret then acc
      else record acc ~tag:c.tag ~occurrence:(next_occurrence acc c.tag) rets.(c.inv))
    empty (List.rev calls)

let bindings = M.bindings

let pp ppf t =
  let item ppf ((tag, occ), v) = Fmt.pf ppf "%s/%d = %a" tag occ Util.Value.pp v in
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") item) (bindings t)
