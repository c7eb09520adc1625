type entry =
  | Action of History.Action.t
  | Reg_read of { proc : int; reg : Base_reg.id; value : Util.Value.t; inv : int option }
  | Reg_write of { proc : int; reg : Base_reg.id; value : Util.Value.t; inv : int option }
  | Sent of { msg_id : int; src : int; dst : int; msg : Message.t; inv : int option }
  | Delivered of { msg_id : int; src : int; dst : int; msg : Message.t; handled : bool }
  | Received of { msg_id : int; proc : int; msg : Message.t; inv : int option }
  | Randomized of {
      proc : int;
      kind : Proc.rand_kind;
      bound : int;
      result : int;
      inv : int option;
    }
  | Labeled of { proc : int; name : string; inv : int option }
  | Noted of { proc : int; name : string; value : Util.Value.t; inv : int option }
  | Crashed of int

type level = Full | History

type t = {
  level : level;
  mutable rev_entries : entry list;
  mutable count : int;
  mutable forward : entry list option;  (* cache of [List.rev rev_entries] *)
  mutable sent : int;
}

let create ?(level = Full) () =
  { level; rev_entries = []; count = 0; forward = None; sent = 0 }

let full t = t.level = Full

let add t e =
  t.rev_entries <- e :: t.rev_entries;
  t.count <- t.count + 1;
  t.forward <- None;
  match e with Sent _ -> t.sent <- t.sent + 1 | _ -> ()

(* skipped-entry counting: [count]/[sent] agree with a [Full] trace *)
let bump t = t.count <- t.count + 1

let bump_sent t =
  t.count <- t.count + 1;
  t.sent <- t.sent + 1

let entries t =
  match t.forward with
  | Some l -> l
  | None ->
      let l = List.rev t.rev_entries in
      t.forward <- Some l;
      l

let newest t k =
  let rec take acc k = function
    | e :: rest when k > 0 -> take (e :: acc) (k - 1) rest
    | _ -> acc
  in
  take [] k t.rev_entries

(* Selective projections fold over [rev_entries] directly: consing onto the
   accumulator while walking newest-to-oldest yields temporal order without
   materializing (or invalidating) the forward list. *)
let rev_fold_filter f t =
  List.fold_left (fun acc e -> match f e with Some x -> x :: acc | None -> acc)
    [] t.rev_entries

let history t = rev_fold_filter (function Action a -> Some a | _ -> None) t

let labels_of_inv t inv =
  rev_fold_filter
    (function
      | Labeled { name; inv = Some i; _ } when i = inv -> Some name | _ -> None)
    t

let passed t ~inv ~lbl =
  List.exists
    (function
      | Labeled { name; inv = Some i; _ } -> i = inv && String.equal name lbl
      | _ -> false)
    t.rev_entries

let random_draws t =
  rev_fold_filter
    (function
      | Randomized { kind; bound; result; _ } -> Some (kind, bound, result)
      | _ -> None)
    t

let count_messages t = t.sent
let count_steps t = t.count

let pp_inv ppf = function None -> () | Some i -> Fmt.pf ppf " #%d" i

let pp_entry ppf = function
  | Action a -> History.Action.pp ppf a
  | Reg_read { proc; reg; value; inv } ->
      Fmt.pf ppf "p%d reads %a = %a%a" proc Base_reg.pp_id reg Util.Value.pp value
        pp_inv inv
  | Reg_write { proc; reg; value; inv } ->
      Fmt.pf ppf "p%d writes %a := %a%a" proc Base_reg.pp_id reg Util.Value.pp
        value pp_inv inv
  | Sent { msg_id; src; dst; msg; inv } ->
      Fmt.pf ppf "p%d sends m%d to p%d: %a%a" src msg_id dst Message.pp msg pp_inv
        inv
  | Delivered { msg_id; src; dst; msg; handled } ->
      Fmt.pf ppf "m%d (p%d->p%d) delivered%s: %a" msg_id src dst
        (if handled then " [server]" else " [mailbox]")
        Message.pp msg
  | Received { msg_id; proc; msg; inv } ->
      Fmt.pf ppf "p%d consumes m%d: %a%a" proc msg_id Message.pp msg pp_inv inv
  | Randomized { proc; kind; bound; result; inv } ->
      Fmt.pf ppf "p%d %s-random(%d) = %d%a" proc
        (match kind with Proc.Program_random -> "program" | Proc.Object_random -> "object")
        bound result pp_inv inv
  | Labeled { proc; name; inv } -> Fmt.pf ppf "p%d at <%s>%a" proc name pp_inv inv
  | Noted { proc; name; value; inv } ->
      Fmt.pf ppf "p%d notes %s = %a%a" proc name Util.Value.pp value pp_inv inv
  | Crashed p -> Fmt.pf ppf "p%d crashes" p

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_entry) (entries t)
