open Util
open Sim
open Sim.Proc.Syntax

let obj_name = "benor"
let bottom = -1

(* the protocol is pure message passing: the object only names the message
   namespace, it has no server role and no registers *)
let channel : Obj_impl.t =
  {
    name = obj_name;
    invoke = (fun ~self:_ ~meth:_ ~arg:_ -> Proc.return Value.unit);
    on_message = None;
    init_server = None;
    registers = (fun ~n:_ -> []);
  }

let phase_msg tag round v =
  Message.make ~obj_name (Message.tagged tag (Value.pair (Value.int round) (Value.int v)))

let decide_msg v = Message.make ~obj_name (Message.tagged "decide" (Value.int v))

(* Await [need] phase messages of (tag, round); a "decide" message
   short-circuits the wait. *)
let collect ~tag ~round ~need =
  let wanted (m : Message.t) =
    m.obj_name = obj_name
    &&
    let t = Message.tag_of m.body in
    (t = "decide")
    || t = tag
       && Value.to_int (fst (Value.to_pair (Message.payload_of m.body))) = round
  in
  let rec go got =
    if List.length got >= need then Proc.return (`Votes got)
    else
      let* m = Proc.recv ~descr:(tag ^ "@" ^ string_of_int round) wanted in
      match Message.tag_of m.body with
      | "decide" -> Proc.return (`Decided (Value.to_int (Message.payload_of m.body)))
      | _ ->
          let v = Value.to_int (snd (Value.to_pair (Message.payload_of m.body))) in
          go (v :: got)
  in
  go []

let count x votes = List.length (List.filter (( = ) x) votes)

let config ~n ~f ~inputs ~max_rounds : Runtime.config =
  if n <= 2 * f then invalid_arg "Ben_or.config: need n > 2f";
  if List.length inputs <> n then invalid_arg "Ben_or.config: |inputs| <> n";
  let need = n - f in
  let program ~self =
    let decide v =
      let* () = Proc.note "decision" (Value.int v) in
      let* () = Proc.broadcast (decide_msg v) in
      Proc.label (Fmt.str "decided.%d" self)
    in
    let rec round r x =
      if r >= max_rounds then Proc.label (Fmt.str "gave_up.%d" self)
      else begin
        (* phase 1: report the estimate *)
        let* () = Proc.broadcast (phase_msg "p1" r x) in
        let* r1 = collect ~tag:"p1" ~round:r ~need in
        match r1 with
        | `Decided v -> decide v
        | `Votes votes ->
            let proposal =
              match List.find_opt (fun v -> 2 * count v votes > n) [ 0; 1 ] with
              | Some v -> v
              | None -> bottom
            in
            (* phase 2: report the proposal *)
            let* () = Proc.broadcast (phase_msg "p2" r proposal) in
            let* r2 = collect ~tag:"p2" ~round:r ~need in
            (match r2 with
            | `Decided v -> decide v
            | `Votes props -> (
                match
                  List.find_opt (fun v -> count v props >= f + 1) [ 0; 1 ]
                with
                | Some v -> decide v
                | None -> (
                    match List.find_opt (fun v -> count v props >= 1) [ 0; 1 ] with
                    | Some v -> round (r + 1) v
                    | None ->
                        let* c = Proc.random ~kind:Proc.Program_random 2 in
                        round (r + 1) c)))
      end
    in
    round 0 (List.nth inputs self)
  in
  { n; objects = [ channel ]; program; max_crashes = f }

let decisions trace ~n =
  let noted =
    List.filter_map
      (function
        | Trace.Noted { proc; name = "decision"; value; _ } ->
            Some (proc, Value.to_int value)
        | _ -> None)
      (Trace.entries trace)
  in
  List.init n (fun p -> List.assoc_opt p noted)

let agreement ds =
  let decided = List.filter_map Fun.id ds in
  match decided with [] -> true | v :: rest -> List.for_all (( = ) v) rest

let validity ~inputs ds =
  List.for_all
    (function Some v -> List.mem v inputs | None -> true)
    ds
