open Sim

(* ---- script driver primitives ------------------------------------- *)

(* Step process p while it has an enabled client step: runs it up to its
   next blocking receive (or to termination). *)
let run_to_block t p =
  let continue () = List.mem (Runtime.Step p) (Runtime.enabled t) in
  while continue () do
    Runtime.step t (Runtime.Step p)
  done

(* Deliver the newest in-transit message matching the given shape: older
   same-shape messages are stale leftovers of completed phases (their
   sequence numbers no longer match), and the script always targets the
   process's current operation. *)
let deliver t ~obj ~tag ~src ~dst =
  let matches (m : Runtime.in_transit) =
    m.src = src && m.dst = dst
    && m.msg.obj_name = obj
    && Message.tag_of m.msg.body = tag
  in
  match List.find_opt matches (List.rev (Runtime.in_transit t)) with
  | Some m -> Runtime.step t (Runtime.Deliver m.msg_id)
  | None ->
      Fmt.failwith "figure1: no in-transit %s %s message p%d->p%d (transit: %a)"
        obj tag src dst
        (Fmt.list ~sep:(Fmt.any "; ") (fun ppf (m : Runtime.in_transit) ->
             Fmt.pf ppf "m%d p%d->p%d %a" m.msg_id m.src m.dst Message.pp m.msg))
        (Runtime.in_transit t)

(* Deliver a message and then let the receiving client run to its next
   block, consuming it. *)
let deliver_and_run t ~obj ~tag ~src ~dst =
  deliver t ~obj ~tag ~src ~dst;
  run_to_block t dst

(* Run everything concerning object [obj] and the given processes to
   quiescence: step any of them when possible, else deliver any in-transit
   message of [obj]. Messages of other objects are left untouched. *)
let drain t ~obj procs =
  let progress () =
    let evs = Runtime.enabled t in
    match List.find_opt (fun p -> List.mem (Runtime.Step p) evs) procs with
    | Some p ->
        Runtime.step t (Runtime.Step p);
        true
    | None -> (
        match
          List.find_opt
            (fun (m : Runtime.in_transit) -> m.msg.obj_name = obj)
            (Runtime.in_transit t)
        with
        | Some m ->
            Runtime.step t (Runtime.Deliver m.msg_id);
            true
        | None -> false)
  in
  while progress () do
    ()
  done

(* ---- the scripted attack ------------------------------------------ *)

(* Process ids: p0, p1 write R; p2 reads. Every process is also an ABD
   server for R and C. *)

let shared_prefix t =
  (* p0 invokes Write(0) on R and broadcasts its query *)
  run_to_block t 0;
  (* p0 receives the first reply to its query from itself: ⊥, (0,0) *)
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:0 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:0 ~dst:0;
  (* p1 invokes Write(1): full query phase with replies from servers 0, 1
     (all still ⊥, (0,0)), then broadcasts its update (1, (1,1)) *)
  run_to_block t 1;
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:1 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:1 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:0 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:1 ~dst:1;
  (* p2 invokes its first Read of R; its query reaches server 0 before
     p1's update does, so the frozen reply carries ⊥, (0,0) *)
  run_to_block t 2;
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:2 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:0 ~dst:2;
  (* p1's update reaches servers 0 and 1; both ack; its Write completes *)
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:1 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:1 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:0 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:1 ~dst:1;
  (* p1 now flips the coin (run_to_block above stopped at the write's
     pending acks; after completion p1's next step IS the coin flip, which
     run_to_block already executed as part of the ack consumption run).
     Then p1 performs its Write on C in full. *)
  drain t ~obj:"C" [ 1 ]

let case_coin_0 t =
  (* p0's second reply comes from the still-⊥ server 2 *)
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:0 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:2 ~dst:0;
  (* p0 adopts timestamp (1,0) and broadcasts its update; it reaches
     servers 0 and 2 (server 0 keeps (1,1), server 2 becomes (0,(1,0))) *)
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:0 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:0 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:0 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:2 ~dst:0;
  (* p2's second reply comes from itself, now holding (0,(1,0)): its first
     Read adopts (0,(1,0)) and returns 0 after writing back to servers 2
     and 0 *)
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:2 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:2 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:2 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:2 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:2 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:0 ~dst:2;
  (* p2's second Read queries servers 0 and 1, both holding (1,(1,1)):
     it returns 1 *)
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:2 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:2 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:0 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:1 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:2 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:2 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:0 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:1 ~dst:2;
  (* p2 reads C (after p1's write): c = 0 = u1, u2 = 1 = 1 - c *)
  drain t ~obj:"C" [ 2 ]

let case_coin_1 t =
  (* p0's second reply comes from server 1, carrying (1,(1,1)) *)
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:0 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:1 ~dst:0;
  (* p2's second reply also comes from server 1: its first Read adopts
     (1,(1,1)) and returns 1, writing back to servers 1 and 2 *)
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:2 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:1 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:2 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:2 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:1 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:2 ~dst:2;
  (* p0 adopts timestamp (2,0); its update (0,(2,0)) reaches every server *)
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:0 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:0 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:0 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:0 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:1 ~dst:0;
  (* p2's second Read queries servers 0 and 1, both holding (0,(2,0)):
     it returns 0 *)
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:2 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"query" ~src:2 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:0 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"reply" ~src:1 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:2 ~dst:0;
  deliver_and_run t ~obj:"R" ~tag:"update" ~src:2 ~dst:1;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:0 ~dst:2;
  deliver_and_run t ~obj:"R" ~tag:"ack" ~src:1 ~dst:2;
  (* p2 reads C: c = 1 = u1, u2 = 0 = 1 - c *)
  drain t ~obj:"C" [ 2 ]

let run ~coin =
  if coin <> 0 && coin <> 1 then invalid_arg "Figure1.run: coin must be 0 or 1";
  let config = Programs.Weakener.abd_config () in
  let t = Runtime.create config (Runtime.Tape [| coin |]) in
  shared_prefix t;
  if coin = 0 then case_coin_0 t else case_coin_1 t;
  (* mop up: finish every pending operation fairly so the schedule is
     complete (Section 2.4 assumes complete schedules) *)
  let rng = Util.Rng.of_int 0xF16 in
  (match
     Runtime.run t ~max_steps:100_000 (fun _t n -> Util.Rng.index rng n)
   with
  | Runtime.Completed -> ()
  | Runtime.Deadlocked -> failwith "figure1: deadlock during mop-up"
  | Runtime.Step_limit_reached -> failwith "figure1: mop-up step limit");
  t

let always_wins () =
  List.for_all
    (fun coin ->
      let t = run ~coin in
      Programs.Weakener.bad (Runtime.outcome t))
    [ 0; 1 ]
