type k = int

(* Two sound state-space reductions are applied relative to the raw
   message-level semantics; neither changes the adversary-optimal value:

   - Reply fusion. Delivering a query to a server freezes the reply content
     (the server's current pair); consuming the reply later only updates the
     client's private (got, best) accumulator, which is invisible to other
     processes until the client's own advance step — itself an adversary
     move. Delivering at most [quorum] queries per phase and folding the
     reply into the accumulator at query-delivery time therefore reaches
     exactly the same set of outcomes (a frozen-but-unconsumed third reply
     is equivalent to never delivering that query, because ABD query
     processing does not change server state).

   - Ack fusion. An ack only increments the counter that enables the
     client's completion step, again adversary-controlled; folding the ack
     into update delivery (when the originating operation is still waiting
     and below quorum) preserves the value for the same reason.

   Update messages, by contrast, must remain independently deliverable
   after their operation completes: Figure 1's adversary relies on such
   straggler updates, and they do change server state. *)

module Game = struct
  (* A state is the packed byte string laid out in the interface: its own
     memo key, so [encode] is the identity and a memo probe blits it. The
     model reads fields by offset, found by one scan of the length bytes
     from the front; [apply] builds each child with one [Bytes.create],
     blits of the parent's unchanged runs and a few byte edits.

     Values: -1 encodes ⊥. Timestamps are (integer, process id) pairs
     with lexicographic order; (0, 0) is the initial timestamp. Registers
     are numbered 0 ([R]) and 1 ([C]; atomic or a second ABD^k instance,
     per [atomic_c]). *)
  type state = string

  type move =
    | Client of int  (* process p performs its next client step *)
    | DQuery of int * int  (* deliver p's query to server s (reply fused) *)
    | DUpdate of int  (* deliver the i-th in-transit update message *)

  type transition = Det of state | Chance of (float * state) list

  (* ---- bytes ---- *)

  (* Lengths, counters and values are stored as [v + 120]; bools and
     option tags as 0/1. The code is monotone, so comparing bytes
     compares values: two timestamps compare as their (ts, pid) bytes, a
     (value, ts, pid) triple and a 7-byte update record as [compare] on
     their fields. States are only ever read through [Bytes.unsafe_of_string]
     views and never written after they are frozen. *)
  let[@inline] u8 d i = Char.code (Bytes.get d i)
  let[@inline] get d i = u8 d i - 120

  let out_of_range v =
    invalid_arg
      (Printf.sprintf
         "Weakener_abd: value %d outside the one-byte range -120..134" v)

  let[@inline] set b i v =
    if v < -120 || v > 134 then out_of_range v;
    Bytes.set b i (Char.unsafe_chr (v + 120))

  let rec cmp_bytes a i b j n =
    if n = 0 then 0
    else
      let c = u8 a i - u8 b j in
      if c <> 0 then c else cmp_bytes a (i + 1) b (j + 1) (n - 1)

  (* the timestamp of the triple at [i] in [a] is below that at [j] in [b] *)
  let ts_lt a i b j =
    let ta = u8 a (i + 1) and tb = u8 b (j + 1) in
    ta < tb || (ta = tb && u8 a (i + 2) < u8 b (j + 2))

  (* ---- layout ---- *)

  let[@inline] ns d = get d 1
  let[@inline] quorum d = (ns d / 2) + 1

  (* server [srv]'s triple in register [obj]'s column *)
  let[@inline] server d obj srv =
    (if obj = 0 then 4 else 5 + (3 * ns d)) + (3 * srv)

  let[@inline] first_proc d = 5 + (6 * ns d)

  (* In a process block at [o] holding an op: its opseq byte. The phase
     tag follows it. *)
  let[@inline] opseq_at d o = if get d (o + 3) = 0 then o + 4 else o + 5

  (* In a Query phase at [ph]: the [queried] length byte, followed by the
     [ns] bools, [got] and [best]. *)
  let[@inline] cur_at d ph = ph + 3 + (3 * get d (ph + 2))

  let phase_end d ph =
    match get d ph with
    | 0 -> cur_at d ph + ns d + 5
    | 1 -> ph + 2 + (3 * get d (ph + 1))
    | _ -> ph + 5

  let reads_at d o =
    if u8 d (o + 1) = 0 then o + 2 else phase_end d (opseq_at d o + 1)

  let proc_end d o =
    let r = reads_at d o in
    r + 1 + get d r

  let[@inline] proc o0 o1 o2 p = if p = 0 then o0 else if p = 1 then o1 else o2

  (* ---- normalization: prune inert update messages ---- *)

  let origin_waiting d o opseq =
    u8 d (o + 1) = 1
    &&
    let q = opseq_at d o in
    get d q = opseq && get d (q + 1) = 2 && get d (q + 5) < quorum d

  (* The record at [i] in [src] still matters in the child [b]: its
     destination's timestamp is below its payload's, or its operation
     still waits for acks. *)
  let live b ~o0 ~o1 ~o2 src i =
    ts_lt b (server b (get src i) (get src (i + 4))) src (i + 1)
    || origin_waiting b (proc o0 o1 o2 (get src (i + 5))) (get src (i + 6))

  (* Writes the child's update list at [w] in [b] and returns its end: the
     parent's sorted records at [u] in [d] but the [skip]-th (-1: none),
     merged with the [nx] sorted records of [x], minus those the child
     makes inert. The child's servers and processes precede the list in
     [b] and are already written; its processes start at [o0], [o1] and
     [o2]. *)
  let write_updates b w ~o0 ~o1 ~o2 d u ~skip x nx =
    let n = get d u in
    let i = ref 0 and j = ref 0 and at = ref (w + 1) and kept = ref 0 in
    while !i < n || !j < nx do
      if !i = skip then incr i
      else begin
        let old =
          !j >= nx
          || (!i < n && cmp_bytes d (u + 1 + (7 * !i)) x (7 * !j) 7 <= 0)
        in
        let src = if old then d else x in
        let r = if old then u + 1 + (7 * !i) else 7 * !j in
        if old then incr i else incr j;
        if live b ~o0 ~o1 ~o2 src r then begin
          (* two overlapping 4-byte moves: no call into the runtime *)
          Bytes.set_int32_ne b !at (Bytes.get_int32_ne src r);
          Bytes.set_int32_ne b (!at + 3) (Bytes.get_int32_ne src (r + 3));
          at := !at + 7;
          incr kept
        end
      end
    done;
    set b w !kept;
    !at

  let[@inline] tail_at d u = u + 1 + (7 * get d u)

  let copy_tail b w d t =
    let n = Bytes.length d - t in
    Bytes.blit d t b w n;
    w + n

  let freeze b len =
    if len = Bytes.length b then Bytes.unsafe_to_string b
    else Bytes.sub_string b 0 len

  (* ---- enabled moves ---- *)

  let client_enabled d o p =
    if u8 d (o + 1) = 0 then
      let pc = get d o in
      if p = 0 then pc = 0 else pc <= 2
    else
      let ph = opseq_at d o + 1 in
      match get d ph with
      | 0 -> get d (cur_at d ph + ns d + 1) >= quorum d
      | 1 -> true
      | _ -> get d (ph + 4) >= quorum d

  (* The bad outcome is already impossible when a completed read of p2
     mismatches the (known) coin: the game value from here is 0 whatever the
     adversary does, so such states are terminal. This prunes roughly half
     of the tree below every "wrong" read. *)
  let outcome_impossible d o2 t =
    let coin = get d t in
    coin >= 0
    &&
    let r = reads_at d o2 in
    let n = get d r in
    n >= 1 && (get d (r + 1) <> coin || (n >= 2 && get d (r + 2) <> 1 - coin))

  (* Clients, then query deliveries (by process, then server), then
     updates; built back to front. *)
  let moves s =
    let d = Bytes.unsafe_of_string s in
    let ns = ns d in
    let o0 = first_proc d in
    let o1 = proc_end d o0 in
    let o2 = proc_end d o1 in
    let u = proc_end d o2 in
    (* once p2 finished, the outcome is fixed: treat as terminal *)
    if get d o2 >= 3 || outcome_impossible d o2 (tail_at d u) then []
    else begin
      let acc = ref [] in
      for i = get d u - 1 downto 0 do
        acc := DUpdate i :: !acc
      done;
      for p = 2 downto 0 do
        let o = proc o0 o1 o2 p in
        if u8 d (o + 1) = 1 then begin
          let ph = opseq_at d o + 1 in
          if get d ph = 0 then begin
            let c = cur_at d ph in
            if get d (c + ns + 1) < quorum d then
              for srv = ns - 1 downto 0 do
                if u8 d (c + 1 + srv) = 0 then acc := DQuery (p, srv) :: !acc
              done
          end
        end
      done;
      for p = 2 downto 0 do
        if client_enabled d (proc o0 o1 o2 p) p then acc := Client p :: !acc
      done;
      !acc
    end

  (* ---- applying moves ---- *)

  (* A fresh query accumulator at [w]: no server queried, no reply, ⊥. *)
  let fresh_cur b w ns =
    set b w ns;
    Bytes.fill b (w + 1) ns '\000';
    set b (w + ns + 1) 0;
    Bytes.fill b (w + ns + 2) 3 '\119' (* ⊥ = (-1, -1, -1) *)

  (* Process block at [o] (no op) starts an op on register [obj]: a read,
     or a write of [v] when [write], in its first query phase. *)
  let start_op s d o ~obj ~write ~v ~opseq =
    let ns = ns d in
    let w = if write then o + 5 else o + 4 in
    let shift = w - o + ns + 7 in
    let b = Bytes.create (String.length s + shift) in
    Bytes.blit d 0 b 0 (o + 1);
    Bytes.set b (o + 1) '\001';
    set b (o + 2) obj;
    if write then begin
      set b (o + 3) 1;
      set b (o + 4) v
    end
    else set b (o + 3) 0;
    set b w opseq;
    set b (w + 1) 0;
    set b (w + 2) 0;
    set b (w + 3) 0;
    fresh_cur b (w + 4) ns;
    Bytes.blit d (o + 2) b (o + 2 + shift) (String.length s - o - 2);
    Bytes.unsafe_to_string b

  (* The phase's best reply joins the sorted results; then the next query
     phase, or the random choice after the k-th. *)
  let advance_query s d o =
    let ns = ns d in
    let ph = opseq_at d o + 1 in
    let idx = get d (ph + 1) and n = get d (ph + 2) in
    let c = cur_at d ph in
    let best = c + ns + 2 and pe = c + ns + 5 in
    let more = idx + 1 < get d 0 in
    let shift = if more then 3 else 2 + (3 * (n + 1)) - (pe - ph) in
    let b = Bytes.create (String.length s + shift) in
    Bytes.blit d 0 b 0 ph;
    let w =
      if more then begin
        set b ph 0;
        set b (ph + 1) (idx + 1);
        set b (ph + 2) (n + 1);
        ph + 3
      end
      else begin
        set b ph 1;
        set b (ph + 1) (n + 1);
        ph + 2
      end
    in
    let res = ph + 3 in
    let rec place i =
      if i < n && cmp_bytes d (res + (3 * i)) d best 3 <= 0 then place (i + 1)
      else i
    in
    let at = place 0 in
    Bytes.blit d res b w (3 * at);
    Bytes.blit d best b (w + (3 * at)) 3;
    Bytes.blit d (res + (3 * at)) b (w + (3 * at) + 3) (3 * (n - at));
    if more then fresh_cur b (w + (3 * (n + 1))) ns;
    Bytes.blit d pe b (pe + shift) (String.length s - pe);
    Bytes.unsafe_to_string b

  (* The object random step: each recorded result, uniformly, becomes the
     payload (a read's value, or a write's value at the next timestamp)
     broadcast to every server. *)
  let choose_iteration s d ~o0 ~o1 ~o2 ~u p =
    let ns = ns d in
    let o = proc o0 o1 o2 p in
    let q = opseq_at d o in
    let ph = q + 1 in
    let n = get d (ph + 1) in
    let pe = ph + 2 + (3 * n) in
    let shift = 5 - (pe - ph) in
    let write = get d (o + 3) = 1 in
    let t = tail_at d u in
    let x = Bytes.create (7 * ns) in
    let outcome i =
      let chosen = ph + 2 + (3 * i) in
      let b = Bytes.create (String.length s + shift + (7 * ns)) in
      Bytes.blit d 0 b 0 ph;
      set b ph 2;
      if write then begin
        Bytes.set b (ph + 1) (Bytes.get d (o + 4));
        set b (ph + 2) (get d (chosen + 1) + 1);
        set b (ph + 3) p
      end
      else Bytes.blit d chosen b (ph + 1) 3;
      set b (ph + 4) 0;
      Bytes.blit d pe b (pe + shift) (u - pe);
      for dest = 0 to ns - 1 do
        let r = 7 * dest in
        Bytes.set x r (Bytes.get d (o + 2));
        Bytes.blit b (ph + 1) x (r + 1) 3;
        set x (r + 4) dest;
        set x (r + 5) p;
        Bytes.set x (r + 6) (Bytes.get d q)
      done;
      let o1 = if p < 1 then o1 + shift else o1
      and o2 = if p < 2 then o2 + shift else o2 in
      let w = write_updates b (u + shift) ~o0 ~o1 ~o2 d u ~skip:(-1) x ns in
      freeze b (copy_tail b w d t)
    in
    let pr = 1.0 /. float_of_int n in
    Chance (List.init n (fun i -> (pr, outcome i)))

  (* The op's acks reached quorum: a read of [R] records its value, a
     read of [C] sets [cread]; the process moves to its next step. *)
  let complete_op s d ~o0 ~o1 ~o2 ~u p =
    let o = proc o0 o1 o2 p in
    let ph = opseq_at d o + 1 in
    let v = get d (ph + 1) in
    let read = get d (o + 3) = 0 in
    let push = read && get d (o + 2) = 0 and cread = read && get d (o + 2) = 1 in
    let r = ph + 5 in
    let nr = get d r in
    let pe = r + 1 + nr in
    let t = tail_at d u in
    let shift = 3 + nr + Bool.to_int push - (pe - o) in
    let b = Bytes.create (String.length s + shift + Bool.to_int cread) in
    Bytes.blit d 0 b 0 o;
    set b o (get d o + 1);
    Bytes.set b (o + 1) '\000';
    set b (o + 2) (nr + Bool.to_int push);
    Bytes.blit d (r + 1) b (o + 3) nr;
    if push then set b (o + 3 + nr) v;
    Bytes.blit d pe b (pe + shift) (u - pe);
    let o1 = if p < 1 then o1 + shift else o1
    and o2 = if p < 2 then o2 + shift else o2 in
    let w = write_updates b (u + shift) ~o0 ~o1 ~o2 d u ~skip:(-1) Bytes.empty 0 in
    if cread then begin
      assert (u8 d (t + 2) = 0);
      Bytes.blit d t b w 2;
      Bytes.set b (w + 2) '\001';
      set b (w + 3) v;
      freeze b (w + 4)
    end
    else freeze b (copy_tail b w d t)

  (* A same-length copy of [s] with the process at [o] at [pc]. *)
  let with_pc s o pc =
    let b = Bytes.of_string s in
    set b o pc;
    b

  let client_step s d ~o0 ~o1 ~o2 ~u p =
    let o = proc o0 o1 o2 p in
    if u8 d (o + 1) = 1 then
      match get d (opseq_at d o + 1) with
      | 0 -> Det (advance_query s d o)
      | 1 -> choose_iteration s d ~o0 ~o1 ~o2 ~u p
      | _ -> Det (complete_op s d ~o0 ~o1 ~o2 ~u p)
    else
      let t = tail_at d u and atomic_c = u8 d 2 = 1 in
      match (p, get d o) with
      | 0, 0 -> Det (start_op s d o ~obj:0 ~write:true ~v:0 ~opseq:0)
      | 1, 0 -> Det (start_op s d o ~obj:0 ~write:true ~v:1 ~opseq:0)
      | 1, 1 ->
          let flip v =
            let b = with_pc s o 2 in
            set b t v;
            Bytes.unsafe_to_string b
          in
          Chance [ (0.5, flip 0); (0.5, flip 1) ]
      | 1, 2 ->
          if atomic_c then begin
            let b = with_pc s o 3 in
            Bytes.set b (t + 1) (Bytes.get d t);
            Det (Bytes.unsafe_to_string b)
          end
          else Det (start_op s d o ~obj:1 ~write:true ~v:(get d t) ~opseq:2)
      | 2, 0 -> Det (start_op s d o ~obj:0 ~write:false ~v:0 ~opseq:0)
      | 2, 1 -> Det (start_op s d o ~obj:0 ~write:false ~v:0 ~opseq:1)
      | 2, 2 ->
          if atomic_c then begin
            (* cread goes from None (the last byte) to Some creg *)
            assert (t + 3 = String.length s);
            let b = Bytes.extend d 0 1 in
            set b o 3;
            Bytes.set b (t + 2) '\001';
            Bytes.set b (t + 3) (Bytes.get d (t + 1));
            Det (Bytes.unsafe_to_string b)
          end
          else Det (start_op s d o ~obj:1 ~write:false ~v:0 ~opseq:2)
      | _ -> assert false

  (* fused: freeze the server's pair and fold it into the client's
     accumulator in one indivisible event *)
  let deliver_query s d o srv =
    let ns = ns d in
    let c = cur_at d (opseq_at d o + 1) in
    let got = c + ns + 1 and best = c + ns + 2 in
    let reply = server d (get d (o + 2)) srv in
    let b = Bytes.of_string s in
    Bytes.set b (c + 1 + srv) '\001';
    set b got (get d got + 1);
    if ts_lt d best d reply then Bytes.blit d reply b best 3;
    Bytes.unsafe_to_string b

  let deliver_update s d ~o0 ~o1 ~o2 ~u i =
    let m = u + 1 + (7 * i) in
    let b = Bytes.create (String.length s - 7) in
    Bytes.blit d 0 b 0 u;
    let srv = server d (get d m) (get d (m + 4)) in
    if ts_lt d srv d (m + 1) then Bytes.blit d (m + 1) b srv 3;
    (* fused ack *)
    let o = proc o0 o1 o2 (get d (m + 5)) in
    if origin_waiting d o (get d (m + 6)) then begin
      let acks = opseq_at d o + 5 in
      set b acks (get d acks + 1)
    end;
    let w = write_updates b u ~o0 ~o1 ~o2 d u ~skip:i Bytes.empty 0 in
    freeze b (copy_tail b w d (tail_at d u))

  let apply s move =
    let d = Bytes.unsafe_of_string s in
    let o0 = first_proc d in
    let o1 = proc_end d o0 in
    let o2 = proc_end d o1 in
    let u = proc_end d o2 in
    match move with
    | Client p -> client_step s d ~o0 ~o1 ~o2 ~u p
    | DQuery (p, srv) -> Det (deliver_query s d (proc o0 o1 o2 p) srv)
    | DUpdate i -> Det (deliver_update s d ~o0 ~o1 ~o2 ~u i)

  let terminal_value s =
    let d = Bytes.unsafe_of_string s in
    let o2 = proc_end d (proc_end d (first_proc d)) in
    let t = tail_at d (proc_end d o2) in
    if u8 d (t + 2) = 0 then 0.0
    else
      let c = get d (t + 3) in
      let r = reads_at d o2 in
      if
        (c = 0 || c = 1)
        && get d r = 2
        && get d (r + 1) = c
        && get d (r + 2) = 1 - c
      then 1.0
      else 0.0

  let encode s = s
  let encode_into s b = Mdp.Key.raw b s

  let pp_move ppf = function
    | Client p -> Fmt.pf ppf "client(p%d)" p
    | DQuery (p, srv) -> Fmt.pf ppf "query(p%d->s%d)" p srv
    | DUpdate i -> Fmt.pf ppf "update[%d]" i
end

module S = Mdp.Solver.Make (Game)

let init ?(atomic_c = true) ?(servers = 3) ~k () : Game.state =
  if k < 1 then invalid_arg "Weakener_abd.init: k >= 1 required";
  if servers < 3 then invalid_arg "Weakener_abd.init: at least 3 servers";
  let open Game in
  let ns = servers in
  let b = Bytes.create (5 + (6 * ns) + 13) in
  set b 0 k;
  set b 1 ns;
  Bytes.set b 2 (if atomic_c then '\001' else '\000');
  List.iter
    (fun col ->
      set b col ns;
      for srv = 0 to ns - 1 do
        set b (col + 1 + (3 * srv)) (-1);
        set b (col + 2 + (3 * srv)) 0;
        set b (col + 3 + (3 * srv)) 0
      done)
    [ 3; 4 + (3 * ns) ];
  let o = 5 + (6 * ns) in
  for p = 0 to 2 do
    set b (o + (3 * p)) 0;
    Bytes.set b (o + (3 * p) + 1) '\000';
    set b (o + (3 * p) + 2) 0
  done;
  set b (o + 9) 0;
  set b (o + 10) (-1);
  set b (o + 11) (-1);
  Bytes.set b (o + 12) '\000';
  Bytes.unsafe_to_string b

let bad_probability ?memo_budget ?(atomic_c = true) ?(servers = 3)
    ?(prune = false) ~k () =
  S.value ?memo_budget ~prune (init ~atomic_c ~servers ~k ())
let best_move = S.best_move
let store_stats () = S.store_stats ()
let explored_states () = S.explored ()
let pruned_subtrees () = S.pruned_subtrees ()
let reset () = S.reset ()
let solver_stats () = S.stats ()
