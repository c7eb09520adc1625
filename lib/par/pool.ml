(* Worker domains block on [work]; a parallel region enqueues one task per
   worker that repeatedly grabs chunks of the index space from a shared
   cursor. The caller runs the same chunk loop, so all [jobs] domains pull
   from one queue and the region ends when the cursor is exhausted AND every
   participant has finished its last chunk (tracked by [active]). *)

type task = unit -> unit

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* signalled when a task is enqueued or on shutdown *)
  queue : task Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    if Queue.is_empty t.queue && not t.stopping then begin
      (* traced as an idle slice only when the worker actually blocks *)
      Obs.Ring.record Obs.Ring.Pool_idle_start 0 0;
      while Queue.is_empty t.queue && not t.stopping do
        Condition.wait t.work t.mutex
      done;
      Obs.Ring.record Obs.Ring.Pool_idle_stop 0 0
    end;
    if Queue.is_empty t.queue && t.stopping then Mutex.unlock t.mutex
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      task ();
      loop ()
    end
  in
  loop ()

(* Process-wide count of live worker domains across every pool: incremented
   at spawn, decremented after the join in [shutdown]. Lets callers (and the
   test suite) assert that an exception unwinding through [with_pool] left
   no domain behind. *)
let spawned = Atomic.make 0

let spawned_domains () = Atomic.get spawned

let domain_ids t = List.map (fun d -> (Domain.get_id d :> int)) t.workers

let create ~jobs =
  if jobs < 1 then invalid_arg "Par.Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun _ ->
        let d = Domain.spawn (fun () -> worker_loop t) in
        Atomic.incr spawned;
        d);
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  let ws = t.workers in
  t.workers <- [];
  List.iter
    (fun d ->
      Domain.join d;
      Atomic.decr spawned)
    ws

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* A region: a cursor over [0, n), a completion latch, and the first
   exception any participant hit. *)
type 'a region = {
  n : int;
  chunk : int;
  next : int Atomic.t;
  results : 'a array;
  f : int -> 'a;
  done_mutex : Mutex.t;
  done_cond : Condition.t;
  mutable active : int;  (* participants still inside the chunk loop *)
  mutable error : exn option;
}

let chunk_loop r =
  (try
     let rec go () =
       let lo = Atomic.fetch_and_add r.next r.chunk in
       if lo < r.n && (Mutex.lock r.done_mutex; let e = r.error in Mutex.unlock r.done_mutex; e = None)
       then begin
         let hi = min r.n (lo + r.chunk) in
         Obs.Ring.record Obs.Ring.Pool_task_start lo hi;
         for i = lo to hi - 1 do
           r.results.(i) <- r.f i
         done;
         Obs.Ring.record Obs.Ring.Pool_task_stop lo hi;
         go ()
       end
     in
     go ()
   with e ->
     Mutex.lock r.done_mutex;
     if r.error = None then r.error <- Some e;
     Mutex.unlock r.done_mutex);
  Mutex.lock r.done_mutex;
  r.active <- r.active - 1;
  if r.active = 0 then Condition.broadcast r.done_cond;
  Mutex.unlock r.done_mutex

let check_args name t n =
  if n < 0 then invalid_arg ("Par.Pool." ^ name ^ ": negative size");
  if t.stopping then invalid_arg ("Par.Pool." ^ name ^ ": pool is shut down")

(* Run a region over indices [first, Array.length results) on
   [participants] domains, the caller included: enqueue one chunk loop
   per extra participant, run one here, wait for the region to quiesce,
   then re-raise the first exception any participant hit. *)
let run_region t ~participants ~chunk ~first results f =
  let r =
    {
      n = Array.length results;
      chunk;
      next = Atomic.make first;
      results;
      f;
      done_mutex = Mutex.create ();
      done_cond = Condition.create ();
      active = participants;
      error = None;
    }
  in
  Mutex.lock t.mutex;
  for _ = 2 to participants do
    Queue.add (fun () -> chunk_loop r) t.queue
  done;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  chunk_loop r;
  Mutex.lock r.done_mutex;
  while r.active > 0 do
    Condition.wait r.done_cond r.done_mutex
  done;
  let error = r.error in
  Mutex.unlock r.done_mutex;
  Option.iter raise error

let map t ~n f =
  check_args "map" t n;
  if n = 0 then [||]
  else if t.jobs = 1 || n = 1 then Array.init n f
  else begin
    (* index 0 is computed inline to seed the result array *)
    let results = Array.make n (f 0) in
    (* hand out several chunks per participant to absorb imbalance without
       paying cursor contention on every index *)
    let participants = min t.jobs n in
    let chunk = max 1 (n / (participants * 4)) in
    run_region t ~participants ~chunk ~first:1 results f;
    results
  end

let env_jobs () =
  match Sys.getenv_opt "BLUNTING_JOBS" with
  | None -> None
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> Some j
    | _ -> None)
