(** Process code as a free monad over schedulable operations.

    A ['a Proc.t] value is a pure description of a process: a chain of
    operations, each of which the runtime resolves as one scheduled step.
    Because the description is pure (no hidden mutable state — fresh nonces
    come from the runtime via {!fresh}), running the same program with the
    same random tape and event schedule reproduces the same execution, which
    realizes the paper's [e\[P(O), v, s\]].

    Local computation lives inside the continuations and is invisible to the
    scheduler, matching the paper's step granularity (shared-object accesses,
    sends/receives, and random samplings are the visible steps).

    A sequence of binds is a tree of [Bind] nodes, not a chain of
    re-wrapped [Op]s: the runtime keeps each process's pending
    continuations on a stack, so a step costs the same at any call depth.
    Binding a smart constructor's result ([let* x = read_reg r in ...])
    builds one [Op] node and no [Bind] (see [Do]).

    [Recv] predicates must be pure: their answer on a message may depend
    only on that message (and on values fixed when the predicate was
    built). The runtime caches which processes can receive: it tests a
    predicate once per message when the message lands in the mailbox, and
    scans the mailbox once when the [Recv] becomes the process's next
    operation — not on every step. *)

type rand_kind =
  | Program_random  (** a [random(V)] instruction of the program itself *)
  | Object_random  (** the iteration choice added by the O^k transformation *)

type _ op =
  | Broadcast : Message.t -> unit op
      (** send to all [n] processes, including the sender *)
  | Send : int * Message.t -> unit op
  | Recv : string * (Message.t -> bool) -> Message.t op
      (** consume the oldest matching mailbox message; blocks while none
          matches. The string describes what is awaited, for traces. The
          predicate must be pure (see above). *)
  | Read_reg : Base_reg.id -> Util.Value.t op
  | Write_reg : Base_reg.id * Util.Value.t -> unit op
  | Rmw_reg : Base_reg.id * (Util.Value.t -> Util.Value.t * Util.Value.t) -> Util.Value.t op
      (** atomic read-modify-write: one indivisible step applies the
          function to the current value, stores the first component and
          returns the second — the primitive from which single-step
          (strongly linearizable) reference objects are built *)
  | Random : int * rand_kind -> int op  (** uniform sample from [0..n-1] *)
  | Fresh : int op  (** runtime-unique nonce (deterministic) *)
  | Label : string -> unit op  (** named control point, for preamble maps *)
  | Note : string * Util.Value.t -> unit op
      (** structured trace annotation (e.g. the timestamp an ABD operation
          adopted), invisible to other processes *)
  | Call_marker : {
      obj_name : string;
      meth : string;
      arg : Util.Value.t;
      tag : string;
    }
      -> int op  (** records a call action; returns the invocation id *)
  | Ret_marker : { inv : int; value : Util.Value.t } -> unit op

type 'a t =
  | Ret : 'a -> 'a t
  | Do : 'a op -> 'a t
      (** the operation alone, its result the code's value: what the
          smart constructors build. [Do o] means [Op (o, return)], so by
          the left-identity law [bind (Do o) f] is
          [Op (o, fun x -> bind (return x) f) = Op (o, f)]: {!bind} builds
          that node directly, and [let* x = Proc.read_reg r in ...] costs
          no [Bind] node *)
  | Op : 'b op * ('b -> 'a t) -> 'a t
  | Bind : 'b t * ('b -> 'a t) -> 'a t
      (** [m] then the continuation: {!bind}'s node, so binding is O(1)
          and the runtime, not each enclosing [bind], threads the
          continuations (see {!Runtime}'s continuation stack) *)

val return : 'a -> 'a t

(** [bind m f] is [f x] when [m] is [Ret x], [Op (o, f)] when [m] is
    [Do o], else one [Bind] node: it never walks or re-wraps [m]. *)
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t

(** Binding operators: [let*] is {!bind}, [let+] is {!map}. *)
module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
end

(** {1 Smart constructors} *)

val broadcast : Message.t -> unit t
val send : int -> Message.t -> unit t
val recv : descr:string -> (Message.t -> bool) -> Message.t t
val read_reg : Base_reg.id -> Util.Value.t t
val write_reg : Base_reg.id -> Util.Value.t -> unit t
val rmw_reg : Base_reg.id -> (Util.Value.t -> Util.Value.t * Util.Value.t) -> Util.Value.t t
val random : kind:rand_kind -> int -> int t
val fresh : int t
val label : string -> unit t
val note : string -> Util.Value.t -> unit t

(** [repeat n body] runs [body 0], ..., [body (n-1)] and collects results. *)
val repeat : int -> (int -> 'a t) -> 'a list t

(** [iter xs f] runs [f x] for each [x] in order. *)
val iter : 'a list -> ('a -> unit t) -> unit t

(** [seq ps] runs the processes in order, discarding results. *)
val seq : unit t list -> unit t
