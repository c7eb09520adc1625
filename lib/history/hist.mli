(** Histories: the projection of an execution on call and return actions. *)

type t = Action.t list
(** Actions in temporal order. *)

(** A completed or pending operation extracted from a history. *)
type op = {
  call : Action.call;
  ret : Util.Value.t option;  (** [None] when the invocation is pending *)
  call_index : int;  (** position of the call action in the history *)
  ret_index : int;
      (** position of the return action; [max_int] while pending, so
          [a.ret_index < b.call_index] is the real-time order *)
}

(** [ops h] is the operation table of [h]: its operations in call order,
    built in one pass. A return completes the latest earlier call of its
    invocation. Every linearizability check reads this table; a slice of
    it (say, one object's operations) keeps the history's positions, so
    real-time order within the slice is unchanged. *)
val ops : t -> op array

(** [pending h] lists the operations without a matching return. *)
val pending : t -> op list

(** [complete h] removes the call actions of pending invocations. *)
val complete : t -> t

(** [project_obj h name] keeps only the actions of object [name]. *)
val project_obj : t -> string -> t

(** [project_proc h p] keeps only the actions of process [p]. *)
val project_proc : t -> int -> t

(** [well_formed h] checks the conditions of Section 2.1: at most one call and
    one return per invocation identifier, every return preceded by its call,
    and per-process sequentiality (a process has at most one pending
    invocation at a time). *)
val well_formed : t -> bool

(** [is_sequential h] holds when every call is immediately followed by its
    return, i.e. [h] could be a history of an atomic object. *)
val is_sequential : t -> bool

(** [precedes h a b] holds when operation [a] returns before operation [b] is
    called (the real-time order that linearizations must respect). *)
val precedes : t -> op -> op -> bool

val pp : Format.formatter -> t -> unit
