(** Call and return actions (Section 2.1 of the paper).

    A history is a sequence of these actions; every internal step of an
    implementation is invisible at this level. Invocation identifiers [inv]
    are unique within an execution and match a call action with its return
    action. *)

type inv_id = int

type call = {
  obj_name : string;  (** which shared object instance is invoked *)
  meth : string;  (** method name, e.g. ["read"], ["write"], ["scan"] *)
  arg : Util.Value.t;  (** the (single) argument; [Unit] when absent *)
  inv : inv_id;
  proc : int;  (** invoking process *)
  tag : string;  (** stable call-site tag used to key program outcomes *)
}

type t =
  | Call of call
  | Ret of { inv : inv_id; value : Util.Value.t; proc : int; obj_name : string }

val pp : Format.formatter -> t -> unit

(** [inv a] is the invocation identifier carried by [a]. *)
val inv : t -> inv_id

(** [proc a] is the process that performed [a]. *)
val proc : t -> int

(** [obj_name a] is the object the action belongs to. *)
val obj_name : t -> string
