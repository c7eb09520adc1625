(** Program outcomes (Section 2.3).

    An outcome maps shared-object method invocations — identified by their
    stable call-site tag plus occurrence number, which relates executions of
    the same program syntax — to the values they returned. Sets of "bad"
    outcomes are represented as predicates. *)

type t

val empty : t

(** [record t ~tag ~occurrence value] extends the outcome. *)
val record : t -> tag:string -> occurrence:int -> Util.Value.t -> t

(** [find t ~tag ~occurrence] is the recorded return value, if any. *)
val find : t -> tag:string -> occurrence:int -> Util.Value.t option

(** [find1 t tag] is [find t ~tag ~occurrence:0]. *)
val find1 : t -> string -> Util.Value.t option

(** [of_history h] builds an outcome from the completed operations of a
    history, using each call's [tag] and counting repeated tags. One pass
    over [h] indexes the returns by invocation id in an array, so ids
    must be non-negative (the runtime numbers them from 0); a negative
    id raises [Invalid_argument]. *)
val of_history : Hist.t -> t

val bindings : t -> ((string * int) * Util.Value.t) list
val pp : Format.formatter -> t -> unit
