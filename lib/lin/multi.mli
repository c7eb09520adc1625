(** Multi-object linearizability and locality.

    Linearizability is {e local} (Herlihy–Wing): a history over several
    objects is linearizable iff each per-object projection is. The paper
    leans on the analogous locality of tail strong linearizability
    (Theorem 3.1) to reason about programs using several objects (the
    weakener uses two registers).

    This module offers both sides: the compositional check (each object's
    slice of the history's operation table, {!History.Hist.ops}, checked
    on its own) and a direct monolithic check of the whole table against
    the product specification, so the test suite can confirm their
    agreement on real program histories. Both build the table once. *)

(** [check_local specs h] checks each object's projection against its
    specification; [specs] maps object names to specifications. Objects
    appearing in [h] but not in [specs] make the check fail. *)
val check_local : (string * History.Spec.t) list -> History.Hist.t -> bool

(** [check_local_result specs h] is {!check_local} with a diagnostic: on
    failure it names the first offending object (unknown to [specs], or
    with a non-linearizable projection). The fuzzer's linearizability
    oracle reports this string in corpus files. *)
val check_local_result :
  (string * History.Spec.t) list -> History.Hist.t -> (unit, string) result

(** [check_monolithic specs h] checks [h] directly against the product
    machine whose abstract state is the tuple of all objects' states.
    Exponentially more expensive than {!check_local}; exists as the
    locality cross-check. *)
val check_monolithic : (string * History.Spec.t) list -> History.Hist.t -> bool
