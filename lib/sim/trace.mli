(** Execution traces.

    The runtime records every visible step; the history (call/return actions
    only) is a projection, and the richer entries drive the linearizability
    checkers (which need to know which control points an invocation passed)
    and the experiment reports (message and step counts). *)

type entry =
  | Action of History.Action.t
  | Reg_read of { proc : int; reg : Base_reg.id; value : Util.Value.t; inv : int option }
  | Reg_write of { proc : int; reg : Base_reg.id; value : Util.Value.t; inv : int option }
  | Sent of { msg_id : int; src : int; dst : int; msg : Message.t; inv : int option }
  | Delivered of { msg_id : int; src : int; dst : int; msg : Message.t; handled : bool }
  | Received of { msg_id : int; proc : int; msg : Message.t; inv : int option }
      (** a client consumed the message from its mailbox via [Recv] *)
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

type t

(** What the trace materializes. [Full] records every entry. [History]
    records only the semantically-load-bearing entries — [Action],
    [Labeled], [Noted], [Crashed] — and counts (but does not allocate)
    the hot per-event ones, so outcome extraction ([history]) and label
    queries still work while a long simulation allocates nothing per
    register/message/coin event. [count_steps] and [count_messages]
    stay exact at either level. The history linearizability checker
    reads only [history] and works at either level; the checkers and
    exporters that read register, message or coin entries need
    [Full]. *)
type level = Full | History

val create : ?level:level -> unit -> t

(** [full t] — whether this trace records hot per-event entries. Callers
    sitting on a hot path guard entry construction on this and call
    {!bump}/{!bump_sent} instead when it is [false]. *)
val full : t -> bool

val add : t -> entry -> unit

(** [bump t] counts one skipped entry ([count_steps] parity with a
    [Full] trace of the same run). *)
val bump : t -> unit

(** [bump_sent t] counts one skipped [Sent] entry. *)
val bump_sent : t -> unit

(** [entries t] in temporal order. The forward list is cached between
    [add]s, and the projections below fold over the internal reversed list
    directly, so repeated accessor calls on a finished trace are linear,
    not quadratic. *)
val entries : t -> entry list

(** [history t] is the projection on call/return actions. *)
val history : t -> History.Hist.t

(** [passed t ~inv ~lbl] holds when the invocation took a step at control
    point [lbl] (the paper's "passed" predicate, Section 3). *)
val passed : t -> inv:int -> lbl:string -> bool

(** [random_draws t] lists the random steps in order. *)
val random_draws : t -> (Proc.rand_kind * int * int) list
(** (kind, bound, result) triples. *)

(** [count_messages t] is the number of sends recorded. *)
val count_messages : t -> int

(** [count_steps t] is the total number of entries. *)
val count_steps : t -> int

(** [newest t k] is the [k] most recent recorded entries, in temporal
    order. It walks only those [k]: at [Full], the entries one step added
    are [newest t d] with [d] the step's [count_steps] delta, so an
    observer that folds each step's new entries stays linear in the
    run's length. *)
val newest : t -> int -> entry list

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
