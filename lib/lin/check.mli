(** Linearizability checking (Herlihy–Wing).

    A history is linearizable w.r.t. a sequential specification iff the
    completed operations, plus a subset of the pending ones, can be ordered
    into a sequence that (i) replays through the specification with matching
    return values and (ii) respects real-time precedence (an operation that
    returned before another was called stays before it).

    The checker is a depth-first search over partial linearizations with
    memoization on (set of linearized invocations, abstract state) — the
    standard Wing–Gong/Lowe algorithm. Each check builds one operation
    table, the history's operations in call order as an array. The set of
    linearized operations is a bitset over table positions (one bit per
    operation, so any history length works), flipped in place as the
    search descends and restored on backtrack; the memo key is the
    bitset's bytes paired with the state. Real-time order is one rule per
    node: an operation may be linearized next iff it was called before
    the earliest return among the completed operations not yet
    linearized. When no such return is left, every completed operation
    is linearized and the search has a witness. *)

(** One step of a linearization: an invocation and the return value the
    specification assigns to it (for pending invocations, the value their
    completion would return). *)
type lin_step = { inv : History.Action.inv_id; meth : string; arg : Util.Value.t; ret : Util.Value.t }

type linearization = lin_step list

(** [check spec h] decides whether [h] is linearizable w.r.t. [spec].
    [h] must be well-formed. *)
val check : History.Spec.t -> History.Hist.t -> bool

(** [find spec h] additionally produces a witness linearization. *)
val find : History.Spec.t -> History.Hist.t -> linearization option

(** [validate spec h lin] checks that the given sequence is a valid
    linearization of [h]: legal replay, matching returns, real-time order
    respected, and containing every completed operation of [h]. *)
val validate : History.Spec.t -> History.Hist.t -> linearization -> bool

(** [linearizations_extending spec h prefix] lazily enumerates all valid
    linearizations of [h] that have [prefix] as a prefix. [prefix] itself is
    not re-validated beyond feasibility of its replay. Intended for the
    small histories used by the strong-linearizability tree checker. *)
val linearizations_extending :
  History.Spec.t -> History.Hist.t -> linearization -> linearization Seq.t

val pp_linearization : Format.formatter -> linearization -> unit
