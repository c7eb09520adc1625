(** The ABD register simulation in a message-passing system.

    Multi-writer variant (Lynch–Shvartsman [20], Algorithm 3 in the paper):
    both [read] and [write] start with a {e query} phase — broadcast
    ["query"], wait for a majority of ["reply"] messages, keep the
    (value, timestamp) pair with the largest timestamp — followed by an
    {e update} phase — broadcast ["update"], wait for a majority of ["ack"]s.
    A reader writes back the value it read; a writer announces the new value
    under timestamp [(t+1, self)].

    Every process also runs the server role: it answers queries with its
    current (value, timestamp) pair and applies updates with larger
    timestamps (the {!Sim.Obj_impl.t} message handler).

    The object is linearizable but famously {e not} strongly linearizable
    [6, 8]; it {e is} tail strongly linearizable w.r.t. the preamble mapping
    that ends preambles right after the query phase (Theorem 5.1), and the
    query phase is effect-free, so the preamble-iterating transformation
    applies — [make_k] is Algorithm 4's [ABD^k].

    The single-writer variant ([3]) lets the unique writer skip the query
    phase and use a locally increasing sequence number (here a runtime
    nonce, which is globally increasing and therefore increasing at the
    writer). *)

(** [quorum n] is the majority size [n/2 + 1] used by both phases. *)
val quorum : int -> int

(** The preamble/tail factoring of ABD: the preamble of both methods is the
    query phase, the tail is the update phase (Section 5.1). *)
val split : name:string -> n:int -> Transform.split

(** [make ~name ~n ~init] is the plain multi-writer ABD register for [n]
    processes. Methods: ["read"] (returns the value) and ["write"] (returns
    [Unit]). *)
val make : name:string -> n:int -> init:Util.Value.t -> Sim.Obj_impl.t

(** [make_k ~k ~name ~n ~init] is [ABD^k] (Algorithm 4): each operation runs
    [k] query phases and uses a uniformly chosen one. [make_k ~k:1] performs
    the degenerate object random step [random(\[1..1\])], as Algorithm 2
    prescribes. *)
val make_k : k:int -> name:string -> n:int -> init:Util.Value.t -> Sim.Obj_impl.t

(** Single-writer original ABD [3]: only [writer] may invoke ["write"]; the
    write's preamble is empty. *)
val make_single_writer :
  name:string -> n:int -> writer:int -> init:Util.Value.t -> Sim.Obj_impl.t

(** Negative control: ABD with the reader's write-back (line 23 of
    Algorithm 3) removed. The result is {e regular} but not linearizable —
    two sequential reads can observe a concurrent write in new-then-old
    order. It exists so the test suite can demonstrate the linearizability
    checker catching a real protocol bug. *)
val make_no_writeback : name:string -> n:int -> init:Util.Value.t -> Sim.Obj_impl.t
