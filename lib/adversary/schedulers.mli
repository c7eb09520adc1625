(** Schedulers: adversaries as functions from the full runtime state (strong
    adversaries observe everything, including past random results) and the
    number of enabled events to a choice.

    A scheduler returns a position in the runtime's enabled order (steps
    by process, then deliveries in send order, then crashes; see
    {!Sim.Runtime.enabled}) and reads any event it needs with
    {!Sim.Runtime.enabled_nth}. Nothing builds the enabled list. *)

type t = Sim.Runtime.t -> int -> int

(** [uniform rng] picks uniformly among enabled events — a probabilistically
    fair, non-adversarial baseline. It is {!Util.Rng.index}: the draws of
    {!Util.Rng.pick} over the enabled list. *)
val uniform : Util.Rng.t -> t

(** [uniform_no_crash rng] picks uniformly among the enabled events other
    than crashes (among all of them when only crashes are enabled): a fair
    scheduler for runs whose crashes, if any, are scripted. *)
val uniform_no_crash : Util.Rng.t -> t

(** [round_robin ()] cycles through processes, delivering the oldest
    in-transit message when the favoured process is blocked. Stateful;
    create one per run. *)
val round_robin : unit -> t

(** [eager_delivery] always prefers delivering the oldest in-transit message,
    else steps the lowest-id runnable process: produces almost-sequential
    executions. *)
val eager_delivery : t

(** [prefer_process p fallback] steps [p] whenever possible, otherwise
    defers to [fallback] — a starvation-style adversary building block. *)
val prefer_process : int -> t -> t

(** [lazy_delivery rng] steps a uniformly chosen runnable process and
    delivers a message only when every process is blocked — the
    delivery-procrastinating adversary style that starves update phases
    and exposes stale-read protocol bugs uniform scheduling essentially
    never finds. *)
val lazy_delivery : Util.Rng.t -> t

(** [recording policy rng recorded] drives [policy rng] (applied once) and
    prepends each position it chooses to [recorded] (newest first) — the
    recorded reversed list replayed as choice codes (each taken modulo
    the number of enabled events, as [Fuzz.Oracle.replay] does)
    reproduces the run regardless of which policy generated it.
    Stateful; create one per run. *)
val recording : (Util.Rng.t -> t) -> Util.Rng.t -> int list ref -> t
