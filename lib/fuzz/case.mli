(** Fuzz cases: randomly generated configurations.

    A case is the non-schedule half of an execution: which program runs,
    over which object implementation, with how many processes and which
    transformation parameter [k]. The schedule half is a choice-code array
    (replayed by {!Oracle.replay}); together with the engine seed and
    iteration index they reproduce an execution exactly, which is what
    makes every fuzz failure replayable from [(seed, case, schedule)]
    alone. *)

(** Register implementations the register workloads draw from.
    [Abd_no_writeback] is the deliberately broken ABD variant
    ({!Objects.Abd.make_no_writeback}) used to plant Figure-1-style
    linearizability violations in shrinker and corpus tests; the generator
    only emits it when [planted] is set. *)
type register_impl =
  | Atomic
  | Abd
  | Abd_k of int
  | Va
  | Va_k of int
  | Il  (** single-writer Israeli–Li; process 0 writes *)
  | Abd_no_writeback

type t =
  | Weakener of { registers : register_impl }
      (** the paper's 3-process weakener (Algorithm 1) over registers [R]
          and [C]; multi-writer implementations only *)
  | Registers of { impl : register_impl; n : int }
      (** [n] processes, each writing a distinct value to one shared
          register then reading it twice *)
  | Snapshots of { k : int; n : int }
      (** [n] processes over one Afek et al. snapshot ([k = 0]:
          untransformed; [k >= 1]: [Snapshot^k]), each updating its
          component then scanning *)

(** [generate ~planted rng] draws a case. With [planted] every case uses
    [Abd_no_writeback], so a linearizability violation is reachable; the
    normal generator only emits implementations the paper proves
    linearizable, and a failure is a real bug. *)
val generate : planted:bool -> Util.Rng.t -> t

(** [config case] assembles the simulator configuration. *)
val config : t -> Sim.Runtime.config

(** [specs case] maps each object of the configuration to its sequential
    specification, for the per-object linearizability oracle. *)
val specs : t -> (string * History.Spec.t) list

(** [max_steps case] is the per-run step budget (generous: runs complete
    far earlier under any fair schedule). *)
val max_steps : t -> int

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
