(** Exact game model of the weakener program over atomic registers
    (Appendix A.1 of the paper).

    Every register access is a single indivisible step, so the adversary's
    only power is the interleaving of eight program steps plus the timing of
    the coin flip (a chance node). The optimal probability of the bad
    outcome ([u1 = c] and [u2 = 1 - c], i.e. [p2] looping forever) is
    exactly 1/2 — the adversary schedules [p2]'s first read before or after
    [p1]'s write according to the coin, but the second read can only match
    for one coin value. *)

(** The game state is exposed concretely (unlike the message-level ABD
    games) so the fuzzer's differential oracle can {e abstract} a simulator
    execution of the atomic weakener into a game state and compare
    [Game.encode] keys step for step against the model's own transitions. *)
module Game : sig
  (** -1 encodes the registers' initial values (⊥ for [R], -1 for [C]);
      [u1]/[u2]/[cread] use [None] for "not read yet". [pc0] counts p0's
      completed register accesses (0-1), [pc1] p1's accesses plus the coin
      flip (0-3), [pc2] p2's reads (0-3). *)
  type state = {
    r : int;
    c : int;
    pc0 : int;
    pc1 : int;
    pc2 : int;
    coin : int;
    u1 : int option;
    u2 : int option;
    cread : int option;
  }

  type move = Step of int

  include Mdp.Solver.GAME with type state := state and type move := move
end

(** The initial state. *)
val init : Game.state

(** [bad_probability ()] solves the game: the adversary-optimal probability
    that [p2] loops forever. The paper's claim is that this equals 1/2. *)
val bad_probability : unit -> float

(** [explored_states ()] after solving. *)
val explored_states : unit -> int

(** [solver_stats ()] — the solver's work counters since the process
    started. *)
val solver_stats : unit -> Mdp.Solver.stats
