(** Small statistics helpers for Monte-Carlo experiment reporting. *)

(** [mean xs] is the arithmetic mean; 0 for the empty list. *)
val mean : float list -> float

(** [variance xs] is the unbiased sample variance; 0 for fewer than 2 points. *)
val variance : float list -> float

(** [binomial_ci ~successes ~trials] is the 95% Wilson score interval for a
    Bernoulli success probability. Returns [(lo, hi)]. *)
val binomial_ci : successes:int -> trials:int -> float * float

(** [fraction ~successes ~trials] is the empirical success rate (0 when
    [trials = 0]). *)
val fraction : successes:int -> trials:int -> float

(** [intervals_overlap (lo1, hi1) (lo2, hi2)] holds when the two closed
    intervals intersect. *)
val intervals_overlap : float * float -> float * float -> bool

(** [binomial_compatible ~successes1 ~trials1 ~successes2 ~trials2] holds
    when the two samples' 95% Wilson intervals overlap — the equivalence
    criterion the fuzzer's distribution oracle uses for Theorem 4.1
    ([O^k] observationally equivalent to [O]). Overlapping 95% intervals
    is a conservative compatibility test: it rejects only blatant
    distribution drift, which is the right trade-off for an oracle that
    must never flag a true positive as a failure. *)
val binomial_compatible :
  successes1:int -> trials1:int -> successes2:int -> trials2:int -> bool
