(** Analysis of ring-buffer trace dumps.

    Consumes a {!Ring.dump} (from [--trace-out] / [Ring.capture]) and
    answers what the parallel timeline shows: how busy and idle each
    domain was, when the out-of-core store spilled, and how many runtime
    (GC and lifecycle) events the dump kept and lost.
    Rendered either as a human report ({!pp}) or machine JSON
    ({!to_json}) — the payloads of [blunting trace analyze].

    Memo traffic (hits, misses, claims, block-cache probes, evictions) is
    not in the ring; its exact counts are [Mdp.Solver.stats] and
    [Store.Memo.stats], printed by every solve and
    stored in the results document. Adversary decisions are not in the
    ring either: [blunting fuzz --replay] attributes them from the
    replayed schedule itself. *)

type domain_report = {
  domain : int;
  events : int;  (** retained events *)
  dropped : int;
  spills : int;  (** out-of-core sorted runs written ([Store_spill]) *)
  spill_bytes : int;  (** bytes those runs occupy on disk *)
  busy_us : float;  (** total time inside pool task slices *)
  idle_us : float;  (** total time inside pool idle slices *)
  utilization : float;  (** busy / trace duration, 0 without tasks *)
}

type t = {
  t0_us : float;  (** earliest event timestamp *)
  t1_us : float;
  domains : domain_report list;  (** by domain id *)
  runtime_events : int;  (** retained runtime events, all lanes *)
  runtime_dropped : int;  (** runtime events lost before a poll read them *)
  timeline_buckets : int;
  timeline : (int * float array) list;
      (** per domain: busy fraction per time bucket *)
}

(** [analyze ?buckets d] computes the report; [buckets] (default 20) is
    the utilization timeline's resolution. *)
val analyze : ?buckets:int -> Ring.dump -> t

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
