(** Statistical allocation-site profiler over [Gc.Memprof] (OCaml 5.3+).

    Samples minor/major heap allocations with captured backtraces and
    aggregates them into an allocation-site table: a site is the innermost
    backtrace frame located under [lib/], so stdlib allocations (Hashtbl
    resizes, List.map cells, ...) are charged to the library code that
    asked for them. Each sample is also attributed to the enclosing
    {!Span} section, the allocating domain, and the solver {!phase} in
    flight, and mirrored onto the per-domain {!Ring} timeline as an
    [Alloc_sample] event so allocation bursts line up with steals, claims
    and GC events.

    The backend is feature-gated at build time: on OCaml 5.1/5.2 (where
    [Gc.Memprof.start] raises under multicore) a stub is linked instead
    and {!start} returns [Error _] with {!supported} [= false]. The
    aggregation, JSON and collapsed-stack layers run everywhere — tests
    drive them through {!inject} — so only the sampling itself needs 5.3.

    On 5.3, [Gc.Memprof] profiles the starting domain plus any domain
    spawned afterwards: call {!start} before creating a [Par.Pool].

    Exports three artifacts: the schema-v5 ["allocation_profile"] block
    in {!Results} documents ({!to_json}), a collapsed-stack file for
    [flamegraph.pl]/speedscope ({!write_collapsed}), and the
    per-site/per-phase rollups printed by {!pp}. *)

(** Coarse solver/simulator phase, set at transition points by
    [Mdp.Solver], [Sim.Runtime] and [Par.Pool]; read on the allocating
    domain by the sample callback. *)
type phase = Expand | Claim_wait | Steal | Sim_run

val phase_name : phase -> string

(** [set_phase p] tags subsequent allocations on the calling domain;
    [None] clears the tag. A per-domain store: cheap enough to call
    unconditionally on coarse transitions even when profiling is off. *)
val set_phase : phase option -> unit

(** [phase ()] is the calling domain's current tag (to save/restore
    around a nested region). *)
val phase : unit -> phase option

(** Whether the linked backend can sample (true only on OCaml >= 5.3). *)
val supported : bool

(** [start ()] begins sampling. [sampling_rate] is the per-word sampling
    probability (default [1e-4]); [callstack_size] bounds captured frames
    (default 32). Clears any previously collected samples. [Error _] when
    the backend is unsupported or already running. *)
val start : ?sampling_rate:float -> ?callstack_size:int -> unit -> (unit, string) result

(** [stop ()] stops sampling but keeps the aggregated data for
    {!profile} / {!write_collapsed}. Idempotent. *)
val stop : unit -> unit

(** [running ()] is true between a successful {!start} and {!stop}. *)
val running : unit -> bool

(** [reset ()] stops sampling and drops all collected data. *)
val reset : unit -> unit

(** One aggregated allocation site. [site] is
    ["<fn>@<file>:<line>"] of the innermost [lib/] frame (or
    ["<unattributed>"] when no sampled frame is under [lib/]);
    [site_hash] is the stable [Hashtbl.hash] of that string — the same
    value carried by the ring [Alloc_sample] events, so trace timelines
    and profile tables join. Word counts are sampled words (sum of
    sampled block sizes), not estimated totals. *)
type site = {
  site : string;
  site_hash : int;
  frames : string list;  (** representative [lib/] frames, innermost first *)
  minor_samples : int;
  major_samples : int;
  minor_words : int;
  major_words : int;
  share_pct : float;  (** share of all sampled words, 0..100 *)
  by_section : (string * int) list;  (** sampled words per {!Span} section *)
  by_phase : (string * int) list;  (** sampled words per phase name *)
  by_domain : (int * int) list;  (** sampled words per domain id *)
}

type profile = {
  sampling_rate : float;
  callstack_size : int;
  blocks : int;  (** sampled allocation events (callback invocations) *)
  samples : int;  (** Memprof samples (sum of n_samples) *)
  sampled_minor_words : int;
  sampled_major_words : int;
  estimated_total_words : float;  (** samples / sampling_rate *)
  attributed_pct : float;
      (** % of sampled words charged to a named [lib/] site *)
  sites : site list;  (** sorted by sampled words, descending *)
  by_section : (string * int) list;
  by_phase : (string * int) list;
  by_domain : (int * int) list;
}

(** [profile ()] snapshots the aggregation — [None] until a profiling
    session has started (via {!start} or {!inject}) since the last
    {!reset}, so result documents only grow an ["allocation_profile"]
    block when profiling actually ran. *)
val profile : unit -> profile option

val to_json : profile -> Json.t

(** [of_json j] parses a profile previously rendered by {!to_json} (used
    by [blunting trace analyze --alloc] on saved results documents). *)
val of_json : Json.t -> (profile, string) result

(** [pp ?top ppf p] prints the rollups and the top-[top] (default 20)
    site table, flagging every site holding more than 10% of sampled
    words. *)
val pp : ?top:int -> Format.formatter -> profile -> unit

(** [collapsed_lines ()] renders every aggregated stack in collapsed
    format — root-first frames joined by [';'], a space, then the
    sampled-word weight — one stack per line, ready for [flamegraph.pl]
    or speedscope. *)
val collapsed_lines : unit -> string list

val write_collapsed : string -> unit

(** [inject ()] feeds one synthetic sample straight into the aggregation
    (marking the profiler as started), bypassing the backend: the test
    hook that lets the site table, rollups, JSON and collapsed output be
    exercised on compilers where real sampling is unavailable. [frames]
    are formatted ["<fn>@<file>:<line>"], innermost first; [section]
    defaults to [Span.current ()], [phase] to the calling domain's tag,
    [domain] to the calling domain. *)
val inject :
  ?domain:int ->
  ?section:string ->
  ?phase:phase ->
  frames:string list ->
  minor:bool ->
  n_samples:int ->
  words:int ->
  unit ->
  unit
