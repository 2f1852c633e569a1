(** The flat data-path engine: registry algorithms compiled from their
    symbolic rule IR ({!Ssreset_check.Sym}) onto unboxed state.

    The classic engine ({!Ssreset_sim.Engine}) is the semantic reference:
    per-process states are OCaml values, views are materialized records,
    guards are OCaml closures over them.  That representation is ideal for
    writing algorithms and hopeless at n = 10⁶.  This engine keeps {e one
    [int array] per declared field} (enums as constructor indices, bools
    as 0/1), adjacency in CSR form ({!Ssreset_graph.Csr}) and the enabled
    set in a two-level bitset ({!Bits}) — and obtains the rules by
    compiling the algorithm's IR to OCaml closures over those arrays.

    The compilation is {e semantics-preserving by construction and by
    test}: the IR itself is differentially validated against the OCaml
    rules ({!Ssreset_check.Sym.check}), and the flat runs are
    differentially validated against {!Ssreset_sim.Engine.run} — same
    per-step movers, same post-states, same step/move/round counts, under
    every registered daemon (the RNG draw sequence of each daemon is
    replicated draw-for-draw).

    {!run_partitioned} adds intra-run parallelism for the synchronous
    daemon: nodes are split into {!Bits.part_align}-aligned contiguous
    ranges, one {!Ssreset_sim.Pool.Team} worker per range, stepping in
    three barrier-separated phases (compute posts from the pre-state /
    write back / refresh).  Cross-range refresh work is handed off and
    replayed sequentially, and every shared write is either range-private
    or idempotent — so the results are identical for {e any} partition
    count, movers included. *)

module Sym = Ssreset_check.Sym
module Csr = Ssreset_graph.Csr

type kind = KInt | KBool | KEnum of string array

type prog
(** A compiled program: topology, parameter valuation, per-field state
    arrays and the rule closures' source IR. *)

val compile : csr:Csr.t -> params:(string * int) list -> Sym.spec -> prog
(** Compile a symbolic spec onto a topology.  The IR must pass
    {!Sym.well_formed}; every parameter it mentions must be bound in
    [params].  All fields start at 0 (first constructor / [false] / 0).
    @raise Invalid_argument on ill-formed IR, unbound parameters, or a
    constructor name shared by two enum sorts at different indices. *)

val n : prog -> int
val csr : prog -> Csr.t
val spec : prog -> Sym.spec
val params : prog -> (string * int) list
val fields : prog -> (string * kind) array
val rule_names : prog -> string array

val has_legitimacy : prog -> bool
(** Whether the spec carries [sp_legitimate] (enables [stop_on_legitimate]
    and {!result.legitimate}). *)

val load : prog -> int -> (string * Sym.value) list -> unit
(** Overwrite node [u]'s fields from a classic-engine encoding (the
    [encode] of a {!Sym.INSTANCE}); unmentioned fields are untouched. *)

val read : prog -> int -> (string * Sym.value) list
(** Node [u]'s state as values, in declared field order. *)

val set_int : prog -> field:string -> int -> int -> unit
(** [set_int p ~field u v]: raw write, for generators and perturbation. *)

val get_int : prog -> field:string -> int -> int

val checksum : prog -> int
(** Order-sensitive FNV-style hash of the whole state — the deterministic
    configuration fingerprint behind [--digest]. *)

(** {2 Daemons}

    Native mirrors of {!Ssreset_sim.Daemon.registry}, replicating each
    daemon's RNG draw sequence exactly (same draws, same order), so a flat
    run and a classic run from the same seed choose the same movers. *)

type daemon =
  | Synchronous
  | Central_random
  | Central_first
  | Central_last
  | Round_robin
  | Distributed_random of float
  | Locally_central
  | Adversarial of string list
  | Starve of int

val daemon_of_name : string -> daemon option
(** The nine registry names, with the registry's default arguments
    ([distributed-random] p = 0.5, [adversarial] the standard prefer
    list, [starve] victim 0). *)

(** {2 Running} *)

type result = {
  outcome : Ssreset_sim.Engine.outcome;
  steps : int;
  moves : int;
  moves_per_process : int array;
  moves_per_rule : (string * int) list;  (** sorted by rule name *)
  rounds : int;
  legitimate : bool;  (** final configuration; [true] when untracked *)
  wall_s : float;
}

type beat = {
  hb_steps : int;
  hb_moves : int;
  hb_enabled : int;  (** enabled-set size after the step *)
  hb_legit : int;  (** legitimate-node count; [-1] when untracked *)
  hb_availability : float;
      (** fraction of completed steps whose configuration was fully
          legitimate; [-1.] when untracked *)
  hb_moves_per_s : float;  (** over the last heartbeat interval *)
}
(** One [--heartbeat] progress sample.  [hb_legit] is O(dirty) incremental
    where the run already tracks legitimacy; otherwise a full rescan at
    the heartbeat boundary (amortized over the interval), or [-1] when the
    spec has no legitimacy predicate. *)

val run :
  ?rng:Random.State.t ->
  ?seed:int ->
  ?max_steps:int ->
  ?stop_on_legitimate:bool ->
  ?on_step:(step:int -> moved:(int * string) list -> unit) ->
  ?prof:Ssreset_obs.Prof.t ->
  ?monitor:Ssreset_obs.Monitor.t ->
  ?rounds_bound:int ->
  ?moves_bound:int ->
  ?heartbeat:int * (beat -> unit) ->
  daemon:daemon ->
  prog ->
  result
(** Sequential run from the current state (the final state stays readable
    through {!read} afterwards), mirroring {!Ssreset_sim.Engine.run}:
    ascending enabled list, movers act on the pre-state, incremental
    dirty-set refresh over the movers' closed neighborhoods, §2.4 round
    accounting (pending set refilled per round), terminal detection on an
    empty enabled set.  [stop_on_legitimate] (default [true], no-op
    without a legitimacy predicate) stops with [Stabilized] as soon as
    every node satisfies [sp_legitimate] — checked on the initial state
    too, like the classic engine's [stop].  [on_step] sees the movers of
    each executed step in selection order.

    Observability is pay-as-you-go: with [prof], [monitor] and [heartbeat]
    all absent the step loop is the exact uninstrumented code (no clock
    reads, no counter bumps) and the run is bit-identical to one without
    these parameters.  [prof] attributes wall time to the flat phases
    ([phase.scan]/[select]/[apply]/[refresh]/[callbacks] — the same
    lap-timer discipline as the classic engine) plus per-rule [rule.R]
    timers and [moves.R] counters, scheduler counters ([sched.touched],
    [sched.evals], [sched.dedup_hits], [sched.table_flips]) and the
    [sched.refresh_size] histogram; windows stream per the profiler's
    sink.  [monitor] latches the paper's convergence bounds:
    [moves_bound] (e.g. D·n²) trips anomaly [moves-bound], [rounds_bound]
    (e.g. 3n) trips [rounds-bound], each at most once.  [heartbeat]
    [(every, f)] calls [f] after every [every]-th step with a progress
    {!beat}. *)

val run_partitioned :
  ?max_steps:int ->
  ?stop_on_legitimate:bool ->
  ?prof:Ssreset_obs.Prof.t ->
  ?monitor:Ssreset_obs.Monitor.t ->
  ?rounds_bound:int ->
  ?moves_bound:int ->
  ?heartbeat:int * (beat -> unit) ->
  parts:int ->
  prog ->
  result
(** Synchronous-daemon run over [parts] worker domains (a fresh
    {!Ssreset_sim.Pool.Team}, shut down before returning).  Every counter
    and the final state are identical to [run ~daemon:Synchronous] for
    any [parts ≥ 1] — under the synchronous daemon every pending node
    moves or is neutralized each step, so rounds equal steps and the
    pending machinery is unnecessary.

    [prof]/[monitor]/[heartbeat] behave as in {!run}, with per-worker
    attribution instead of per-rule timers: each domain accumulates its
    phase laps ([phase.init]/[compute]/[write]/[refresh]) and GC deltas in
    private slots, merged into the one profiler stream after the barriers
    ({!Ssreset_obs.Prof.merge_spans}); the {!Ssreset_sim.Pool.Team}
    contributes [phase.barrier] wait spans and per-worker busy/barrier
    gauges; the sequential cross-boundary replay is timed as
    [phase.replay] and counted by [flat.frontier_handoffs] /
    [flat.frontier_replays].  Per-worker gauges
    [flat.workerN.compute_s]/[write_s]/[refresh_s]/[gc_minor_words]/
    [gc_major_words] and the [flat.parts] gauge feed [prof report]'s
    per-worker section and its multi-worker coverage check (phase laps
    tile [parts × wall]).  With all three absent, the phase bodies are the
    exact uninstrumented code. *)
