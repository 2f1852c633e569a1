(** The flat data-path engine: registry algorithms compiled from their
    symbolic rule IR ({!Ssreset_check.Sym}) onto unboxed state.

    The classic engine ({!Ssreset_sim.Engine}) is the semantic reference:
    per-process states are OCaml values, views are materialized records,
    guards are OCaml closures over them.  That representation is ideal for
    writing algorithms and hopeless at n = 10⁶.  This engine keeps {e one
    [int array] per declared field} (enums as constructor indices, bools
    as 0/1), adjacency in CSR form ({!Ssreset_graph.Csr}) and the enabled
    set in a two-level bitset ({!Ssreset_sim.Bits}).

    The rules run as {e generated} code: the build emits one
    straight-line OCaml evaluator per spec of
    {!Ssreset_check.Registry.flat_specs} (lib/sim/flat/gen), and
    {!compile} picks it by structural equality of the spec.  One
    evaluation computes a node's first enabled rule and its legitimacy;
    neighborhoods are inline loops over the CSR row, neighbor-invariant
    subterms (such as the unison increment of self's clock) are hoisted
    out of them, and an aggregate that repeats across the guards and
    legitimacy (or across one rule's assignments) is read through a
    local memo filled on first use.  The generated evaluator allocates
    nothing and keeps no state between evaluations.  A spec the build did
    not generate (a test-local IR, say) runs on the {e closure compiler}:
    the IR compiled to OCaml closures of self and the bound neighbor, with
    repeated quantifiers memoized per evaluation epoch.  The closure
    compiler is also the oracle the generated code is tested against.

    This module is an {e evaluator} over the one step core
    ({!Ssreset_sim.Step}), which the classic engine
    ({!Ssreset_sim.Engine}) shares: the core schedules, the evaluator only
    evaluates guards and computes and writes posts.  The compilation is
    {e semantics-preserving by construction and by test}: the IR is
    differentially validated against the OCaml rules
    ({!Ssreset_check.Sym.check}), the two evaluators against each other —
    same per-step movers, post-states, counts and profile schema under
    every registered daemon — and the generated code against the closure
    compiler.

    {!run_partitioned} adds intra-run parallelism for the synchronous
    daemon: nodes are split into {!Ssreset_sim.Bits.part_align}-aligned
    contiguous ranges, one {!Ssreset_sim.Pool.Team} worker per range,
    stepping in
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
    arrays, the source IR and its evaluator. *)

val compile : csr:Csr.t -> params:(string * int) list -> Sym.spec -> prog
(** Compile a symbolic spec onto a topology.  The IR must pass
    {!Sym.well_formed}; every parameter it mentions must be bound in
    [params].  All fields start at 0 (first constructor / [false] / 0).
    @raise Invalid_argument on ill-formed IR, unbound parameters, or a
    constructor name shared by two enum sorts at different indices. *)

val n : prog -> int
val spec : prog -> Sym.spec

val generated : prog -> bool
(** Whether the program runs on a generated evaluator, i.e. its spec is
    structurally equal to one of {!Ssreset_check.Registry.flat_specs};
    otherwise it runs on the closure compiler. *)

val params : prog -> (string * int) list
val fields : prog -> (string * kind) array

val load : prog -> int -> (string * Sym.value) list -> unit
(** Overwrite node [u]'s fields from a classic-engine encoding (the
    [encode] of a {!Sym.INSTANCE}); unmentioned fields are untouched. *)

val read : prog -> int -> (string * Sym.value) list
(** Node [u]'s state as values, in declared field order. *)

val set_int : prog -> field:string -> int -> int -> unit
(** [set_int p ~field u v]: raw write, for generators and perturbation. *)

val checksum : prog -> int
(** Order-sensitive FNV-style hash of the whole state — the deterministic
    configuration fingerprint behind [--digest]. *)

(** {2 Daemons}

    The one daemon of both engines, re-exported with its constructors so
    [Flat.Synchronous] and friends read naturally at call sites; names
    resolve through {!Ssreset_sim.Daemon.by_name}. *)

type daemon = Ssreset_sim.Daemon.t =
  | Synchronous
  | Central_random
  | Central_first
  | Central_last
  | Round_robin
  | Distributed_random of float
  | Locally_central
  | Adversarial of string list
  | Starve of int

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

type beat = Ssreset_sim.Step.beat = {
  hb_steps : int;
  hb_moves : int;
  hb_enabled : int;  (** enabled-set size after the step *)
  hb_legit : int;  (** legitimate-node count; [-1] when untracked *)
  hb_availability : float;
      (** fraction of completed steps whose configuration was fully
          legitimate; [-1.] when untracked *)
  hb_moves_per_s : float;  (** over the last heartbeat interval *)
}
(** One [--heartbeat] progress sample ({!Ssreset_sim.Step.beat}). *)

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
    through {!read} afterwards) on {!Ssreset_sim.Step}, like
    {!Ssreset_sim.Engine.run}.  [stop_on_legitimate] (default [true],
    no-op without a legitimacy predicate) stops with [Stabilized] as soon
    as every node satisfies [sp_legitimate] — checked on the initial state
    too, like the classic engine's [stop]; legitimacy is kept
    incrementally whenever the spec defines it.  [on_step] sees the movers
    of each executed step in selection order.

    Observability is pay-as-you-go, and the run is bit-identical with or
    without [prof], [monitor] and [heartbeat] (asserted by the test
    suite).  [prof] records the core's phase, rule and scheduler
    instruments plus the [obs.legit_steps] availability counter; windows
    stream per the profiler's sink.  [monitor] latches the paper's
    convergence bounds: [moves_bound] (e.g. D·n²) trips anomaly
    [moves-bound], [rounds_bound] (e.g. 3n) trips [rounds-bound], each at
    most once.  [heartbeat] [(every, f)] calls [f] after every [every]-th
    step with a progress {!beat}.
    @raise Invalid_argument when [every] is not positive. *)

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
    pending machinery is unnecessary.  It shares {!Ssreset_sim.Step}'s
    heartbeat, bound trips and profile finish, not its loop.

    [prof]/[monitor]/[heartbeat] behave as in {!run}, with per-worker
    attribution instead of per-rule timers: each domain accumulates its
    phase laps ([phase.init]/[compute]/[write]/[refresh]) and GC deltas in
    private slots, merged into the one profiler stream after the barriers
    ({!Ssreset_obs.Prof.merge_spans}); the {!Ssreset_sim.Pool.Team}
    contributes [phase.barrier] wait spans and per-worker busy/barrier
    gauges; the sequential cross-boundary replay is timed as
    [phase.replay] and published as [flat.frontier_handoffs] /
    [flat.frontier_replays].  Per-worker gauges
    [flat.workerN.compute_s]/[write_s]/[refresh_s]/[gc_minor_words]/
    [gc_major_words] and the [flat.parts] gauge feed [prof report]'s
    per-worker section and its multi-worker coverage check (phase laps
    tile [parts × wall]).  Each phase has one body whether or not they are
    attached: the scheduler and frontier counts are always kept, in
    worker-local counters written once per phase. *)
