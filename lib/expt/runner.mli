(** Measured runs of every system: one table of systems, one [run].

    Each system is described once, as data ({!system}): for a given graph
    it yields a {!setup} — the algorithm, the initializer, the stop
    predicate, the expected {!Ssreset_sim.Engine.outcome}, the result
    check, the round and move bounds, and, for I∘SDR systems, the
    {!Ssreset_core.Sdr.S} module.  {!run} is the single execution
    semantics over it: it owns the RNG streams (the initial configuration
    is drawn from [[|seed; 17|]], the daemon from [[|seed; 91|]]), the
    observers, telemetry, monitors and tracing, and builds the {!obs}.

    Per step, the harness costs O(movers·Δ) on top of the engine: the
    alive-root tracker ({!Ssreset_core.Sdr.S.Segments}) and the stop
    condition (the processes where [legit] fails) are both
    {!Ssreset_sim.Algorithm.Tracker}s, re-evaluated only on the movers'
    closed neighborhoods — the stop condition lazily, until it finds a
    process that is still illegitimate — and the engine steps the
    configuration in place.  Only the final [check] reads the whole
    configuration.

    [?scheduler] and [?prof] are forwarded to {!Ssreset_sim.Engine.run}:
    the [`Full] rescan vs the default [`Incremental] dirty-set scheduler,
    and an attached {!Ssreset_obs.Prof} profiler.  Neither changes any
    result.

    With [?sink], the run streams one {!Ssreset_obs.Sink.round_record} per
    completed round and a final {!Ssreset_obs.Sink.summary} (per-rule move
    counters and a {!Ssreset_obs.Metrics} snapshot).  The caller writes the
    manifest — it knows the graph family and CLI context; the runner does
    not.  Without a sink no telemetry code runs at all.  With a sink,
    I∘SDR runs also install online {!Ssreset_obs.Monitor}s — the system's
    round and move bounds and the alive-root monotonicity of Remark 4 —
    which emit an [anomaly] record the moment one is violated; the summary
    carries the anomaly count.  [~trace_steps:true] (requires a sink) adds
    one [init] record plus one wave-tagged [step] record per engine step —
    the [ssreset-trace-v1] schema consumed by {!Ssreset_obs.Tracefile} and
    the [ssreset trace] CLI.  Bare runs trace steps without wave tags and
    install no monitors. *)

type obs = {
  outcome_ok : bool;
      (** the run ended the way the theory predicts (stabilized for unison,
          terminal for the silent systems, step budget not exhausted) *)
  result_ok : bool;
      (** problem-specific output check: normal configuration reached,
          1-minimal alliance, proper coloring, MIS, safety… *)
  rounds : int;
  moves : int;
  steps : int;
  sdr_moves : int;  (** moves of SDR rules only (0 for bare runs) *)
  max_proc_moves : int;
  max_proc_sdr_moves : int;  (** per-process maximum of SDR moves *)
  workload_p50 : float;
      (** median of the per-process move counts (numpy-style linear
          interpolation, {!Ssreset_sim.Stats.percentile}) *)
  workload_p90 : float;  (** 90th percentile of per-process move counts *)
  moves_per_rule : (string * int) list;
      (** per-rule move counts in the engine's rule order — also in the JSON
          observation, so classic and flat runs compare field-for-field *)
  segments : int option;  (** [None] for bare runs, where it is not measured *)
  ar_monotone : bool option;
      (** alive-root sets only ever shrink (Remark 4); [None] for bare runs,
          where there are no alive roots to watch *)
  wall_s : float;  (** wall-clock seconds of the engine run *)
}

val observation :
  outcome_ok:bool ->
  result_ok:bool ->
  rounds:int ->
  steps:int ->
  moves:int ->
  moves_per_process:int array ->
  moves_per_rule:(string * int) list ->
  wall_s:float ->
  obs
(** The observation of engine counters alone: workload percentiles and SDR
    moves derived, per-process SDR moves, segments and Remark 4 unmeasured
    — all a bare run measures, and all the flat engine reports. *)

val obs_json : obs -> Ssreset_obs.Json.t
(** Machine-readable rendering of an observation (unmeasured fields are
    [null]); includes a derived [steps_per_s]. *)

(** {2 Systems} *)

(** The reset layer of a system: none, or I∘SDR — whose runs also measure
    per-process SDR moves, segments and Remark 4, and, with a sink, get
    bound monitors and wave-tagged step records. *)
type 'state reset =
  | Bare : 'state reset
  | Composed :
      (module Ssreset_core.Sdr.S with type inner = 'i)
      -> 'i Ssreset_core.Sdr.state reset

(** A system instantiated on one graph.  [legit] is the per-process
    legitimacy predicate the run stops on — once it holds at every process —
    or [None] for systems that run until terminal or out of steps;
    [outcome_ok] is [outcome = expect] and [result_ok] is
    [outcome_ok && check result] ([check] evaluates the whole final
    configuration once); [probe] is an extra observer the check reads; the
    bounds are watched by monitors when a sink is attached ([moves_bound]
    is forced only then); [max_steps] is the default step budget. *)
type 'state setup = {
  algorithm : 'state Ssreset_sim.Algorithm.t;
  init : Random.State.t -> 'state array;
  legit : ('state Ssreset_sim.Algorithm.view -> bool) option;
  expect : Ssreset_sim.Engine.outcome;
  check : 'state Ssreset_sim.Engine.result -> bool;
  probe : 'state Ssreset_obs.Obs.t option;
  rounds_bound : int option;
  moves_bound : int Lazy.t option;
  max_steps : int;
  reset : 'state reset;
}

type packed = Setup : 'state setup -> packed

(** [name] is the CLI name and [doc] the report title; [flat] names the
    flat-engine catalogue entry of systems with a symbolic IR; [setup]
    raises [Invalid_argument] on graphs that are not [feasible] (an
    alliance spec's degree condition). *)
type system = {
  name : string;
  doc : string;
  flat : string option;
  feasible : Ssreset_graph.Graph.t -> bool;
  setup : Ssreset_graph.Graph.t -> packed;
}

val run :
  ?max_steps:int ->
  ?scheduler:Ssreset_sim.Engine.scheduler ->
  ?prof:Ssreset_obs.Prof.t ->
  ?sink:Ssreset_obs.Sink.t ->
  ?trace_steps:bool ->
  system ->
  graph:Ssreset_graph.Graph.t ->
  daemon:Ssreset_sim.Daemon.t ->
  seed:int ->
  unit ->
  obs
(** One measured run; [max_steps] overrides the system's budget. *)

val systems : spec:Ssreset_alliance.Spec.t -> system list
(** The nine CLI systems, in order: {!unison}, {!tail_unison},
    {!min_unison}, {!agr_unison}, {!alliance} and {!alliance_bare} of
    [spec], {!coloring}, {!mis}, {!matching}. *)

val unison : system
(** U ∘ SDR with K = 2n+2 until the first normal configuration; 3n round
    and D·n² move bounds. *)

val tail_unison : system
(** The baseline with K = 2n+2, α = n, until legitimate. *)

val min_unison : system
(** The Couvreur-style baseline with K = n²+1, until legitimate. *)

val agr_unison : system
(** U over the mono-initiator AGR reset (root = process 0) until the first
    normal configuration.  AGR needs a weakly fair daemon; under
    ["central-first"] it can livelock, which E15 shows deliberately. *)

val alliance : ?stop_at_normal:bool -> Ssreset_alliance.Spec.t -> system
(** FGA ∘ SDR until terminal with a 1-minimal alliance, or until the first
    normal configuration with [stop_at_normal]; 8n+4 round bound. *)

val alliance_bare : Ssreset_alliance.Spec.t -> system
(** FGA from γ_init until terminal with a 1-minimal alliance and Lemma 25's
    per-process move bound (8δΔ + 18δ + 24). *)

val coloring : system
val mis : system
val matching : system
(** Static inputs through SDR until terminal with a proper coloring / MIS /
    maximal matching. *)

val unison_bare : system
(** U alone from γ_init for the step budget (60n unless [max_steps]):
    no safety violation and every clock advanced.  Experiment-only, so not
    in {!systems}. *)

val unison_composed :
  ?prof:Ssreset_obs.Prof.t ->
  ?sink:Ssreset_obs.Sink.t ->
  graph:Ssreset_graph.Graph.t ->
  daemon:Ssreset_sim.Daemon.t ->
  seed:int ->
  unit ->
  obs
(** [run unison]. *)

val fga_composed :
  ?prof:Ssreset_obs.Prof.t ->
  ?sink:Ssreset_obs.Sink.t ->
  spec:Ssreset_alliance.Spec.t ->
  graph:Ssreset_graph.Graph.t ->
  daemon:Ssreset_sim.Daemon.t ->
  seed:int ->
  unit ->
  obs
(** [run (alliance spec)]. *)

val daemon_by_name : string -> Ssreset_sim.Daemon.t
(** Fresh daemon from {!Ssreset_sim.Daemon.registry} — the single
    name → daemon table shared with the CLI.
    @raise Invalid_argument on unknown names, listing the valid ones. *)

val experiment_daemons : unit -> Ssreset_sim.Daemon.t list
(** The pool used by the sweeps: synchronous, central-random,
    distributed-random (0.3 and 0.8), locally-central, round-robin and an
    adversarial-rule daemon preferring input moves over resets.  Named
    entries come from {!Ssreset_sim.Daemon.registry}. *)
