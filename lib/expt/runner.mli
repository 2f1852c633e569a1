(** Measured runs of every system: one table of systems, one [run].

    Each system is described once, as data ({!system}): its convergence
    {!bounds}, its flat-engine program if any, and, for a given graph, a
    {!setup} — the algorithm, the initializer, the stop predicate, the
    expected {!Ssreset_sim.Engine.outcome}, the result check and, for
    I∘SDR systems, the {!Ssreset_core.Sdr.S} module.  {!run} is the single
    execution semantics over it: it owns the RNG streams (the initial
    configuration is drawn from [[|seed; 17|]], the daemon from
    [[|seed; 91|]]), the observers, telemetry, monitors and tracing, and
    builds the {!obs}.  {!prepare_flat} and {!run_flat} are the same for
    the flat data path, and read the same bounds.

    Per step, the harness costs O(movers·Δ) on top of the engine: the
    alive-root tracker ({!Ssreset_core.Sdr.S.Segments}) and the stop
    condition (the processes where [legit] fails) are both
    {!Ssreset_sim.Algorithm.Tracker}s, re-evaluated only on the movers'
    closed neighborhoods — the stop condition lazily, until it finds a
    process that is still illegitimate — and the engine steps the
    configuration in place.  Only the final [check] reads the whole
    configuration.

    [?prof] is forwarded to {!Ssreset_sim.Engine.run}: an attached
    {!Ssreset_obs.Prof} profiler, which never changes any result.  Every
    run starts the round-robin cursor at 0, so a run is reproducible from
    its (system, graph, daemon, seed) alone.

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

val obs_json : obs -> Ssreset_obs.Json.t
(** Machine-readable rendering of an observation (unmeasured fields are
    [null]); includes a derived [steps_per_s]. *)

val pp_obs : name:string -> Format.formatter -> obs -> unit
(** The text rendering of an observation under the heading [name]: one
    line per counter; segments read [-] where unmeasured. *)

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
    configuration once); [probe] is an extra observer the check reads;
    [max_steps] is the default step budget. *)
type 'state setup = {
  algorithm : 'state Ssreset_sim.Algorithm.t;
  init : Random.State.t -> 'state array;
  legit : ('state Ssreset_sim.Algorithm.view -> bool) option;
  expect : Ssreset_sim.Engine.outcome;
  check : 'state Ssreset_sim.Engine.result -> bool;
  probe : 'state Ssreset_obs.Obs.t option;
  max_steps : int;
  reset : 'state reset;
}

type packed = Setup : 'state setup -> packed

(** Convergence bounds on one network; only a watching monitor forces the
    move bound (it may need the diameter). *)
type bounds = { rounds_bound : int option; moves_bound : int Lazy.t option }

(** [name] is the CLI name and [doc] the report title; [flat] is the
    flat-engine program of systems with a symbolic IR; [bounds], from n and
    the lazy diameter, is read by both engines; [setup] raises
    [Invalid_argument] on graphs that are not [feasible] (an alliance
    spec's degree condition). *)
type system = {
  name : string;
  doc : string;
  flat : Ssreset_flat.Progs.entry option;
  bounds : n:int -> diameter:int Lazy.t -> bounds;
  feasible : Ssreset_graph.Graph.t -> bool;
  setup : Ssreset_graph.Graph.t -> packed;
}

val graph_bounds : system -> Ssreset_graph.Graph.t -> bounds
(** The bounds a classic run of the system on this graph watches. *)

val run :
  ?max_steps:int ->
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

(** {2 Flat-engine runs} *)

(** A system's flat program compiled on its network, initialized.
    [network] is [None] for the ring family, which streams straight into
    CSR form (so n = 10⁶ fits); [flat_bounds] takes ⌊n/2⌋ as the ring's
    diameter. *)
type flat = {
  network : Ssreset_graph.Graph.t option;
  prog : Ssreset_flat.Flat.prog;
  n : int;
  m : int;
  flat_bounds : bounds;
}

val prepare_flat :
  ?perturb:int ->
  system ->
  family:Workload.family ->
  n:int ->
  seed:int ->
  flat
(** Build [family]'s network and initialize the program with
    {!Ssreset_flat.Progs.init}.
    @raise Invalid_argument when the system has no flat program. *)

val run_flat :
  ?prof:Ssreset_obs.Prof.t ->
  ?monitor:Ssreset_obs.Monitor.t ->
  ?heartbeat:int * (Ssreset_flat.Flat.beat -> unit) ->
  ?parts:int ->
  daemon:Ssreset_sim.Daemon.t ->
  seed:int ->
  flat ->
  Ssreset_flat.Flat.result
(** {!Ssreset_flat.Flat.run}, or {!Ssreset_flat.Flat.run_partitioned}
    over [parts > 1] domains (synchronous daemon only, else
    [Invalid_argument]); with [monitor], the system's bounds trip
    anomalies. *)

val flat_obs : Ssreset_flat.Flat.result -> obs
(** Per-process SDR moves, segments and Remark 4 stay unmeasured. *)

val systems : spec:Ssreset_alliance.Spec.t -> system list
(** The nine CLI systems, in order: {!unison}, {!tail_unison},
    {!min_unison}, {!agr_unison}, {!alliance} and {!alliance_bare} of
    [spec], {!coloring}, {!mis}, {!matching}. *)

val unison : system
(** U ∘ SDR with K = 2n+2 until the first normal configuration; 3n round
    and D·n² move bounds (Theorems 6–7). *)

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
(** Lookup in {!Ssreset_sim.Daemon.registry} — the single
    name → daemon table shared with the CLI.
    @raise Invalid_argument on unknown names, listing the valid ones. *)

val experiment_daemons : Ssreset_sim.Daemon.t list
(** The pool used by the sweeps: synchronous, central-random,
    distributed-random (0.3 and 0.8), locally-central, round-robin and an
    adversarial-rule daemon preferring input moves over resets.  Named
    entries come from {!Ssreset_sim.Daemon.registry}. *)
