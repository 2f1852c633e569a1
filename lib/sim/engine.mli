(** Execution engine: atomic steps, moves, rounds, stabilization runs.

    Implements the semantics of §2.2–2.4 of the paper: at each step the
    daemon activates a nonempty subset of the enabled processes; every
    activated process atomically executes its enabled rule, all of them
    reading the {e same} (pre-step) configuration — composite atomicity.
    Moves and rounds are counted exactly per the paper's definitions,
    including neutralization-based rounds. *)

type outcome =
  | Stabilized  (** the [stop] predicate became true *)
  | Terminal  (** no process is enabled (and [stop] was false) *)
  | Step_limit  (** [max_steps] was exhausted first *)

type 'state result = {
  outcome : outcome;
  final : 'state array;
  steps : int;  (** atomic steps executed *)
  moves : int;  (** total rule executions *)
  moves_per_process : int array;
  moves_per_rule : (string * int) list;  (** sorted by rule name *)
  rounds : int;
      (** index of the round in which the run ended: the number of complete
          rounds executed, plus one if the final (partial) round contains at
          least one step.  "Stabilizes within r rounds" = [rounds <= r]. *)
  wall_s : float;  (** wall-clock seconds spent inside [run] *)
}

val run :
  ?rng:Random.State.t ->
  ?seed:int ->
  ?max_steps:int ->
  ?check_overlap:bool ->
  ?prof:Ssreset_obs.Prof.t ->
  ?observer:(step:int -> moved:(int * string) list -> 'state array -> unit) ->
  ?on_step:(step:int -> enabled:int -> selected:int -> unit) ->
  ?on_round:(round:int -> steps:int -> moves:int -> 'state array -> unit) ->
  ?stop:('state array -> bool) ->
  algorithm:'state Algorithm.t ->
  graph:Ssreset_graph.Graph.t ->
  daemon:Daemon.t ->
  'state array ->
  'state result
(** [run ~algorithm ~graph ~daemon cfg] executes from [cfg] until [stop]
    holds (checked on every configuration, including the initial one), the
    configuration is terminal, or [max_steps] (default 10_000_000) is
    reached.  [observer] is called after each step with the activated
    (process, rule-name) pairs and the {e new} configuration.

    [run] copies [cfg] once and applies every step to that copy in place:
    the movers' new states are all computed from the pre-step
    configuration, then written, so composite atomicity holds and no step
    copies the array.  The caller's [cfg] is never modified, and
    [result.final] is the run's own array.  Consequently the array passed
    to [observer], [on_round] and [stop] is the live configuration, valid
    only for the duration of the callback: a callback that keeps a
    configuration must copy it (as {!Trace.record} does).

    Observer contract: the movers list [moved] contains every process whose
    state changed in the step (a mover whose action returns its old state
    is listed too).  Incremental observers such as
    {!Algorithm.Tracker} rely on it, so they must see every step.

    When [rng] is absent the run allocates its own [Random.State] from
    [seed] (default 0), so an rng-less run is reproducible regardless of
    what other engine runs executed before it — there is no shared
    module-level state.  Likewise the {!Daemon.Round_robin} cursor starts
    at 0 in every run, so a run never depends on the runs before it.

    Scheduling: [run] scans every guard once, then after each step
    re-evaluates only the closed neighborhoods of the movers — a step
    changes only the movers' states and a guard reads only its process's
    view, so no other process can change enabled status.  The enabled set
    is kept as a {!Bits.t} plus its size, which {!Daemon.select} reads
    directly; the selection is checked (nonempty, every process enabled)
    on every step in O(movers), and round accounting refills from the
    bitset, so no per-step cost grows with n at fixed degree.  Test
    suites check the whole pipeline against a full-rescan reference.

    [prof] attaches a {!Ssreset_obs.Prof} profiler.  The refresh always
    keeps its exact scheduler counts; a profiler adds only its clock laps,
    histogram records and the publishing of those counts, and results are
    bit-identical either way (asserted over the whole zoo by the test
    suite).  With it present the run attributes wall time to the
    [phase.scan] / [phase.select] / [phase.apply] / [phase.refresh] /
    [phase.neutralize] / [phase.callbacks] / [phase.stop] timers (lap-based:
    consecutive laps tile the loop, so the phase totals sum to the loop's
    wall time), attributes the apply phase to per-rule [rule.R] timers and
    [moves.R] counters, counts scheduler internals ([sched.touched] /
    [sched.evals] / [sched.dedup_hits] / [sched.table_flips], plus the
    per-step [sched.refresh_size] histogram), adds [Gc.quick_stat] deltas
    to the [gc.*] counters, accumulates the run's wall clock into the
    [engine.wall_s] gauge, and calls {!Ssreset_obs.Prof.tick} per step so
    windowed streaming works.  Instruments accumulate when several runs
    share one profiler.

    Telemetry hooks (both default to off, with zero per-step cost then):
    [on_step] receives, after each step, the sizes of the enabled and the
    activated sets — the raw material for scheduling-pressure metrics;
    [on_round] fires once per {e completed} round with cumulative step and
    move counts and the configuration that closed the round, {e after} the
    [observer] has seen the step, so observer-fed probes are consistent with
    the snapshot.

    [check_overlap] (default off) asserts on every step, via
    {!Algorithm.exclusive_rules}, that at most one guard fires per enabled
    process; a violation raises [Invalid_argument] naming the process and
    the overlapping rules.  Rule overlap makes the rule-list priority order
    load-bearing (Lemma 5 assumes pairwise exclusion), so traced or debugged
    runs should enable this. *)

val step :
  ?rng:Random.State.t ->
  ?seed:int ->
  ?check_overlap:bool ->
  algorithm:'state Algorithm.t ->
  graph:Ssreset_graph.Graph.t ->
  daemon:Daemon.t ->
  step_index:int ->
  'state array ->
  ('state array * (int * string) list) option
(** One atomic step: [None] if the configuration is terminal, otherwise the
    next configuration (a fresh array; the argument is not modified) and
    the activated (process, rule) pairs.  The round-robin cursor starts
    at 0 on every call.  Exposed for fine-grained tests and traces.

    When [rng] is absent each call gets a {e fresh} state derived from
    [seed] (default 0) — so repeated rng-less calls are independent of call
    order; pass an explicit state to thread randomness across calls.
    [check_overlap] is as in {!run}. *)

val moves_of_rules : (string * int) list -> prefixes:string list -> int
(** Sum of the move counts of rules whose name starts with one of the given
    prefixes — e.g. counting only SDR moves in a composed run. *)
