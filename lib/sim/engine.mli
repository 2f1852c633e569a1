(** Execution engine: atomic steps, moves, rounds, stabilization runs.

    The classic evaluator over the one step core ({!Step}): per-process
    states are OCaml values, guards are OCaml closures over materialized
    views ({!Algorithm.view}).  {!Step} implements the semantics of
    §2.2–2.4 of the paper — the daemon's selection, composite atomicity,
    the incremental enabled set and neutralization-based rounds — for this
    engine and for the flat one alike. *)

type outcome = Step.outcome =
  | Stabilized  (** the [stop] predicate became true *)
  | Terminal  (** no process is enabled (and [stop] was false) *)
  | Step_limit  (** [max_steps] was exhausted first *)

val outcome_string : outcome -> string
(** ["stabilized"], ["terminal"] or ["step-limit"]: the [outcome] field of
    trace summaries and of flat [--digest] lines. *)

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
    each mover's new state is computed from the pre-step configuration as
    the daemon selects it, and all are written once the selection is
    complete, so composite atomicity holds and no step copies the array.
    The caller's [cfg] is never modified, and [result.final] is the run's
    own array.  Consequently the array passed to [observer], [on_round]
    and [stop] is the live configuration, valid only for the duration of
    the callback: a callback that keeps a configuration must copy it (as
    {!Trace.record} does).

    Observer contract: the movers list [moved] contains every process whose
    state changed in the step (a mover whose action returns its old state
    is listed too).  Incremental observers such as
    {!Algorithm.Tracker} rely on it, so they must see every step.

    When [rng] is absent the run allocates its own [Random.State] from
    [seed] (default 0), so an rng-less run is reproducible regardless of
    what other engine runs executed before it — there is no shared
    module-level state.  Likewise the {!Daemon.Round_robin} cursor starts
    at 0 in every run, so a run never depends on the runs before it.

    Scheduling, round accounting and [prof] are {!Step}'s: one guard scan,
    then a refresh of the movers' closed neighborhoods per step; results
    are bit-identical with or without a profiler (asserted over the whole
    zoo by the test suite).  A rule is identified by its name: two rules
    sharing one count as one in [moves_per_rule], [moves.R] and the
    scheduler's flip count.

    Telemetry hooks (both default to off, with one [match] per step then):
    [on_step] receives, after each step, the sizes of the enabled and the
    activated sets — the raw material for scheduling-pressure metrics;
    [on_round] fires once per {e completed} round with cumulative step and
    move counts and the configuration that closed the round, {e after} the
    [observer] has seen the step, so observer-fed probes are consistent with
    the snapshot.

    [check_overlap] (default off) asserts, via {!Algorithm.exclusive_rules},
    that at most one guard fires on every view the run evaluates — so on
    every enabled process of every reached configuration; a violation
    raises [Invalid_argument] naming the process and the overlapping rules.
    Rule overlap makes the rule-list priority order load-bearing (Lemma 5
    assumes pairwise exclusion), so traced or debugged runs should enable
    this. *)

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
