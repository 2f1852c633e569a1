(** The one step core of both engines.

    The paper's model (§2.2–2.4) is one semantics: the daemon activates a
    nonempty subset of the enabled processes, every activated process
    executes its first enabled rule reading the {e pre-step}
    configuration (composite atomicity), and rounds are counted by
    neutralization.  This module executes it once.  It owns the enabled
    table (rule indices, [-1] = disabled) beside its {!Bits} set and
    size, {!Daemon.select} with a per-push membership check, the
    stamp-deduplicated refresh over the movers' CSR rows with
    neutralization fused in, the §2.4 pending set, the exact scheduler
    counts, the profiler's lap timers, heartbeats and bound monitors.

    An engine is only an {e evaluator} over its own representation of the
    configuration: [eval u] returns [u]'s first enabled rule index or
    [-1]; [stage k u r] computes mover [k] = [u]'s post under rule [r]
    from the pre-step configuration, as the daemon pushes it; [commit k u]
    writes mover [k]'s staged post.  {!Engine} (OCaml guards over views)
    and [Flat] (compiled IR over unboxed arrays) are the two evaluators,
    and the flat ≡ classic differential checks them against each other. *)

type outcome =
  | Stabilized  (** the stop predicate became true *)
  | Terminal  (** no process is enabled (and the stop predicate was false) *)
  | Step_limit  (** [max_steps] was exhausted first *)

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
(** One heartbeat progress sample. *)

type hooks = {
  after_step : (unit -> unit) option;
      (** after each step's refresh (the evaluator's observers) *)
  on_round : (unit -> unit) option;
      (** when a round completes, after [after_step] *)
  stop : (unit -> bool) option;
      (** checked on the initial configuration and after every step *)
  illegit : (unit -> int) option;
      (** illegitimate-process count, kept up to date by [eval]: feeds
          heartbeats and the [obs.legit_steps] availability counter *)
  monitor : Ssreset_obs.Monitor.t option;
  rounds_bound : int option;  (** trips [rounds-bound] once when exceeded *)
  moves_bound : int option;  (** trips [moves-bound] once when exceeded *)
  heartbeat : (int * (beat -> unit)) option;
      (** [(every, f)]: [f] after every [every]-th step *)
}
(** Per-run hooks.  An absent hook costs one [match] per step. *)

val no_hooks : hooks

type t
(** One run's scheduler state. *)

val create :
  prof:Ssreset_obs.Prof.t option ->
  daemon:Daemon.t ->
  rng:Random.State.t ->
  csr:Ssreset_graph.Csr.t ->
  rules:string array ->
  eval:(int -> int) ->
  stage:(int -> int -> int -> unit) ->
  commit:(int -> int -> unit) ->
  t
(** Scan every process once with [eval] and fill the first pending set.
    [rules] names the rule indices [eval] returns.  With [prof], the run
    registers the [phase.scan]/[select]/[apply]/[refresh]/[callbacks]/
    [stop] timers, then one [rule.R] timer and [moves.R] counter per rule
    index, the [sched.touched]/[evals]/[dedup_hits]/[table_flips]
    counters and the [sched.refresh_size] histogram (plus
    [obs.legit_steps] when {!run} gets an [illegit] hook). *)

val step : t -> index:int -> unit
(** One atomic step: select (staging each mover), commit, account, and
    refresh.  Requires [count t > 0].  [index] only labels errors: a
    selection that is empty or names a disabled process raises
    [Invalid_argument]. *)

val run : t -> hooks -> max_steps:int -> outcome
(** Step until [stop] holds, no process is enabled, or [max_steps] steps
    have run; then close the profile ([gc.*] deltas, the [engine.wall_s]
    gauge).  With a profiler the phase laps tile the run; rule timers
    chain over the commits, one lap per run of consecutive commits of one
    rule (recorded as that many spans of the run's mean).
    @raise Invalid_argument on a non-positive heartbeat interval. *)

(** {2 Results} *)

val count : t -> int
(** Enabled processes now. *)

val pre_count : t -> int
(** Enabled processes before the last step. *)

val selected : t -> int
(** Movers of the last step. *)

val moved : t -> (int * string) list
(** The last step's (process, rule) pairs, in ascending process order. *)

val steps : t -> int
val moves : t -> int
val rounds_done : t -> int
(** Completed rounds. *)

val rounds : t -> int
(** Completed rounds, plus one if a partial round has a step. *)

val moves_per_process : t -> int array
val moves_per_rule : t -> (string * int) list
(** Sorted by rule name. *)

val wall_s : t -> float
(** Seconds from {!create} to the end of {!run}. *)

(** {2 Shared with the partitioned flat run} *)

val check_heartbeat : (int * (beat -> unit)) option -> unit
(** @raise Invalid_argument when the interval is not positive. *)

val beat :
  (float * int) ref ->
  steps:int ->
  moves:int ->
  enabled:int ->
  legit:int ->
  legit_steps:int option ->
  beat
(** [beat last ...]: [last] holds the wall clock and move count of the
    previous beat, so the rate covers one interval. *)

val trip :
  Ssreset_obs.Monitor.t option ->
  string ->
  int option ->
  steps:int ->
  value:int ->
  unit
(** [trip monitor name bound ~steps ~value] latches anomaly [name] (once
    per monitor) when [value] exceeds [bound]. *)

val rule_list : string array -> int array -> (string * int) list
(** Nonzero per-rule counts by name, sorted. *)

val finish_prof : Ssreset_obs.Prof.t -> float -> unit
(** Collect the GC deltas and add the wall seconds to [engine.wall_s]. *)
