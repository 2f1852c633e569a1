(** Distributed algorithms in the locally shared memory model.

    A distributed algorithm (§2.2 of the paper) is a finite set of guarded
    rules [label : guard -> action].  A process evaluates guards over its
    {e view}: its own state plus the states of its neighbors, accessed
    through local labels (indirect naming).  Processes are anonymous — a
    view carries no global identity; algorithms for identified networks
    store the identifier as an immutable field of their own state. *)

type 'state view = {
  state : 'state;  (** the process's own state *)
  nbrs : 'state array;
      (** neighbor states, indexed by local label; do not mutate *)
}

type 'state rule = {
  rule_name : string;  (** used in traces, daemons and tests *)
  guard : 'state view -> bool;
  action : 'state view -> 'state;
}

type 'state t = {
  name : string;
  rules : 'state rule list;
      (** evaluated in order; the first enabled rule is executed.  All
          algorithms in this repository have pairwise mutually exclusive
          rules (Lemma 5), which the test suite checks. *)
  equal : 'state -> 'state -> bool;
  pp : 'state Fmt.t;
}

val view : Ssreset_graph.Graph.t -> 'state array -> int -> 'state view
(** [view g cfg u] builds the view of process [u] in configuration [cfg]. *)

val views : Ssreset_graph.Graph.t -> 'state array -> 'state view array
(** All views of a configuration. *)

val enabled_rule : 'state t -> 'state view -> 'state rule option
(** First enabled rule of a process, if any. *)

val is_enabled : 'state t -> 'state view -> bool

val enabled_processes : 'state t -> Ssreset_graph.Graph.t -> 'state array -> int list
(** Sorted list of enabled processes in a configuration. *)

val is_terminal : 'state t -> Ssreset_graph.Graph.t -> 'state array -> bool
(** No process is enabled. *)

val for_all_views :
  Ssreset_graph.Graph.t -> 'state array -> f:(int -> 'state view -> bool) -> bool
(** Does [f u (view u)] hold for every process?  Used to express
    configuration predicates such as "normal configuration". *)

val sample_views :
  max:int ->
  's array array ->
  (int array -> 's view -> unit) ->
  unit
(** [sample_views ~max dims f]: [dims.(0)] is a process's state domain and
    [dims.(i)] that of its [i]-th neighbor.  Calls [f digits view] on
    [min max total] views of their product, spread over its mixed-radix
    index by a fixed stride; [digits.(i)] is the index of the view's site-[i]
    state in [dims.(i)].  The view sweep of the lint, footprint and
    symbolic differential passes. *)

val exclusive_rules : 'state t -> 'state view -> string list
(** Names of all rules enabled on a view — used by tests to check pairwise
    mutual exclusion (at most one name for every reachable view). *)

(** Dirty-set tracker of a local predicate: which processes satisfy a
    predicate over their view, maintained in O(movers·Δ) per step.

    A step changes only the movers' states and a view reads only a closed
    neighborhood, so after a step only the movers' closed neighborhoods can
    change truth value.  {!update} re-evaluates exactly those (each process
    once).  The tracker is correct only if it is fed {e every} step of the
    run, each with a [moved] list that includes every process whose state
    changed — {!Engine.run}'s observer contract.

    {!mark} and {!exists} are the lazy form, for a caller that only asks
    whether the predicate holds {e somewhere} (a stop condition such as "no
    process is illegitimate"): marks are recorded without evaluating
    anything, and {!exists} re-evaluates marked processes only until it
    finds one where the predicate still holds, so a long-lived witness
    answers in O(1).

    The alive-root tracker of {!Ssreset_core.Sdr.S.Segments}, the runner's
    stop condition and the unison safety probe are all built on it. *)
module Tracker : sig
  type 'state t

  val create :
    Ssreset_graph.Graph.t -> ('state view -> bool) -> 'state array -> 'state t
  (** [create g pred cfg] evaluates [pred] on every view of [cfg] (the one
      O(n·Δ) pass).  The configuration is not retained. *)

  val update : 'state t -> moved:(int * string) list -> 'state array -> unit
  (** Advance to the configuration [cfg] that follows a step whose movers
      are [moved]: {!mark} then {!flush}. *)

  val mark : 'state t -> moved:(int * string) list -> unit
  (** Record a step whose movers are [moved]; the movers' closed
      neighborhoods are re-evaluated later, by {!exists} or {!flush}, on the
      configuration passed to them — which must be the one reached after
      every marked step. *)

  val flush : 'state t -> 'state array -> unit
  (** Re-evaluate every marked process on [cfg]. *)

  val exists : 'state t -> 'state array -> bool
  (** Does the predicate hold at some process of [cfg]?  Resolves only as
      many marks as it needs; the queries below stay as of each process's
      last evaluation until a {!flush}. *)

  val count : 'state t -> int
  (** Number of processes where the predicate holds (exact after {!update}
      or {!flush}, like the other queries). *)

  val rose : 'state t -> bool
  (** Has some evaluation since {!create} found the predicate turned from
      false to true at a process? *)

  val members : 'state t -> int list
  (** The processes where the predicate holds, ascending — O(n). *)
end
