(** Execution traces: record and pretty-print runs.

    A trace records every configuration of an execution together with the
    (process, rule) pairs activated at each step.  Traces are meant for
    examples, debugging and fine-grained tests — for long benchmark runs use
    the engine's aggregate counters instead. *)

type 'state entry = {
  step : int;
  moved : (int * string) list;  (** activated processes and their rules *)
  config : 'state array;  (** configuration {e after} the step *)
}

type 'state t = {
  initial : 'state array;
  entries : 'state entry list;  (** in execution order *)
}

val record :
  ?rng:Random.State.t ->
  ?max_steps:int ->
  ?stop:('state array -> bool) ->
  algorithm:'state Algorithm.t ->
  graph:Ssreset_graph.Graph.t ->
  daemon:Daemon.t ->
  'state array ->
  'state t * 'state Engine.result
(** Run the engine while recording every step. *)

val length : 'state t -> int
(** Number of steps recorded. *)

val configs : 'state t -> 'state array list
(** All configurations, starting with the initial one. *)

val steps_pairs : 'state t -> ('state array * 'state array * (int * string) list) list
(** Consecutive configuration pairs [(before, after, moved)] — convenient
    for checking step-closure properties in tests. *)

val pp :
  pp_state:'state Fmt.t -> ?max_entries:int -> unit -> 'state t Fmt.t
(** Renders the trace as one line per step: moved processes and the new
    configuration. *)

val moved_processes : 'state t -> int list
(** All processes that moved at least once, sorted. *)

val rule_sequence : 'state t -> int -> string list
(** [rule_sequence t u]: the sequence of rule names executed by process [u],
    in order — used to check Theorem 4's per-segment rule language. *)
