(** Daemons — the scheduling adversaries of the model (§2.2).

    A daemon selects, at each step, a nonempty subset of the enabled
    processes.  The {e distributed unfair} daemon of the paper is the set of
    all such selection functions; every daemon below is an instance of it,
    so any bound proven under the unfair daemon must hold under each of
    them.

    A daemon is a plain value: both engines ({!Engine.run} and the flat
    engine) and the symbolic differential select through the one
    {!select}, which reads the enabled set as a {!Bits.t} plus its size.
    Randomized daemons draw from the [Random.State.t] passed by the
    caller, keeping runs reproducible; the only other state, the
    round-robin cursor, belongs to the run. *)

type t =
  | Synchronous  (** activates every enabled process *)
  | Central_random  (** exactly one enabled process, uniformly at random *)
  | Central_first  (** the enabled process with the smallest index *)
  | Central_last  (** the enabled process with the largest index *)
  | Round_robin
      (** central, cycling through process indices from the run's cursor *)
  | Distributed_random of float
      (** each enabled process independently with probability [p]; one
          uniformly random enabled process if the coins select nobody *)
  | Locally_central
      (** a random maximal subset of the enabled processes that is
          independent in the graph (no two activated neighbors) *)
  | Adversarial of string list
      (** central, uniform among the processes whose enabled rule's name
          comes earliest in the list (unlisted rules rank last); used to
          stress specific phases, e.g. starving resets by preferring
          input-algorithm rules *)
  | Starve of int
      (** [Starve u] never activates [u] unless it is the only enabled
          process — the canonical unfairness witness *)

val select :
  t ->
  Random.State.t ->
  cursor:int ref ->
  enabled:Bits.t ->
  count:int ->
  rule_name:(int -> string) ->
  for_all_neighbors:(int -> (int -> bool) -> bool) ->
  (int -> unit) ->
  unit
(** [select d rng ~cursor ~enabled ~count ~rule_name ~for_all_neighbors
    push] calls [push] once per chosen process, in ascending order.
    [enabled] must be nonempty and hold exactly [count] members.
    [cursor] is the run's round-robin position (start it at 0; only
    [Round_robin] reads or writes it), [rule_name u] names the rule an
    enabled [u] would execute (only [Adversarial] asks), and
    [for_all_neighbors u f] tests [f] on every neighbor of [u] (only
    [Locally_central] asks).  Cost is O(|enabled| + n/32) for the
    whole-set daemons and O(n/32) for the central ones. *)

val name : t -> string
(** Display name, e.g. ["distributed-random(p=0.50)"]. *)

val synchronous : t
val central_random : t
val central_first : t
val central_last : t
val round_robin : t

val distributed_random : float -> t
(** [Distributed_random p], after checking [0 < p <= 1]
    ([Invalid_argument] otherwise). *)

val locally_central_random : t
val adversarial_rule : prefer:string list -> t
val starve : int -> t

val check_selection : Bits.t -> int list -> unit
(** Validates a selection against the enabled set (nonempty, subset);
    raises [Invalid_argument] otherwise.  The test oracle: {!Engine.run}
    makes the same check on every step as the processes are pushed. *)

val all_standard : t list
(** A representative daemon zoo used by tests and experiments: synchronous,
    central (first/last/random/round-robin), distributed-random at several
    densities, locally-central, and starvation. *)

val standard_prefer : string list
(** Default rule-name priorities for the stress [Adversarial] daemon:
    input-algorithm moves over resets. *)

val registry : (string * t) list
(** The single name → daemon table: every user-facing surface (CLI [--daemon],
    {!Ssreset_expt.Runner.daemon_by_name}, the flat engine, experiment
    sweeps, docs) derives from this list, so names cannot drift. *)

val names : string list
(** [List.map fst registry]. *)

val by_name : string -> t option
(** Lookup in {!registry}; [None] for unknown names. *)
