(** Finitely-enumerable algorithm instances.

    The bounded model checker ({!Model}) and the rule linter ({!Lint}) both
    need the same data: an algorithm, a concrete graph, and — per process —
    the finite set of states the adversary may initialize it with.  Self-
    stabilization quantifies over {e all} initial configurations, so the
    checker seeds its exploration with the full product of these domains and
    then closes it under transitions (actions may leave the seed domain —
    SDR's distance variable grows during broadcasts; the closure stays
    finite whenever the algorithm has no unbounded counter).

    A first-class {!FINITE} value keeps the state type existential: the
    checker never needs to name it. *)

type 's ranking = {
  rank : Sym.rank_spec;
  params : (string * int) list;  (** the instance's IR parameter values *)
  encode : 's -> (string * Sym.value) list;
      (** the instance's state encoder into the rank's IR fields *)
}
(** An IR rank bound to a concrete instance: the same {!Sym.rank_spec} the
    differential and the SMT export use, evaluated by {!Model} through
    {!Sym.rank_step}. *)

module type FINITE = sig
  type state

  val name : string
  (** Instance name, e.g. ["min-unison[K=17]"]. *)

  val algorithm : state Ssreset_sim.Algorithm.t
  val graph : Ssreset_graph.Graph.t

  val domain : int -> state list
  (** [domain u] is the seed state domain of process [u] — every state the
      adversary may place there initially.  Must be non-empty and free of
      duplicates (under [algorithm.equal]). *)

  val is_legitimate : state array -> bool
  (** The specification's legitimate-configuration predicate (for silent
      algorithms this may simply be "the configuration is terminal"). *)

  val terminal_ok : state array -> bool
  (** Output validity of a terminal configuration — e.g. "the coloring is
      proper", "the alliance is 1-minimal".  Only evaluated on terminal
      configurations. *)

  val certificate : state ranking option
  (** Optional convergence rank, checked by {!Model} on every explored move
      of a rule it covers. *)
end

type t = (module FINITE)

val make :
  name:string ->
  algorithm:'s Ssreset_sim.Algorithm.t ->
  graph:Ssreset_graph.Graph.t ->
  domain:(int -> 's list) ->
  legitimate:(Ssreset_graph.Graph.t -> 's array -> bool) ->
  ?terminal_ok:(Ssreset_graph.Graph.t -> 's array -> bool) ->
  ?certificate:'s ranking ->
  unit ->
  t
(** Pack an instance.  [terminal_ok] defaults to [legitimate]; [certificate]
    defaults to none. *)

val sdr_domain :
  inner:(int -> 'i list) -> max_d:int -> int -> 'i Ssreset_core.Sdr.state list
(** Seed domain of a composed [I ∘ SDR] process: the product of SDR status
    {C, RB, RF}, distance [0..max_d], and the inner domain.  [max_d = n] is
    a sensible seed bound — larger distances are reached by closure if the
    dynamics produce them. *)
