(** Bounded model checker for self-stabilization properties.

    Explores the {e full} nondeterministic transition system of a
    {!Finite} instance: every configuration in the product of the seed
    domains (self-stabilization quantifies over all initializations), closed
    under steps, where each configuration has one successor per {e non-empty
    subset} of its enabled processes — i.e. every behavior of every daemon,
    including the unfair ones.  On the explored graph it verifies:

    - {b closure}: no transition leaves the legitimate set;
    - {b convergence}: no reachable cycle lies entirely outside the
      legitimate set (a livelock — the adversarial schedule that loops it
      forever witnesses non-convergence), and no terminal configuration is
      illegitimate (a dead end);
    - {b silence} of terminal configurations: every terminal configuration
      passes [terminal_ok]; with [expect_silent] the legitimate region must
      additionally be acyclic, so {e every} execution of the algorithm is
      finite;
    - {b exact worst cases}: when no violation was found, the illegitimate
      region is a DAG and dynamic programming yields the exact worst-case
      number of {e moves} to reach the legitimate set, and — over the
      augmented (configuration × pending-set) graph that mirrors the
      engine's neutralization-based round accounting — the exact worst-case
      number of {e rounds}, comparable against the paper's 3n and 8n + 4
      bounds. *)

type violation = {
  property : string;
      (** ["closure" | "livelock" | "dead-end" | "terminal-output" |
          "silence"] *)
  detail : string;  (** human-readable, includes pretty-printed witnesses *)
}

type stats = {
  configs : int;  (** distinct configurations explored (seed + closure) *)
  transitions : int;  (** edges, one per (configuration, daemon choice) *)
  legitimate : int;
  terminal : int;
  wall_s : float;
}

type t = {
  instance : string;  (** {!Finite.FINITE.name} *)
  graph_n : int;
  graph_m : int;
  stats : stats;
  violations : violation list;
  aborted : string option;
      (** [Some reason] when a budget stopped exploration before the space
          was covered; property verdicts are then void *)
  worst_moves : int option;
      (** exact worst-case moves from any illegitimate configuration to the
          legitimate set; [None] if violations were found or aborted *)
  worst_rounds : int option;
      (** exact worst-case rounds, engine convention (a final partial round
          counts); [None] if not computed — violations, abort, rounds
          budget, or [rounds = `Off] *)
  automorphisms : int option;
      (** [Some |Aut(G)|] when symmetry reduction was applied — the
          explored configurations are then orbit representatives;
          [None] when unreduced (symmetry off, asymmetric graph, or
          per-process domains differ) *)
  certificate : string option;
      (** name of the instance's rank ({!Finite.ranking}), checked on every
          explored move of a rule it covers: the mover's tuple must take a
          {!Sym.rank_step}; a failed check surfaces as a ["certificate"]
          violation *)
}

type options = {
  max_configs : int;  (** exploration budget; default [1_000_000] *)
  max_round_states : int;
      (** budget on (configuration × pending-mask) states for the rounds
          DP; default [600_000] *)
  rounds : [ `Auto | `On | `Off ];
      (** [`Auto] (default) computes worst-case rounds only when the
          augmented space fits the budget; [`Off] skips it *)
  expect_silent : bool;
      (** also require the legitimate region to be acyclic (default
          [false]) *)
  symmetry : bool;
      (** explore one configuration per graph-automorphism orbit instead of
          all of them (default [false]).  Sound for anonymous instances:
          identical per-process seed domains (checked here) and
          neighbor-order-invariant rules (checked by {!Lint}'s permutation
          pass).  Verdicts, [worst_moves] and [worst_rounds] are identical
          to the unreduced run; [stats.configs] counts orbits.  The rank
          check is per move, so it holds on every orbit member alike. *)
}

val default_options : options

val check : ?options:options -> Finite.t -> t
(** Exhaustively verify one instance.  Violation lists are deduplicated per
    property (one witness each) and sorted by property name. *)
