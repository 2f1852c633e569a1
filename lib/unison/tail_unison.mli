(** Baseline: self-stabilizing unison with reset tails, in the style of
    Boulinier, Petit & Villain (PODC 2004) — the comparator of §5.3.

    Clocks live in [{-α .. K-1}]: nonnegative values are the periodic ring,
    negative values form a linear {e tail} used as a distributed reset
    ramp.  A ring process that observes an incompatible neighbor resets to
    [-α]; tail processes climb back towards the ring in a convergecast
    fashion (a process climbs when it is a local minimum), and may enter the
    ring only when every ring neighbor sits at 0 or 1.

    The pseudo-code of the original paper is not part of the reproduced
    text, so this module is a documented reconstruction (see DESIGN.md):
    the test suite validates that it is a self-stabilizing unison
    (stabilization from thousands of arbitrary configurations, safety and
    liveness after stabilization), and the benchmarks compare its move
    complexity against [U ∘ SDR] — the paper's claim being that the
    SDR-based solution stabilizes in fewer moves (O(D·n²) versus
    O(D·n³ + α·n²)). *)

type clock = int
(** Value in [{-α .. K-1}]; negative = tail. *)

val rule_tick : string
(** ["TU-tick"]: the normal increment on the ring. *)

val rule_climb : string
(** ["TU-climb"]: climbing the tail towards the ring. *)

val rule_reset : string
(** ["TU-reset"]: joining the tail upon local inconsistency. *)

module Make (P : sig
  val k : int
  (** Ring period; use [K > n]. *)

  val alpha : int
  (** Tail length; use [α ≥ n]. *)
end) : sig
  val k : int
  val alpha : int

  val algorithm : clock Ssreset_sim.Algorithm.t

  val gamma_init : Ssreset_graph.Graph.t -> clock array
  (** All clocks at 0. *)

  val clock_gen : clock Ssreset_sim.Fault.generator
  (** Arbitrary clock in [{-α .. K-1}]. *)

  val is_legitimate : Ssreset_graph.Graph.t -> clock array -> bool
  (** Every clock on the ring and every neighbor pair within one increment
      (ring distance ≤ 1).  This set is closed and from it the behavior is
      exactly the unison specification. *)

  val p_legitimate : clock Ssreset_sim.Algorithm.view -> bool
  (** The per-process form of {!is_legitimate}: the clock is on the ring and
      within one increment of every neighbor.  It holds at every process iff
      {!is_legitimate} holds (ring distance is symmetric). *)

  val compatible : clock -> clock -> bool
  (** The local compatibility relation used by the reset guard. *)
end
