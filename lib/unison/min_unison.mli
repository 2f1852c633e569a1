(** Baseline: self-stabilizing unison in the style of Couvreur, Francez &
    Gouda (ICDCS 1992) — reference [20] of the paper — with the large
    period K > n² of the original and the tail discipline of Boulinier's
    parametric analysis (which §5.2 follows).

    A process increments when every neighbor is at its value or one ahead
    (exactly rule U) and escapes to the bottom of a short tail of [alpha]
    values below the ring on local incompatibility, climbing back once its
    neighborhood has settled.  The first reconstruction of this baseline
    reset to 0 {e inside} the ring; the exhaustive model checker
    ([ssreset_check]) found that variant livelocks under the distributed
    unfair daemon on graphs with holes — on C4 a clock at 2 and its reset
    chase each other around the cycle using only values 0..2, for any K —
    which random stabilization tests had missed.  Consistent with
    Boulinier's analysis, correctness under the unfair daemon needs a
    reset value strictly below the ring, so the corrected reconstruction
    instantiates the tail rule core ([Tail_unison]) with CFG's period
    K = n²+1 and a minimal tail [alpha = max 1 (n-2)]. *)

type clock = int

val rule_tick : string
(** ["MU-tick"]. *)

val rule_climb : string
(** ["MU-climb"]: climb one step back toward the ring. *)

val rule_zero : string
(** ["MU-zero"]: escape to the tail bottom [-alpha] on local
    incompatibility. *)

module Make (P : sig
  val k : int
  (** Use [K > n²]. *)

  val alpha : int
  (** Tail length; [max 1 (n - 2)] suffices (holes have length <= n). *)
end) : sig
  val k : int
  val alpha : int

  val algorithm : clock Ssreset_sim.Algorithm.t
  val gamma_init : Ssreset_graph.Graph.t -> clock array
  val clock_gen : clock Ssreset_sim.Fault.generator

  val is_legitimate : Ssreset_graph.Graph.t -> clock array -> bool
  (** Every clock on the ring (>= 0) and every neighbor pair within one
      increment (ring distance <= 1). *)

  val p_legitimate : clock Ssreset_sim.Algorithm.view -> bool
  (** The per-process form of {!is_legitimate}, as
      {!Tail_unison.Make.p_legitimate}. *)
end
