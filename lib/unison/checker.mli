(** Safety and liveness monitors for the unison specification (§5.1).

    - Safety: the clocks of any two neighbors differ by at most one
      increment at every instant.
    - Liveness: every process increments its clock infinitely often
      (checked on finite runs as "every process incremented at least a
      threshold number of times"). *)

val safety_ok : k:int -> Ssreset_graph.Graph.t -> int array -> bool
(** Do all neighbor pairs satisfy [P_Ok] (ring distance ≤ 1 mod K)? *)

type monitor

val create_monitor : k:int -> Ssreset_graph.Graph.t -> monitor

val observe_bare :
  monitor -> step:int -> moved:(int * string) list -> int array -> unit
(** Observer for runs of bare U (configurations are arrays of clocks in
    [0, K), where [P_Ok] is symmetric).  A step
    is a safety violation iff some process is out of step with a neighbor
    afterwards; the unsafe processes are kept by an
    {!Ssreset_sim.Algorithm.Tracker} built on the first step observed, so
    the probe costs O(movers·Δ) per step.  Hence, like every engine
    observer, it must see every step of one run, with [moved] listing every
    process whose state changed; use one monitor per run. *)

val observe_composed :
  monitor ->
  step:int ->
  moved:(int * string) list ->
  'a Ssreset_core.Sdr.state array ->
  unit
(** Observer for runs of [U ∘ SDR]; counts only ["U-inc"] moves and ignores
    safety while SDR is still resetting (safety is only specified from
    legitimate configurations). *)

val increments : monitor -> int array
(** Per-process count of clock increments observed. *)

val safety_violations : monitor -> int
(** Number of steps after which some neighbor pair violated [P_Ok]
    (only counted by {!observe_bare}). *)

val min_increments : monitor -> int
(** The smallest per-process increment count — liveness proxy. *)
