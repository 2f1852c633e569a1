(** Zero-dependency worker pool over OCaml 5 domains, with deterministic
    results.

    Built for the experiment grids: every grid cell owns its RNG seed, so
    cells are embarrassingly parallel — the only thing parallelism must not
    change is the output.  [map_array]/[map_list] guarantee exactly that:
    results are returned in input order and error propagation is
    deterministic, so tables and JSON artifacts are byte-identical for any
    [jobs] count (the test suite asserts jobs ∈ {1, 2, 4} agree).

    Jobs must be independent: [f] runs concurrently on several domains, so
    it must not touch shared mutable state (build graphs, daemons and RNG
    states {e inside} the job). *)

type job_error = { index : int; exn : exn; backtrace : Printexc.raw_backtrace }

exception Job_failed of job_error
(** Raised by [map_array]/[map_list] when a job raised.  All jobs still run
    to completion (or failure); the failure with the {e smallest input
    index} is the one surfaced, regardless of domain scheduling. *)

val map_array :
  ?jobs:int -> ?prof:Ssreset_obs.Prof.t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~jobs f xs] is [Array.map f xs] computed by up to [jobs]
    domains (the calling domain included; default
    [Domain.recommended_domain_count ()], floored at 1).  With
    [jobs <= 1] or fewer than two elements no domain is spawned and [f]
    runs inline, in order.

    [prof] reports per-worker utilization without touching determinism:
    each worker accumulates its busy nanoseconds and job count privately
    (one slot and one {!Ssreset_obs.Histogram} per worker) and everything
    is merged into the profiler after the joins — [pool.jobs] and
    per-worker [pool.workerN.jobs] counters, [pool.workerN.busy_s]
    gauges, the [pool.utilization] gauge (combined busy time over
    [workers × wall]) and the [pool.job_ns] duration histogram.  Repeated
    calls accumulate (the [pool.workers] and [pool.utilization] gauges
    describe the latest call). *)

val map_list :
  ?jobs:int -> ?prof:Ssreset_obs.Prof.t -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map_array}. *)

(** Persistent worker team for phase-synchronous algorithms.

    [map_array] spawns fresh domains per call — fine for coarse grid cells,
    hopeless for the flat engine's partitioned stepping, which needs
    several parallel phases {e per step}.  A team spawns its helper domains
    once; each {!Team.run} call is one parallel phase ending in a barrier,
    so a 3-phase step costs three broadcasts, not three spawns. *)
module Team : sig
  type t

  val create : ?prof:Ssreset_obs.Prof.t -> size:int -> unit -> t
  (** Team of [max 1 size] workers: [size - 1] helper domains (spawned
      now, parked on a condition variable) plus the calling domain.

      [prof] makes barrier wait and per-domain busy time attributable from
      any Team user, pay-as-you-go (with no profiler the phase path takes
      no clock reads).  Each worker accumulates two private slots — time
      inside phase bodies, and park/barrier time between them — merged on
      the calling domain at {!shutdown}: accumulating
      [pool.workerN.busy_s]/[pool.workerN.barrier_s] gauges, the
      [pool.team.phases] counter and [pool.team.workers] gauge, the
      [pool.team.job_ns] phase-body histogram, and every wait span folded
      into the [phase.barrier] timer so barrier percentiles appear in the
      profile's phase section (and the waits count toward multi-worker
      wall-clock coverage). *)

  val size : t -> int

  val run : t -> (int -> unit) -> unit
  (** [run t fn] executes [fn w] once for every worker index
      [w ∈ 0 .. size-1] — the caller runs [fn 0] — and returns only after
      {e all} of them finished (a full barrier).  If any worker raised,
      {!Job_failed} with the smallest worker index is raised after the
      barrier, like [map_array].  [fn] must confine writes to
      worker-private data (the flat engine partitions all arrays by
      1024-aligned node ranges; see {!Bits.part_align}).
      Not reentrant: one [run] at a time per team, from the creating
      domain.  With [size = 1], [fn 0] runs inline with no
      synchronization. *)

  val shutdown : t -> unit
  (** Join the helper domains.  Idempotent; the team is unusable after.
      With [prof], the caller's wait for the joins and each helper's exit
      after its final park are recorded as barrier waits, so worker laps
      tile the team's lifetime up to the last join. *)
end
