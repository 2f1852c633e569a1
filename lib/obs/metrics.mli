(** Metrics registry: counters, gauges and fixed-bucket histograms.

    One registry per measured run.  Instruments are registered by name; a
    snapshot of the whole registry serializes to {!Json.t} for the JSONL
    trace and for BENCH_results.json.  Everything is plain mutable state —
    no locks, no background threads; observation costs are a few array
    writes so instruments can sit on the engine's per-step hot path. *)

type t

val create : unit -> t

(** {2 Counters} — monotonically increasing integers (e.g. moves per rule). *)

type counter

val counter : t -> string -> counter
(** Registers (or returns the already-registered) counter [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} — last-write-wins floats (e.g. wall-clock, steps/sec). *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val rate : int -> float -> float
(** [rate count secs] is [count /. secs], or 0 over no elapsed time. *)

(** {2 Histograms} — fixed upper-bound buckets (e.g. enabled-set size per
    step, steps per round).  A value lands in the first bucket whose bound is
    [>=] the value; larger values land in the implicit overflow bucket. *)

type histogram

val histogram : t -> string -> buckets:float array -> histogram
(** [buckets] must be strictly increasing and nonempty.
    @raise Invalid_argument otherwise. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_quantile : histogram -> p:float -> float
(** Crude quantile estimate from the bucket counts: the upper bound of the
    first bucket at which the cumulative count reaches [p] (in [0, 100]) per
    cent of the observations.  0 for an empty histogram. *)

(** {2 Snapshots} — delta extraction for windowed emission. *)

type snapshot
(** Frozen counter values of a whole registry at one instant.  Counters
    registered after the snapshot count from zero in the next {!diff}. *)

val snapshot : t -> snapshot

val diff : snapshot -> t -> (string * int) list
(** Per-counter increments since the snapshot, in registration order,
    omitting counters that did not change.  Re-snapshotting after each
    window guarantees every increment of a monotone counter is reported in
    exactly one window — no double counting. *)

val pow2_buckets : limit:float -> float array
(** [1; 2; 4; …] up to and including the first power of two [>= limit]. *)

val to_json : t -> Json.t
(** Snapshot of every instrument, in registration order:
    [{"counters": {...}, "gauges": {...}, "histograms": {name: {"le": [...],
    "counts": [...], "overflow": n, "sum": s, "count": c}}}]. *)
