(** Run profiler: named counters, gauges, timers and log-bucketed
    histograms, with optional streaming windowed emission for long runs.

    One [Prof.t] rides along a measured run (or several — instruments
    accumulate).  The record path is engineered for the engine's step
    loop: a timer span is one monotonic-clock read ({!now_ns}, a [noalloc]
    C stub from [bechamel.monotonic_clock]) plus a {!Histogram.record} —
    integer arithmetic and two array writes, nothing allocated.  Counters
    and gauges are {!Metrics} instruments ({!metrics} exposes the
    registry), so the existing JSON snapshot and the {!Metrics.diff}
    machinery apply.

    Naming conventions the reporting layer keys on: timers named
    ["phase.X"] are the engine's per-phase wall-time attribution, timers
    named ["rule.R"] its per-rule attribution; counters named ["moves.R"]
    are per-rule move counts (windows report their per-window deltas).

    {2 Windowed streaming}

    With a {!Sink.t} attached and [window_steps > 0], every
    [window_steps]-th {!tick} emits one [window] JSONL record: steps/s and
    moves/s over the window, per-rule move deltas (via {!Metrics.diff} —
    monotone counters are never double-counted), and GC word deltas.
    {!write_summary} ends the stream with one [summary] record carrying
    the per-phase/per-rule totals and every instrument.  Manifest, window
    and summary records form the [ssreset-prof-v1] schema validated by
    {!Proffile} and [jsonlint --check-prof]. *)

type t

val schema : string
(** ["ssreset-prof-v1"]. *)

val create : ?sub_bits:int -> ?window_steps:int -> ?sink:Sink.t -> unit -> t
(** [window_steps] (default 0 = no windows) only matters with a [sink].
    [sub_bits] is the resolution of every histogram (see
    {!Histogram.create}). *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds.  Differences are meaningful; the origin
    is arbitrary. *)

val metrics : t -> Metrics.t
(** The embedded counter/gauge registry. *)

(** {2 Timers} *)

type timer

val timer : t -> string -> timer
(** Registers (or returns) the timer [name].  Span durations feed a
    nanosecond {!Histogram}; the exact total is kept separately. *)

val record_span : timer -> int -> unit
(** Record an externally measured span of [ns] nanoseconds — the engine
    laps its phases (one clock read per phase boundary). *)

val record_spans : timer -> int -> n:int -> unit
(** [record_spans tm ns ~n]: [n] back-to-back spans measured together,
    [ns] in all — the exact total, and [n] histogram samples of their
    mean. *)

val timer_total_ns : timer -> int
val timer_count : timer -> int

val merge_spans : timer -> total_ns:int -> Histogram.t -> unit
(** Merge a batch of externally accumulated spans — a worker domain's
    private histogram plus its exact nanosecond total — into the timer.
    This is how per-domain phase laps from the partitioned flat engine are
    folded into one [ssreset-prof-v1] stream ({!Histogram.merge_into} is
    associative and lossless, so merge order does not matter). *)

(** {2 Histograms} (of plain integers, not time) *)

val histogram : t -> string -> Histogram.t
(** Registers (or returns) the histogram [name] — e.g. the per-step
    incremental refresh size. *)

(** {2 GC sampling} *)

val gc_mark : t -> unit
(** Snapshot [Gc.quick_stat] (allocation counters only — no heap walk). *)

val gc_collect : t -> unit
(** Add the deltas since {!gc_mark} to the [gc.minor_words],
    [gc.promoted_words], [gc.major_words], [gc.minor_collections] and
    [gc.major_collections] counters.  Mark/collect pairs accumulate across
    runs. *)

(** {2 Step accounting and windows} *)

val tick : t -> moves:int -> unit
(** Count one engine step with [moves] rule executions.  Per-step cost
    with windows off (or between boundaries): a few integer additions.
    At a window boundary, emits the window record to the sink. *)

val steps : t -> int
val moves : t -> int

(** {2 Emission} *)

val manifest :
  ?extra:(string * Json.t) list ->
  system:string ->
  family:string ->
  n:int ->
  m:int ->
  seed:int ->
  daemon:string ->
  window_steps:int ->
  unit ->
  Json.t
(** First record of a prof stream; [schema] identifies [ssreset-prof-v1]. *)

val summary_json : t -> Json.t
(** The [summary] record: totals, [phases] and [rules] sections (derived
    from the timer naming convention, with percentiles), every counter and
    gauge, and the full timer/histogram buckets for offline analysis. *)

val write_summary : t -> unit
(** Append {!summary_json} to the sink (no-op without one).  Call once,
    after the last run. *)
