(** Analyses of a loaded [ssreset-prof-v1] profile ({!Proffile}): the
    [ssreset prof] explorer.

    The shape is {!Traceview}'s: every analysis is one function from the
    profile to a value, rendered once as JSON ([*_json]) and once as text
    ([*_text], newline-terminated lines); {!report_check} returns
    [Ok line] or [Error lines]. *)

(** {2 report} *)

type report

val report : Proffile.t -> report
(** Per-phase and per-rule attribution, phase coverage, scheduler and GC
    counters and, on a partitioned stream ([flat.parts] gauge > 1), the
    per-worker compute/write/refresh/busy/barrier/GC table — one row per
    worker whose [flat.workerK.*] / [pool.workerK.*] gauges the stream
    carries. *)

val report_json : report -> Json.t
val report_text : report -> string

val report_check : report -> (string, string list) result
(** The phase timers account for 90%..110% of the run's wall clock (times
    the worker count on a partitioned stream), and a partitioned stream
    carries gauges for every worker it claims. *)

(** {2 top} *)

type top

val top : Proffile.t -> top
(** Rules ranked by total apply time. *)

val top_json : top -> Json.t
val top_text : top -> string

(** {2 windows} *)

type windows = Proffile.window list

val windows : Proffile.t -> windows
(** The streaming throughput windows. *)

val windows_json : windows -> Json.t
val windows_text : windows -> string
