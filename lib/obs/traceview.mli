(** Offline analyses of a loaded [ssreset-trace-v1] trace ({!Tracefile}):
    the [ssreset trace] explorer.

    Every analysis is one function from the trace to a value, and every
    value is rendered once as JSON ([*_json]) and once as text
    ([*_text], newline-terminated lines).  The [*_check] functions verify a
    structural invariant: [Ok line] on success, [Error lines] (one per
    violation) otherwise.  Analyses that need step records return
    [Error msg] on a trace recorded without [--trace-steps]. *)

val span : Tracefile.t -> Span.t
(** Replay the recorded wave tags through the span builder the online
    tracker feeds, seeded with the trace's initial mid-reset processes. *)

val causality : ?keep_edges:bool -> Tracefile.t -> Causality.t
(** The happens-before DAG over the recorded moves. *)

(** {2 summary} *)

type summary

val summary : Tracefile.t -> summary
(** Outcome, counters, anomalies, wave statistics and, when step records
    are present, the critical-path length. *)

val summary_json : summary -> Json.t
val summary_text : summary -> string

(** {2 waves} *)

type waves

val waves : Tracefile.t -> (waves, string) result
(** The reconstructed per-wave spans. *)

val waves_json : waves -> Json.t
val waves_text : waves -> string

val waves_check : waves -> (string, string list) result
(** The spans balance ({!Span.check}, requiring completion unless the run
    hit its step limit), create no synthetic wave, and the per-wave
    SDR-R/RB/RF/C totals equal the summary's per-rule move counters. *)

(** {2 critical path} *)

type critical_path

val critical_path : Tracefile.t -> (critical_path, string) result
(** The longest happens-before chain and its per-rule attribution. *)

val critical_path_json : critical_path -> Json.t
val critical_path_text : critical_path -> string

val critical_path_check : critical_path -> (string, string list) result
(** The path is no longer than the step count, and exactly as long under
    the synchronous daemon. *)

(** {2 dot} *)

val dot :
  what:[ `Waves | `Causal ] -> max_moves:int -> Tracefile.t ->
  (string, string) result
(** Graphviz source of the wave DAG or of the happens-before DAG (at most
    [max_moves] moves). *)

(** {2 diff} *)

type diff = (string * string * string) list
(** [(field, a, b)] for every compared field on which two traces differ. *)

val diff : Tracefile.t -> Tracefile.t -> diff
val diff_json : diff -> Json.t
val diff_text : diff -> string
