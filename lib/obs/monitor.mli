(** Online bound monitors: watch a running execution against the paper's
    complexity bounds and emit a structured anomaly record the moment one
    trips.

    A {!t} is shared by a set of monitors installed on one run.  It keeps a
    ring buffer of the most recent (step, process, rule) move events; when a
    monitor trips, the anomaly — offending monitor, step, process, observed
    value, violated bound, and the recent event window — is latched here and
    written to the JSONL {!Sink} (record [{"type": "anomaly", ...}]) if one
    was supplied.  Each named monitor trips at most once per run: a bound
    stays violated forever after, so repeating the record would only bury
    the interesting step. *)

type anomaly = {
  monitor : string;
  step : int;  (** Engine step at which the violation was observed. *)
  process : int option;  (** Offending process, when attributable. *)
  value : int;  (** Observed value (move count, round, measure). *)
  bound : int;  (** The bound it violated. *)
  window : (int * int * string) list;
      (** Recent (step, process, rule) events, oldest first, at trip time. *)
}

type t

val create : ?sink:Sink.t -> ?window:int -> unit -> t
(** [window] is the ring-buffer capacity (default 8). *)

val move_bound : t -> name:string -> bound:int -> 'state Obs.t
(** Trips when the cumulative move count exceeds [bound]; the offending
    process is the one whose move crossed the line.  E.g. the [D·n²] total
    move bound of U∘SDR (Theorem 6). *)

val round_bound : t -> name:string -> bound:int -> round:int -> steps:int -> unit
(** [on_round]-shaped hook: call it with each completed [round] (and the
    cumulative [steps] at that point); trips when [round] exceeds [bound].
    E.g. the 3n round bound of U∘SDR (Theorem 7), 8n+4 for FGA∘SDR. *)

val non_increasing :
  t -> name:string -> measure:('state array -> int) -> init:int -> 'state Obs.t
(** Trips when [measure cfg] ever exceeds its previous value along the run —
    e.g. the alive-root count, which Remark 4 proves never grows. *)

val trip :
  t -> monitor:string -> step:int -> ?process:int -> value:int -> bound:int ->
  unit -> unit
(** Low-level: latch (and emit) an anomaly directly.  No-op if a monitor of
    the same name already tripped. *)

val anomalies : t -> anomaly list
(** Latched anomalies, in trip order. *)

val anomaly_count : t -> int
