(** Reading and validating [ssreset-trace-v1] JSONL run traces.

    The schema extends the run-record stream ({!Sink}) with step-level
    records so executions can be replayed offline:

    - one {e manifest} first, carrying [trace_schema = "ssreset-trace-v1"]
      and the graph's [edges] (so analyses need no side channel);
    - at most one {e init} record next: the processes already mid-reset in
      the initial configuration ([(p, st, d)]);
    - {e step} records with strictly increasing step indices, each mover
      optionally tagged with its classified wave event;
    - {e round} records with strictly increasing round indices;
    - {e anomaly} records emitted by online {!Monitor}s;
    - exactly one {e summary} last.

    Cross-checks: the manifest's [m] equals the edge count and the edges
    form a simple graph (no self-loop, no duplicate, endpoints in range);
    when any step record is present, the step-record count equals the
    summary's [steps] and the movers total equals its [moves]; a summary
    [anomalies] field equals the number of anomaly records.

    The explorer's analyses of a loaded trace live in {!Traceview}. *)

type mover = { p : int; rule : string; wave : Span.event option }
type step = { index : int; movers : mover list }
type round = { round : int; steps : int; moves : int }

type anomaly = {
  monitor : string;
  step : int;
  process : int option;
  value : int;
  bound : int;
}

type summary = {
  outcome : string;
  rounds : int;
  steps : int;
  moves : int;
  wall_s : float;
  moves_per_rule : (string * int) list;  (** Empty when absent. *)
  anomaly_count : int option;  (** The summary's [anomalies] field. *)
}

type t = {
  system : string;
  family : string;
  n : int;
  seed : int;
  daemon : string;
  graph : Ssreset_graph.Graph.t;
      (** Built from the manifest edges by the loader, which rejects an
          edge list that is not a simple graph. *)
  init_active : (int * string * int) list;  (** [(p, st, d)]. *)
  steps : step list;  (** In file order. *)
  rounds : round list;
  anomalies : anomaly list;
  summary : summary;
}

val load_string : ?path:string -> string -> (t, string) result
(** Validate and parse a whole JSONL trace.  The error message carries the
    (1-based) offending line. *)

val load_file : string -> (t, string) result
(** {!load_string} of a file; [jsonlint --check-trace] validates with it. *)

val manifest :
  system:string ->
  family:string ->
  seed:int ->
  daemon:string ->
  Ssreset_graph.Graph.t ->
  Json.t
(** The trace's first record: a {!Sink.manifest} that also carries
    [trace_schema] and the graph's edges, so offline analyses need no side
    channel. *)
