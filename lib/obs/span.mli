(** Reset-wave spans: provenance reconstruction from classified SDR events.

    A {e wave} is the lifetime of one reset initiated at an alive root
    (paper §3.3): the root's [SDR-R] move starts it, [SDR-RB] moves
    propagate it outward along the [d] parent links, [SDR-RF] moves feed
    completion back towards the root, and [SDR-C] moves return members to
    normal operation.  This module consumes a stream of per-process wave
    {!event}s — produced by the classifier in [Ssreset_core.Sdr.Make(I).Waves]
    or parsed back from a recorded trace — and reconstructs the per-wave
    spans, the succession DAG between waves, and summary statistics.

    The builder is purely structural: it never inspects algorithm state, so
    it works identically online (as an engine observer) and offline (replaying
    a JSONL trace). *)

type event =
  | Init  (** [SDR-R]: an alive root (re)starts a wave; the mover is its root. *)
  | Join of { parent : int; d : int }
      (** [SDR-RB]: the mover joins the wave its [parent] belongs to, at
          distance [d] from the root. *)
  | Feedback  (** [SDR-RF]: the mover's subtree has finished broadcasting. *)
  | Complete  (** [SDR-C]: the mover leaves the wave and resumes normally. *)

type wave = {
  id : int;  (** Dense identifier, in order of first appearance. *)
  root : int;  (** Initiating process (or component representative). *)
  preexisting : bool;
      (** True when the wave was already in flight in the initial
          configuration (seeded via {!seed_active}) or had to be
          synthesized for an orphan event. *)
  mutable init_step : int option;
      (** Step of the root's [SDR-R] move; [None] for preexisting waves. *)
  mutable members : int;  (** Distinct processes that ever belonged to it. *)
  mutable depth : int;  (** Max [d] observed across joins (and seeds). *)
  mutable r_moves : int;
  mutable rb_moves : int;
  mutable rf_moves : int;
  mutable c_moves : int;
  mutable active : int;  (** Current membership count; 0 once completed. *)
  mutable first_step : int;  (** Step of the earliest attributed move. *)
  mutable last_step : int;  (** Step of the latest attributed move. *)
}

type t

val create : n:int -> t
(** A builder for an [n]-process system with no process mid-reset. *)

val seed_active : graph:Ssreset_graph.Graph.t -> t -> (int * int) list -> unit
(** [seed_active ~graph t actives] declares the processes already mid-reset
    ([RB] or [RF]) in the initial configuration, as [(process, d)] pairs.
    They are grouped into connected components of [graph] and each component
    becomes one {e preexisting} wave rooted at its minimum-[d] member
    (ties broken by the smaller index).  Call at most once, before any feed. *)

val feed_step : t -> step:int -> (int * event) list -> unit
(** Attribute the classified movers of one step, handling intra-step
    ordering: [Join]s, which read the {e pre-step} membership of their
    parent, are processed before [Init]/[Feedback]/[Complete] so that a
    parent re-rooting in the same step cannot steal its child's join. *)

val waves : t -> wave list
(** All waves, in order of first appearance. *)

val wave_of : t -> int -> int
(** Current wave id of a process, or [-1] when it is not mid-reset. *)

val dag : t -> (int * int) list
(** Succession edges [(a, b)]: some process belonged to wave [a] and later
    joined wave [b].  Deduplicated, in order of first occurrence. *)

type stats = {
  wave_count : int;
  completed : int;  (** Waves whose membership returned to 0. *)
  preexisting_count : int;
  synthetic : int;  (** Orphan events that forced a synthesized wave. *)
  max_depth : int;
  max_members : int;
  max_duration : int;  (** [last_step - first_step], max over waves. *)
  total_moves : int;  (** Sum of r/rb/rf/c moves over all waves. *)
}

val stats : t -> stats

val check : ?require_complete:bool -> t -> string list
(** Structural sanity: every wave's move counts are consistent with its
    membership history ([active >= 0] throughout, [members = joins + roots]).
    With [~require_complete:true] (the run stabilized), any wave still
    active is reported.  Returns human-readable error strings; [[]] = ok. *)

val to_dot : t -> string
(** The wave DAG in Graphviz DOT: one node per wave (labelled with root,
    members, depth and move counts), succession edges between them. *)
