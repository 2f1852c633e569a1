(** SDR — the Self-stabilizing Distributed cooperative Reset (Algorithm 1).

    SDR is a transformer: given an input algorithm [I] that is locally
    checkable (predicate [P_ICorrect]) and locally resettable (predicate
    [P_reset] and macro [reset]), the composition [I ∘ SDR] is
    self-stabilizing for [I]'s specification, under the distributed unfair
    daemon, in any anonymous connected network.

    The composition is expressed as a functor: {!Make} takes a module
    matching {!module-type:INPUT} and produces the composed algorithm plus
    the observers used by the paper's analysis (alive/dead roots,
    Definition 1; segments, Definition 3; normal configurations,
    Definition 6). *)

type status = C  (** correct: not involved in a reset *)
            | RB  (** reset broadcast phase *)
            | RF  (** reset feedback phase *)

val pp_status : status Fmt.t
val status_equal : status -> status -> bool

val status_to_string : status -> string
(** ["C"], ["RB"] or ["RF"] — the encoding used by trace records. *)

type 'inner state = {
  st : status;  (** variable [st_u] *)
  d : int;  (** variable [d_u], the distance in the reset DAG *)
  inner : 'inner;  (** the state of the input algorithm *)
}

(** Requirements on the input algorithm (§3.5).  Beyond the signature:

    - Rule guards must imply [p_icorrect] of the process's own view
      (Requirement 2c's first half; the [P_Clean] half is enforced by the
      composition itself, which gates every input rule).
    - [p_icorrect] must be closed by the input algorithm (Requirement 2a)
      and must not involve SDR variables (guaranteed by typing: it only
      sees ['state]).
    - [p_reset] only reads the process's own state (guaranteed by typing,
      Requirement 2b).
    - If every member of a closed neighborhood satisfies [p_reset], the
      center must satisfy [p_icorrect] (Requirement 2d).
    - [p_reset (reset s)] must hold for every [s] (Requirement 2e).

    {!Requirements} checks the non-typing obligations dynamically. *)
module type INPUT = sig
  type state

  val name : string
  val equal : state -> state -> bool
  val pp : state Fmt.t

  val p_icorrect : state Ssreset_sim.Algorithm.view -> bool
  (** Local checkability: does the process consider its closed neighborhood
      consistent? *)

  val p_reset : state -> bool
  (** Is this state a pre-defined initial state? *)

  val reset : state -> state
  (** Reinitialize the variables; constants (identifiers, parameters) are
      preserved. *)

  val rules : state Ssreset_sim.Algorithm.rule list
  (** The input algorithm's own rules, over input-state views.  The
      composition gates each of them by [P_Clean]. *)
end

(** Output signature of {!Make}: the composed algorithm plus the paper's
    analytical observers. *)
module type S = sig
  type inner
  (** The input algorithm's state. *)

  type nonrec state = inner state

  val algorithm : state Ssreset_sim.Algorithm.t
  (** [I ∘ SDR]: all rules of SDR (named ["SDR-RB"], ["SDR-RF"], ["SDR-C"],
      ["SDR-R"]) plus every rule of [I] gated by [P_Clean]. *)

  val sdr_rule_names : string list
  (** [["SDR-RB"; "SDR-RF"; "SDR-C"; "SDR-R"]] — e.g. for
      {!Ssreset_sim.Engine.moves_of_rules}. *)

  (** {2 Configurations} *)

  val lift : inner array -> state array
  (** Wrap an input configuration with [st = C, d = 0] — e.g. the
      pre-defined initial configuration of [I]. *)

  val inner_config : state array -> inner array

  val generator :
    inner:inner Ssreset_sim.Fault.generator ->
    max_d:int ->
    state Ssreset_sim.Fault.generator
  (** Arbitrary-state generator for fault injection: uniform status, uniform
      distance in [0..max_d], inner state from [inner]. *)

  (** {2 Predicates of Algorithm 1} *)

  val p_clean : state Ssreset_sim.Algorithm.view -> bool
  val p_icorrect : state Ssreset_sim.Algorithm.view -> bool
  val p_correct : state Ssreset_sim.Algorithm.view -> bool
  val p_r1 : state Ssreset_sim.Algorithm.view -> bool
  val p_r2 : state Ssreset_sim.Algorithm.view -> bool
  val p_rb : state Ssreset_sim.Algorithm.view -> bool
  val p_rf : state Ssreset_sim.Algorithm.view -> bool
  val p_c : state Ssreset_sim.Algorithm.view -> bool
  val p_up : state Ssreset_sim.Algorithm.view -> bool

  (** {2 Roots and normality (Definitions 1 and 6)} *)

  val is_alive_root : state Ssreset_sim.Algorithm.view -> bool
  (** [P_Up(u) ∨ P_root(u)]. *)

  val is_dead_root : state Ssreset_sim.Algorithm.view -> bool

  val alive_roots : Ssreset_graph.Graph.t -> state array -> int list
  val count_alive_roots : Ssreset_graph.Graph.t -> state array -> int

  val p_normal : state Ssreset_sim.Algorithm.view -> bool
  (** [P_Clean(u) ∧ P_ICorrect(u)]: the per-process conjunct of
      {!is_normal}. *)

  val is_normal : Ssreset_graph.Graph.t -> state array -> bool
  (** Normal configuration: {!p_normal} at every process (equivalently, the
      projection on SDR is terminal — Lemma 15).  The full O(n·Δ) reference;
      runs track it incrementally with {!Ssreset_sim.Algorithm.Tracker}. *)

  (** {2 Segments (Definition 3)} *)

  module Segments : sig
    type t
    (** The alive-root tracker of a run, on
        {!Ssreset_sim.Algorithm.Tracker}: alive roots are defined per
        process over its closed neighborhood, so each step re-evaluates only
        the movers' closed neighborhoods — O(movers·Δ), not O(n·Δ).  From
        that one tracker it derives the segment count, the alive-root count
        and the subset flag of Remark 4.  {!alive_roots} and
        {!count_alive_roots} remain the full reference functions. *)

    val create : Ssreset_graph.Graph.t -> state array -> t
    (** Evaluates the alive roots of the initial configuration; the array is
        not retained. *)

    val observer :
      t -> step:int -> moved:(int * string) list -> state array -> unit
    (** Plug into {!Ssreset_sim.Engine.run}'s [observer].  It must see every
        step, and [moved] must list every process whose state changed since
        the previous call (the engine's movers do); a configuration change
        outside [moved] goes unnoticed. *)

    val count : t -> int
    (** Number of segments spanned so far (≥ 1): one more each time the
        alive-root count drops. *)

    val alive_count : t -> int
    (** Alive roots of the last configuration seen. *)

    val alive : t -> int list
    (** The alive roots of the last configuration seen, ascending — equal to
        {!alive_roots} of it (O(n); for tests). *)

    val monotone : t -> bool
    (** Every configuration's alive-root set so far was a subset of the
        previous one's (Remark 4: alive roots are never created) — i.e. no
        process has become an alive root. *)
  end

  (** {2 Wave provenance}

      Classify SDR moves into the wave events consumed by
      {!Ssreset_obs.Span}: [SDR-R] initiates a wave, [SDR-RB] joins the
      parent's wave (the parent being the minimum-[d] RB neighbor the
      [compute] macro read, ties to the smallest index), [SDR-RF] is
      feedback and [SDR-C] completion. *)
  module Waves : sig
    val classify :
      Ssreset_graph.Graph.t ->
      state array ->
      int ->
      string ->
      Ssreset_obs.Span.event option
    (** [classify g before u rule] is the wave event of [u]'s move firing
        [rule] from the {e pre-step} configuration [before]; [None] for
        input-algorithm rules. *)

    val initial_active : state array -> (int * status * int) list
    (** The processes mid-reset ([st ≠ C]) in a configuration, as
        [(process, status, d)] — the seed for {!Ssreset_obs.Span.seed_active}
        and the trace's [init] record. *)

    type tracker
    (** Online wave reconstruction: keeps an incrementally-updated copy of
        the pre-step configuration (no per-step [O(n)] copies) and feeds a
        {!Ssreset_obs.Span.t}. *)

    val create : Ssreset_graph.Graph.t -> state array -> tracker

    val observer :
      tracker -> step:int -> moved:(int * string) list -> state array -> unit
    (** Plug into {!Ssreset_sim.Engine.run}'s [observer]. *)

    val span : tracker -> Ssreset_obs.Span.t

    val classify_movers :
      tracker -> (int * string) list -> (int * string * Ssreset_obs.Span.event option) list
    (** Classify the movers of the {e next} step against the tracker's
        current (pre-step) configuration, without advancing it — for
        emitting step records from the same hook that feeds the span. *)
  end
end

module Make (I : INPUT) : S with type inner = I.state
