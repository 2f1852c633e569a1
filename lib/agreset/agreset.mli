(** AGR — a mono-initiator reset baseline in the style of Arora & Gouda
    ("Distributed reset", IEEE ToC 1994), for comparison with SDR.

    The paper positions SDR against {e centralized / mono-initiator} resets
    (§1, related work): there, a single initiator (here: a distinguished
    root in an identified network) restarts the application with a global
    wave running over a self-stabilizing spanning tree.  This module
    implements that architecture as a transformer over the same
    {!Ssreset_core.Sdr.INPUT} interface SDR uses, so the two reset designs
    can be compared on identical applications, networks and schedules
    (experiment E15):

    - {b tree layer}: BFS distances towards the root with explicit parent
      pointers, self-stabilizing by relaxation (rule ["AGR-tree"]);
    - {b request layer}: a process detecting [¬P_ICorrect] raises a request
      bit that convergecasts to the root along the tree;
    - {b wave layer}: the root answers with a broadcast (status [B]) that
      resets the input algorithm top-down, acknowledged bottom-up
      (status [F]), then popped back to normal ([N]) top-down.  Garbled
      wave states left by faults collapse against the parent's state.

    Architectural contrast with SDR: resets here are always {e global}
    (the wave covers the whole tree) and must travel to the root first,
    whereas SDR starts repairs at every detector and coordinates them.
    The Arora–Gouda original differs in details (it elects the root, works
    in read/write atomicity and uses diffusing-computation session numbers);
    this reconstruction keeps the mono-initiator tree-wave architecture,
    which is the property under comparison, and is validated by the same
    stabilization tests as the other systems.

    {b Daemon requirement.}  Like the original (which the paper cites as
    "assuming a distributed weakly fair daemon", §1.2), this architecture
    needs {e weak fairness}: the root can stay enabled across whole
    start/feedback cycles while its waves run over a not-yet-repaired tree,
    so an unfair scheduler (e.g. {!Ssreset_sim.Daemon.central_first}) can
    serve the root and its first child forever and starve the tree repair —
    a genuine livelock, reproduced as a test and as part of experiment E15.
    This is precisely the weakness SDR eliminates: all of the paper's
    bounds hold under the unfair daemon.  Use AGR under the fair(-ish)
    daemons: synchronous, round-robin, central-random, distributed-random,
    locally-central. *)

module Sdr = Ssreset_core.Sdr

type wave = N  (** normal *)
          | B  (** broadcast: resetting, waiting for the subtree *)
          | F  (** feedback: subtree done, waiting for the root to pop *)

type 'inner state = {
  id : int;  (** constant *)
  dist : int;  (** BFS layer towards the root, capped at n *)
  parent : int option;  (** id of the chosen parent (None at the root) *)
  wst : wave;
  req : bool;  (** a reset request is pending in this subtree *)
  inner : 'inner;
}

module Make
    (I : Sdr.INPUT) (P : sig
      val graph : Ssreset_graph.Graph.t
      val root : int
      (** index of the initiator process *)
    end) : sig
  type nonrec state = I.state state

  val algorithm : state Ssreset_sim.Algorithm.t

  val lift : I.state array -> state array
  (** Wrap with the correct tree and a quiescent wave layer. *)

  val inner_config : state array -> I.state array

  val generator :
    inner:I.state Ssreset_sim.Fault.generator ->
    state Ssreset_sim.Fault.generator
  (** Arbitrary state: random dist/parent/wave/request, inner from the
      input generator; [id] preserved. *)

  val p_normal : state Ssreset_sim.Algorithm.view -> bool
  (** The per-process conjunct of {!is_normal}: tree correct, wave layer
      quiescent ([N], no request) and the input algorithm locally
      correct. *)

  val is_normal : Ssreset_graph.Graph.t -> state array -> bool
  (** {!p_normal} everywhere — the analogue of SDR's normal
      configurations. *)

  val tree_ok : state Ssreset_sim.Algorithm.view -> bool
end
