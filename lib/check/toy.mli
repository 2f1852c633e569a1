(** Hand-built defective algorithms — no-false-negative fixtures.

    Each is deliberately broken in ways the checker must detect; the test
    suite asserts that it does.  Keeping them out of {!Registry.entries}
    preserves the invariant that every {e paper} algorithm is clean. *)

val livelock : Ssreset_graph.Graph.t -> Finite.t
(** One rule [T-flip] that is always enabled and flips a binary state; the
    legitimate configurations are the uniform ones.  The lint pass finds
    nothing (the rule is stable, order-independent, never silent and cannot
    overlap with itself), but the model checker must report a livelock —
    e.g. on two processes, [(0,1)] and [(1,0)] swap forever under the
    synchronous schedule — and a closure violation. *)

val overlap : Ssreset_graph.Graph.t -> Finite.t
(** States {0, 1, 2}; legitimate = all-1.  [T-up] and [T-jump] are both
    enabled on state 0 (a rule overlap the lint pass must flag, which also
    makes list order load-bearing), and [T-noop] "rewrites" state 2 to
    itself (a silent move, and a self-loop livelock for the model
    checker). *)

val interference : Ssreset_graph.Graph.t -> Finite.t
(** A composed-shaped algorithm (states are [int Sdr.state]) whose input
    rule [TI-poke] is properly gated by [P_Clean] but bumps the SDR
    distance variable [d] alongside its own layer — the non-interference
    breach of the paper's Requirement 3.  Lint and the model checker are
    clean by construction (every configuration is legitimate; each process
    pokes once); only {!Footprint}'s ["write-escape"] check can flag it. *)

val interference_footprint : Ssreset_graph.Graph.t -> Footprint.target
(** The composed footprint target for {!interference}, with the honest
    layer decomposition ([reset] to inner 0, [P_reset] = inner 0). *)

val badsym : Ssreset_graph.Graph.t -> Finite.t
(** A correct monotone counter ([T-up]: fires while state < 2) whose
    attached symbolic IR ({!badsym_sym}) claims the guard is state < 1 —
    clean under lint, footprint and every enumerated verdict, so only the
    {!Sym} differential pass (a guard disagreement on state-1 views) can
    flag it. *)

val badsym_sym : Ssreset_graph.Graph.t -> Sym.instance
(** The lying symbolic instance for {!badsym}. *)

val badrank : Ssreset_graph.Graph.t -> Finite.t
(** A correct strictly-decreasing counter ([T-down]: fires while
    state > 0; legitimate = all-0) whose symbolic IR is exact but whose
    rank claim stutters: the component [if c > 1 then c else 0] stays at
    0 across the 1 → 0 move.  The instance carries that rank as its
    certificate.  Lint, footprint, the enumerated model verdicts and the
    guard/post differential are all clean, so only the rank checks can
    flag it: the ranking differential (a ["rank"] mismatch), the model
    checker's rank pass (a ["certificate"] violation) and a solver on the
    exported [rank-decrease] obligation. *)

val badrank_sym : Ssreset_graph.Graph.t -> Sym.instance
(** The stuttering-rank symbolic instance for {!badrank}. *)
