(** Proof-obligation compiler — {!Sym} specs to SMT-LIB over symbolic n.

    Every obligation quantifies over an {e uninterpreted} node sort with a
    per-family topology axiomatization, so a discharged obligation (the
    solver answers [unsat] on the negated goal) holds for {e every} graph
    of the family and every size — the step past the bounded model
    checker's n ≈ 6 horizon.  The axiomatizations are deliberately weak
    (e.g. the ring axioms admit disjoint unions of cycles): their model
    classes are {e supersets} of the concrete families, so a verdict only
    ever gets stronger, never unsound.

    Obligation kinds, each negated and expected [unsat]:
    - {b closure}: legitimate ∧ a covered step (an uninterpreted nonempty
      [moved ⊆ enabled] set, post-state defined by the first-enabled rule)
      ⇒ legitimate afterwards;
    - {b cert-decrease}: for each rule covered by the {!Sym.cert_spec}, a
      mover's local potential strictly decreases and stays nonnegative —
      the pointwise argument for [Σ local] decreasing under any covered
      step, valid because [cs_local] reads [Self] only;
    - {b range}: each rule re-establishes the declared field ranges;
    - {b requirement}: the §3.5 non-interference interface of an SDR
      input layer — reset lands in a [p_reset] state, reset is
      idempotent, enabled processes are locally correct
      ([guard ⇒ p_icorrect]), an all-reset neighborhood is locally
      correct, and a process's own move preserves its local correctness;
    - {b rank}: the implicit-rankings convergence family compiled from a
      {!Sym.rank_spec} — every process's lexicographic tuple is bounded
      below ([rank-bounded]), a covered mover's tuple does not increase /
      strictly decreases ([rank-no-increase.r] / [rank-decrease.r]), a
      step whose movers all fire covered rules pointwise-dominates every
      tuple and strictly decreases a mover's ([rank-step] — multiset
      decrease of the global rank, first-order and n-independent because
      components read [Self] only), and uncovered rules writing none of
      the tuple's fields leave it exactly unchanged ([rank-frame.r]);
    - {b composition}: the same family compiled from a composed-system
      spec ({!compile_composition}, names prefixed [comp.]) — the
      PADEC-style decomposition for U∘SDR, where the reset layer's wave
      rank decreases on reset-layer steps and the input layer's moves are
      rank-silent, so composed convergence splits into solver-checkable
      pieces.

    Pre-state range axioms are always assumed (the differential pass
    validates them against the concrete seed domains), and only the
    sorts, functions and parameters an obligation actually mentions are
    declared — {!Smt.lint_script} enforces exactly that.  Neighborhood
    aggregates ({!Sym.Min_nbr}, {!Sym.Mex_nbr}, {!Sym.Count_nbr}) compile
    to Skolem functions with defining axioms satisfied in every finite
    model, preserving the superset soundness argument. *)

type family = Ring | Path | Star | Complete

val families : family list
val family_to_string : family -> string

val family_graphs : family -> int -> Ssreset_graph.Graph.t list
(** The family's member on [n] processes, or none below its smallest size
    (a ring needs 3, a path or a star 2) — the graphs of [check
    --family]. *)

type kind =
  | Closure
  | Cert_decrease of string  (** covered rule *)
  | Range of string * string  (** rule, field *)
  | Requirement of string  (** requirement id, e.g. ["reset-lands"] *)
  | Rank of string  (** rank obligation id, e.g. ["rank-decrease.TU-climb"] *)
  | Composition of string
      (** composed-system rank obligation id (names carry a [comp.]
          prefix) *)

val kind_to_string : kind -> string

type t = {
  ob_algo : string;
  ob_family : family;
  ob_kind : kind;
  ob_name : string;
      (** unique within (algo, family), e.g. ["cert-decrease.TU-climb"] *)
  ob_descr : string;
  ob_script : Smt.script;  (** expected verdict: always [unsat] *)
}

val compile : algo:string -> Sym.spec -> family -> t list
(** Every obligation the spec supports: closure iff [sp_legitimate],
    cert-decrease iff [sp_cert] (one per covered rule), range per
    (rule, assigned ranged field), requirements per available predicate
    of the reset interface, and the rank family iff [sp_rank]. *)

val compile_all : algo:string -> Sym.spec -> t list
(** {!compile} over all four {!families}. *)

val compile_composition : algo:string -> Sym.spec -> family -> t list
(** The rank family of a {e composed} spec (e.g. U∘SDR), emitted with a
    [comp.] name prefix and kind {!Composition}: reset-layer rank
    decrease under input-layer silence plus the frame obligations showing
    input moves are rank-silent.  Empty when the spec carries no
    [sp_rank]. *)

val compile_composition_all : algo:string -> Sym.spec -> t list
(** {!compile_composition} over all four {!families}. *)

val filename : t -> string
(** [<algo>.<family>.<name>.smt2]. *)

val lint : t -> string list
(** Print the script, re-parse the text and {!Smt.lint_script} it: the
    findings, [[]] when clean — the no-solver well-formedness gate. *)

val to_json : t list -> Ssreset_obs.Json.t
(** The manifest object: [{schema = "ssreset-smt-v2"; schema_version = 2;
    count; obligations = [{file; algo; family; kind; name; expect;
    descr}]}]. *)

val write : dir:string -> t list -> string
(** Write one [.smt2] per obligation plus [manifest.json] into [dir]
    (created if missing); returns the manifest path. *)
