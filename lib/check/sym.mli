(** Symbolic rule IR — an executable first-order spec of a rule set.

    A {!rule} is a guard formula and a set of field assignments over a
    tiny first-order language: integer / boolean / enum terms built from
    the process's own fields, a bound neighbor's fields, symbolic
    parameters (e.g. the unison period [K]) and [forall]/[exists]
    quantification over the open neighborhood.  Registry algorithms
    optionally attach an IR alongside their OCaml rules; it serves two
    masters:

    - {b differential validation} ({!check}): the IR is evaluated on
      concrete views and must agree with the OCaml rules on the enabled
      set and the post-state — over strided per-process view spaces (in
      the spirit of {!Footprint}'s probing) and over engine-style
      executions under every registered daemon.  A lying IR is an
      executable-spec bug and is reported like any other finding;
    - {b SMT export} ({!Obligation}): because the IR is first-order, the
      same rules compile to SMT-LIB over a {e symbolic} node sort, turning
      bounded-n verdicts into unbounded-n proof obligations.

    The language is deliberately small: linear integer arithmetic,
    if-then-else, comparisons and neighborhood quantifiers — everything
    the paper's algorithms need and nothing a solver chokes on.
    Modular arithmetic is expressed with {!term-Ite} (e.g. the unison
    increment [(c+1) mod K] is [Ite (Eq (c, K-1), 0, c+1)], exact on the
    declared range). *)

type ty =
  | TInt
  | TBool
  | TEnum of string * string list
      (** sort name and constructors, e.g. [TEnum ("Status", ["C"; "RB"; "RF"])] *)

type site =
  | Self  (** the process's own state *)
  | Nbr  (** the innermost quantifier-bound neighbor *)

type term =
  | Num of int
  | Bool of bool  (** boolean literal, for [TBool] fields *)
  | Param of string  (** symbolic parameter, e.g. ["K"] *)
  | Var of site * string  (** field value at a site *)
  | Add of term * term
  | Sub of term * term
  | Neg of term
  | Ite of form * term * term
  | Ctor of string  (** enum constructor *)
  | Min_nbr of form * term * term
      (** [Min_nbr (filter, body, default)]: the minimum of [body] over
          the neighbors satisfying [filter] ([Var (Nbr, _)] is bound in
          both), or [default] (evaluated outside the binder) when no
          neighbor qualifies.  Needed for SDR-RB's
          [d := 1 + min {d(v) | v ∈ N(u), status v = RB}]. *)
  | Mex_nbr of form * term
      (** [Mex_nbr (filter, body)]: the least [c >= 0] such that no
          neighbor satisfying [filter] has [body = c] — Grundy coloring's
          minimum excludant.  Always [<= deg], since at most [deg]
          neighbors qualify. *)
  | Count_nbr of form
      (** Number of neighbors satisfying the filter; [Count_nbr (Const
          true)] is the degree.  Needed for the alliance score
          thresholds. *)

and form =
  | Const of bool
  | Not of form
  | And of form list
  | Or of form list
  | Imp of form * form
  | Eq of term * term
  | Le of term * term
  | Lt of term * term
  | Forall_nbr of form
      (** over the open neighborhood; inside, [Var (Nbr, f)] is the bound
          neighbor's field.  Quantifiers may nest but [Nbr] always refers
          to the innermost binder. *)
  | Exists_nbr of form

type assign = string * term
(** [field := term], evaluated in the pre-state; unassigned fields keep
    their value. *)

type rule = {
  rule : string;  (** must equal the OCaml rule's [rule_name] *)
  guard : form;
  assigns : assign list;
}

type param = {
  pname : string;
  lower : int option;  (** emitted as the axiom [pname >= lower] *)
}

type ir = {
  ir_name : string;
  fields : (string * ty) list;
  params : param list;
  ranges : (string * term * term) list;
      (** [field, lo, hi]: every state satisfies [lo <= field < hi]; the
          bounds are closed terms over params.  Asserted on pre-states of
          configuration-level obligations, validated against the concrete
          seed domains by the differential, and re-established per rule by
          the emitted range-preservation obligations. *)
  rules : rule list;
}

(** {2 Specs — predicates beyond the rules}

    The obligations of {!Obligation} need more than the transition
    relation: the legitimacy predicate (closure), convergence measures
    (a pointwise potential and a global rank) and the §3.5
    reset/checkability interface of an SDR input layer. *)

type cert_spec = {
  cs_name : string;
  cs_rules : string list;  (** covered rules *)
  cs_local : term;
      (** per-process contribution to the global potential [Σ_u local(u)];
          must read only [Self] fields, so a covered move changes exactly
          the mover's contribution. *)
}

type rank_spec = {
  rk_name : string;
  rk_rules : string list;
      (** covered rules: every one must strictly decrease the rank *)
  rk_components : term list;
      (** per-process lexicographic rank tuple, most significant first.
          Each component reads only [Self] fields, is bounded below by 0
          on every reachable state, and a covered move strictly decreases
          the mover's tuple while leaving every other process's tuple
          untouched — the implicit-rankings recipe for a global
          well-founded measure over an unbounded node sort. *)
}

type spec = {
  sp_ir : ir;
  sp_legitimate : form option;
      (** view-level; a configuration is legitimate iff the form holds at
          every process *)
  sp_p_icorrect : form option;  (** local checkability (view-level) *)
  sp_p_reset : form option;  (** reads [Self] fields only *)
  sp_reset : assign list option;  (** the [reset] macro *)
  sp_cert : cert_spec option;
  sp_rank : rank_spec option;
      (** global-ranking convergence claim, the one convergence measure
          of the concrete checks: validated by the differential (["rank"]
          mismatches) and by {!Model} on every explored move (a
          ["certificate"] violation), and exported as rank-* obligations
          by {!Obligation}. *)
}

val spec_of_ir : ir -> spec
(** All optional predicates absent. *)

(** {2 Values and evaluation} *)

type value = VInt of int | VBool of bool | VEnum of string

val value_equal : value -> value -> bool

exception Ill_formed of string
(** Raised by evaluation on scoping or typing errors ([Nbr] outside a
    quantifier, unknown field or parameter, boolean where an integer is
    expected). *)

val eval_int : params:(string * int) list -> ?self:(string * value) list -> term -> int
(** The value of an integer term that reads no neighbor, e.g. a range
    bound.  @raise Ill_formed otherwise. *)

val subst_self_term : assign list -> term -> term
(** Term-level {!subst_self}. *)

val subst_self : assign list -> form -> form
(** Replace every [Var (Self, f)] assigned by the list with its term —
    the post-state predicate of a single mover whose neighbors are
    unchanged.  Assignment terms are pre-state terms, so the substitution
    is exact (no capture: [Self] terms contain no binders to collide
    with). *)

val well_formed : ir -> string list
(** Static scoping lint, [[]] = clean: every [Var]/[Param]/assign target
    refers to a declared field or parameter, [Nbr] occurs only under a
    neighborhood quantifier, rule names are unique, range bounds are
    closed (no fields). *)

(** {2 Ranks} *)

val lex_lt : int list -> int list -> bool
(** Strict lexicographic order; tuples of different lengths are never
    ordered, so a rank whose length varies fails its step check instead of
    passing vacuously. *)

val rank_step :
  params:(string * int) list ->
  rank_spec ->
  pre:(string * value) list ->
  post:(string * value) list ->
  (unit, string) result
(** The one check behind every concrete use of a {!rank_spec}: evaluate the
    tuple on the mover's pre- and post-valuation, require every component
    [>= 0] on both sides and a strict {!lex_lt} decrease.  Components read
    [Self] only, so this is the whole claim for a covered move.  [Error]
    carries the reason and both tuples.
    @raise Ill_formed when a component does not evaluate to an integer. *)

(** {2 Instances and differential validation} *)

module type INSTANCE = sig
  type state

  val spec : spec
  val param_values : (string * int) list
  val algorithm : state Ssreset_sim.Algorithm.t
  val graph : Ssreset_graph.Graph.t
  val domain : int -> state list
  val encode : state -> (string * value) list
  val is_legitimate : (state array -> bool) option
end

type instance = (module INSTANCE)

val make_instance :
  spec:spec ->
  params:(string * int) list ->
  algorithm:'s Ssreset_sim.Algorithm.t ->
  graph:Ssreset_graph.Graph.t ->
  domain:(int -> 's list) ->
  encode:('s -> (string * value) list) ->
  ?is_legitimate:('s array -> bool) ->
  unit ->
  instance

type mismatch = {
  where : string;  (** e.g. ["view u=2"] or ["daemon synchronous"] *)
  rules : string list;
  detail : string;  (** first witness, human-readable *)
  count : int;
}

type diff = {
  views : int;  (** probed views *)
  steps : int;  (** executed engine-style steps *)
  daemons : int;  (** daemons driven *)
  mismatches : mismatch list;  (** [[]] = the IR agrees everywhere *)
}

val diff_ok : diff -> bool
val merge_diffs : diff list -> diff
val pp_mismatch : mismatch Fmt.t

val check :
  ?max_views_per_process:int -> ?max_steps:int -> instance -> diff
(** Differential validation, two sweeps merged:
    - a strided sweep of each process's view space (own domain × neighbor
      domains, default cap 2000 views per process, as {!Lint}): per rule,
      the OCaml guard and the IR guard must agree on every probed view; on
      enabled views the OCaml action must equal the IR assignment
      application, and a rule the {!rank_spec} covers must take a
      {!rank_step} (["rank"] mismatches).  It also validates the static
      {!well_formed} lint, the rule-name alignment, and that every
      seed-domain state satisfies the declared {!ir.ranges};
    - random seed configurations driven for [max_steps] (default 50) steps
      under {e every} registered daemon ({!Ssreset_sim.Daemon.registry}),
      cross-checking at each step the enabled set (process and rule name),
      each mover's post-state, and — when both the spec and the instance
      carry a legitimacy predicate — the view-level legitimate form against
      the concrete configuration predicate. *)
