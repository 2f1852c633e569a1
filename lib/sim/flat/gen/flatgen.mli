(** The flat engine's evaluator generator: symbolic specs
    ({!Ssreset_check.Sym.spec}) to straight-line OCaml source.

    For each spec it emits one [build_<k> : Evaluator.input ->
    Evaluator.t] ([Ssreset_flat.Evaluator]).  Its [eval u] tries the
    guards in rule order with OCaml's short-circuit operators and then
    evaluates the legitimacy predicate; [post r u dst off] writes rule
    [r]'s post row.  Neighborhood aggregates become inline loops over the
    CSR row.  Within a loop body, every subterm that does not read the
    bound neighbor and costs more than a load (and every invariant
    subformula that scans a neighborhood) is computed once before the
    loop.  An aggregate that occurs twice or more in one function — the
    guards and legitimacy of [eval], or one rule's assignments — is read
    through a memo, a local mutable variable filled on first use, so the
    generated code allocates nothing and keeps no state between calls. *)

exception Unsupported of string
(** ["spec S: cannot emit C: reason"] — a listed spec uses a construct
    the generator cannot emit (a neighbor read outside a binder, an
    undeclared field, parameter or constructor, a constructor ambiguous
    across enum sorts, an IR without fields), or two listed specs share a
    name. *)

val emit_module : Ssreset_check.Sym.spec list -> string
(** The source of a module holding one builder per spec and [builders],
    the list of (IR name, builder) pairs.
    @raise Unsupported as above; nothing is emitted then. *)

type node = Term of Ssreset_check.Sym.term | Form of Ssreset_check.Sym.form

val hoists : Ssreset_check.Sym.spec -> node list
(** The nodes the generator computes before a neighborhood loop instead
    of inside it, over the whole spec, in emission order. *)
