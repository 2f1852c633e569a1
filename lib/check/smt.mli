(** Zero-dependency SMT-LIB2 — AST, printer, re-parser, lint, solver glue.

    {!Obligation} compiles symbolic-IR proof obligations to this AST; the
    printer writes [.smt2] files, and the re-parser + {!lint_script} are
    the repo's own well-formedness gate (every emitted file must re-parse
    and lint clean — no solver required).  No Z3 linkage anywhere: a
    solver binary is only ever {e executed} ({!solve}), and only when one
    is actually on [PATH] ({!solver_available}). *)

type sexp = Atom of string | List of sexp list

type script = {
  header : string list;  (** emitted as leading [;] comment lines *)
  body : sexp list;
}

(** {2 Construction helpers} *)

val atom : string -> sexp
val list : sexp list -> sexp
val app : string -> sexp list -> sexp
(** [app f args] is [Atom f] when [args = []], else [List (Atom f :: args)]
    — SMT-LIB nullary applications are bare symbols. *)

(** {2 Printing} *)

val to_string : script -> string
val write_file : string -> script -> unit

(** {2 Parsing}

    A faithful reader for the subset the printer emits plus standard
    lexical extras: [;] comments to end of line, ["…"] string literals
    (with [""] escapes), [|…|] quoted symbols. *)

val parse_string : string -> (sexp list, string) result
(** [Error msg] carries a line-numbered description. *)

val parse_file : string -> (sexp list, string) result

(** {2 Lint}

    [lint_script cmds] returns findings, [[]] = clean:
    - every symbol used in a term is a builtin, bound by an enclosing
      [forall]/[exists]/[let], or declared by an earlier
      [declare-sort]/[declare-fun]/[declare-const]/[define-fun] (no free
      variables);
    - every declared sort and fun/const is used at least once after its
      declaration (obligations must not carry dead symbols);
    - the script contains a [check-sat];
    - commands are well-shaped (a top-level atom, an unknown command, a
      malformed binder list). *)

val lint_script : sexp list -> string list

(** {2 Solver invocation} *)

type verdict = Sat | Unsat | Unknown | Solver_error of string

val verdict_to_string : verdict -> string

val solver_available : string -> bool
(** Is the named binary on [PATH]?  (Checked with [command -v] — never
    assumes a solver exists.) *)

val solve : solver:string -> ?args:string list -> script -> verdict
(** [solve ~solver script] writes [script] to a temp [.smt2] file, runs
    [solver] on it and classifies the first result line ([sat] / [unsat] /
    [unknown]); anything else — including a missing binary or a nonzero
    exit without a verdict — is [Solver_error].  Output is captured through
    a second temp file; both are removed before returning.  No libraries
    are linked. *)
