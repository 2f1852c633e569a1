(** The interface between a compiled spec and the flat runs: what a
    generated evaluator or the closure compiler is built from, and the
    two functions {!Flat.run} and {!Flat.run_partitioned} call. *)

type input = {
  state : int array array;  (** [field].(node), in declared field order *)
  offsets : int array;  (** CSR row starts *)
  nbrs : int array;  (** CSR neighbors *)
  params : (string * int) list;
}

type t = {
  eval : int -> int;
      (** [eval u]: one evaluation of [u] in the current state, its first
          enabled rule and its legitimacy packed as
          [((rule + 1) lsl 1) lor legit] (rule [-1] = disabled; legit [1]
          when the spec has no legitimacy predicate) *)
  post : int -> int -> int array -> int -> unit;
      (** [post r u dst off]: [u]'s post-state under rule [r] into [dst]
          at [off], one slot per field; assignment terms read the
          pre-state arrays, never [dst] *)
}

val param : input -> string -> int
(** @raise Invalid_argument when the parameter is unbound. *)
