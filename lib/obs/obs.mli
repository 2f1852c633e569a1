(** Composable run observers.

    An observer has exactly the shape of {!Ssreset_sim.Engine.run}'s
    [observer] callback — [step] index, the activated (process, rule-name)
    pairs, and the {e new} configuration — so any value built here plugs
    straight into the engine.  The configuration is the engine's live
    array, stepped in place: an observer that keeps it must copy it.  The point of this module is that observers
    compose: a measured run is a {!combine} of small single-purpose probes
    instead of one hand-rolled closure.

    Probes are constructed together with the mutable cell they accumulate
    into; read the cell after the run. *)

type 'state t = step:int -> moved:(int * string) list -> 'state array -> unit

val combine : 'state t list -> 'state t
(** Calls every observer, in list order, on every step.  [combine []] does
    nothing; nesting is flattened by function composition, so ordering is the
    depth-first list order. *)

val move_counter : ?matches:(string -> bool) -> unit -> int ref * 'state t
(** Counts moves whose rule name satisfies [matches] (default: all). *)

val per_process_moves :
  n:int -> ?matches:(string -> bool) -> unit -> int array * 'state t
(** Per-process move counts over processes [0..n-1], filtered by [matches]
    (default: all). *)

val sample : every:int -> 'state t -> 'state t
(** Runs the inner observer only on steps where [step mod every = 0];
    [every <= 1] is the identity. *)
