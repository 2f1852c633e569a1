(** Workload generation: parameterized graph families for the sweeps. *)

type family = {
  family_name : string;
  build : seed:int -> n:int -> Ssreset_graph.Graph.t;
      (** builds a connected graph with ≈ [n] processes (exact for most
          families; grids round to the nearest full rectangle) *)
}

val ring : family
val path : family
val star : family
val complete : family
val grid : family
(** Near-square grid. *)

val binary_tree : family
val random_tree : family
val erdos_renyi : float -> family
(** Fixed edge probability. *)

val sparse_random : family
(** Connected random graph with m = 2n edges. *)

val lollipop : family
(** Clique of n/2 plus a path of n/2: high Δ and high D at once. *)

val standard : family list
(** The families used by the default sweeps: ring, path, star, complete,
    grid, binary tree, sparse random, lollipop. *)

val names : string list
(** The command-line family names, in listing order: every family above,
    with ["er"] for {!erdos_renyi} at p = 0.2. *)

val by_name : string -> family option
(** The family of one of {!names}. *)

val small_connected_graphs : max_n:int -> Ssreset_graph.Graph.t list
(** Every connected simple graph on 2..max_n vertices, one representative
    per edge-set (not deduplicated by isomorphism).  Exponential in n(n-1)/2
    — intended for [max_n ≤ 5]; used by the brute-force experiments. *)
