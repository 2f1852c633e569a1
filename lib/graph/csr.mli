(** Compressed-sparse-row adjacency for the flat data-path engine.

    A {!t} stores the whole network in two int arrays: [offsets] (length
    [n+1]) and [nbrs] (length [2m]); the neighbors of process [u] are
    [nbrs.(offsets.(u)) .. nbrs.(offsets.(u+1) - 1)], sorted in increasing
    order — the same local-label convention as {!Graph.neighbors}, without
    one boxed array per process.  The streaming generators below build the
    CSR form directly (degree counting pass, then fill), so a million-node
    ring never materializes a per-node adjacency list or an edge list. *)

type t = private {
  n : int;  (** number of processes *)
  offsets : int array;  (** length [n+1]; [offsets.(0) = 0] *)
  nbrs : int array;  (** length [offsets.(n)]; each row sorted *)
}

exception Invalid_csr of string

val n : t -> int
val m : t -> int
(** Number of undirected edges ([Array.length nbrs / 2]). *)

val degree : t -> int -> int
val max_degree : t -> int

val make : n:int -> offsets:int array -> nbrs:int array -> t
(** Validates shape: monotone offsets, sorted rows, symmetry, no
    self-loops or duplicates.  O(n + m log Δ).
    @raise Invalid_csr when the invariant fails. *)

(** {1 Streaming generators}

    Peak auxiliary memory is O(1) for [ring]/[torus] beyond the CSR arrays
    themselves; [random_regular_ish] keeps a flat edge buffer plus a
    dedup table (O(m)), never per-node lists. *)

val ring : int -> t
(** Cycle C_n, n ≥ 3; same numbering as {!Gen.ring}. *)

val torus : int -> int -> t
(** [torus w h], w,h ≥ 3; same numbering as {!Gen.torus}
    (process [y*w + x]). *)

val random_regular_ish : Random.State.t -> int -> int -> t
(** Ring backbone plus random chords up to average degree ≈ k.  Consumes
    the RNG exactly like {!Gen.random_regular_ish}, so for equal seeds
    [to_graph (random_regular_ish rng n k)] equals the materialized
    generator's output edge-for-edge. *)

(** {1 Conversions} *)

val of_graph : Graph.t -> t
(** O(n + m); reuses the graph's sorted rows. *)

val to_graph : t -> Graph.t
(** Materializes a {!Graph.t} (allocates an edge list) — for tests and
    small-n cross-checks only. *)
