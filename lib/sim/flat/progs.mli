(** Catalogue of flat-engine programs: the registry algorithms whose
    symbolic specs are topology-parametric, paired with the parameter
    valuations the classic registry instances use ({!Ssreset_check.Registry}),
    plus the initial-configuration builders of the scale workload
    (legitimate ground state + [k] perturbed nodes — a 10⁶-node run then
    stabilizes in wall-clock seconds instead of replaying a worst case). *)

module Sym = Ssreset_check.Sym
module Csr = Ssreset_graph.Csr

type entry = {
  pname : string;
  describe : string;
  spec : Sym.spec;
  params_of_n : int -> (string * int) list;
}

val entries : entry list
(** [unison-sdr] (the composed U∘SDR system), [tail-unison],
    [min-unison]. *)

val find : string -> entry option
(** The entry of that exact name. *)

val build : entry -> Csr.t -> Flat.prog

val init_ground : Flat.prog -> unit
(** All fields to 0 — the all-[C], all-zero-clock configuration, which is
    legitimate for every catalogue entry. *)

val perturb : Flat.prog -> rng:Random.State.t -> int -> unit
(** Corrupt [k] distinct random nodes: ranged integer fields are redrawn
    uniformly from their declared range (via [Random.State.full_int] —
    min-unison's K = n²+1 overflows 30-bit draws), enum and bool fields
    uniformly from their constructors. *)

val init_random : Flat.prog -> rng:Random.State.t -> unit
(** Perturb every node — arbitrary initial configurations for tests. *)

val digest : Flat.prog -> Flat.result -> string
(** One deterministic line (outcome, steps, moves, rounds, state
    checksum — no wall-clock), the byte-comparable summary behind the
    scale-smoke partition-invariance gate. *)
