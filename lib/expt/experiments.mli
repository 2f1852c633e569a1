(** The experiment suite — one entry per item of the per-experiment index in
    DESIGN.md.  The paper is a theory paper, so each "table" validates one
    proven bound or correctness theorem empirically; the [ok] column of each
    table reports whether the bound/property held on every sampled run. *)

type profile = {
  sizes : int list;  (** network sizes for the sweeps *)
  fga_sizes : int list;  (** smaller sizes for the costlier FGA sweeps *)
  seeds : int;  (** random repetitions per cell *)
  bare_steps_factor : int;  (** step budget per process for liveness runs *)
  jobs : int;
      (** grid-cell parallelism: the (family × size × spec/daemon) cells of
          each sweep run on up to [jobs] OCaml domains via
          {!Ssreset_sim.Pool}.  Every cell owns its RNG seeds, and cell
          results are collected in input order, so tables are byte-identical
          for any [jobs] value; [jobs <= 1] stays fully sequential. *)
}

val quick : profile
(** Small sweep (< 1 min total) used by [bench --quick] and CI. *)

val full : profile
(** The default bench profile. *)

val e1_e2_e3 : profile -> Table.t list
(** Convergence of I ∘ SDR to a normal configuration:
    E1 rounds ≤ 3n (Corollary 5), E2 per-process SDR moves ≤ 3n+3
    (Corollary 4), E3 segments ≤ n+1 and alive-root monotonicity
    (Remarks 4–5).  Runs both U ∘ SDR and FGA ∘ SDR. *)

val e4_e5 : profile -> Table.t list
(** U ∘ SDR stabilization: E4 moves vs the O(D·n²) shape (Theorem 6),
    E5 rounds ≤ 3n (Theorem 7). *)

val e7 : profile -> Table.t
(** Bare U from γ_init: safety never violated, every process increments
    (Theorem 5). *)

val e12 : unit -> Table.t
(** Property 1 of Dourado et al., checked exhaustively on every labeled
    connected graph with up to 5 processes, plus cross-checking FGA's output
    against the brute-force 1-minimal enumeration. *)

val e13 : profile -> Table.t
(** Generality: coloring ∘ SDR and MIS ∘ SDR are silent self-stabilizing
    (terminate with correct outputs from arbitrary configurations). *)

(** E1–E5, E7, E12 and E13 also have their own entry points; the others
    (E6 baseline comparison, E8 bare FGA, E9/E10 FGA ∘ SDR, E11 daemon
    ablation, E14 fault bursts, E15 reset architectures, E16 parameter
    ablation) run through {!all_lazy}.  DESIGN.md indexes what each table
    validates. *)

val ids : string list
(** The experiment ids, in order: ["E1-E3"], ["E4-E5"], ["E6"], …,
    ["E16"] — the names both front ends accept. *)

val all_lazy : profile -> (string * (unit -> Table.t list)) list
(** Every experiment, in order, tagged with its id; each experiment's
    tables are computed only when forced, so filtered runs skip
    unrequested experiments entirely and per-experiment wall-clock can be
    measured. *)
