(** Registry of finitely-checkable algorithm instances, plus the runner
    that drives {!Lint} and {!Model} over all connected graphs up to a
    per-entry size bound (one representative per isomorphism class, via
    [Gen.all_connected]).

    {!entries} holds the paper algorithms — all expected clean.
    {!fixtures} holds the deliberately broken toys of {!Toy} — expected
    dirty; they are kept apart so "every registered algorithm passes" stays
    meaningful. *)

type entry = {
  name : string;
  description : string;
  expect_silent : bool;
      (** silent algorithms additionally get the acyclicity check of
          {!Model.options.expect_silent} *)
  round_bound : (int -> int) option;
      (** the paper's stabilization bound in rounds, as a function of n *)
  min_n : int;  (** smallest meaningful graph size (FGA needs n ≥ 2) *)
  max_n_quick : int;  (** graph-size ceiling under [dune runtest] *)
  max_n_full : int;  (** graph-size ceiling for the CLI default *)
  instance : Ssreset_graph.Graph.t -> Finite.t;
  footprint : (Ssreset_graph.Graph.t -> Footprint.target) option;
      (** composed targets carry the full layer decomposition; [None]
          falls back to the monolithic {!Footprint.of_finite} view *)
  sym : (Ssreset_graph.Graph.t -> Sym.instance) option;
      (** symbolic-IR instance for the differential pass ({!Sym.check});
          [None] when no IR is attached *)
  smt_spec : Sym.spec option;
      (** the topology-parametric symbolic spec {!Obligation} compiles to
          SMT-LIB; usually the spec underlying [sym], shared across graph
          sizes *)
  comp_spec : Sym.spec option;
      (** the {e composed}-system spec whose rank family
          {!Obligation.compile_composition} turns into [comp.*]
          obligations — only unison-sdr carries one
          ({!unison_sdr_composed_spec}) *)
}

val tail_unison_spec : Sym.spec
val min_unison_spec : Sym.spec
(** Topology-parametric symbolic specs of the two self-contained unisons
    (shared by the entries below and by the flat data-path engine). *)

val unison_sdr_composed_spec : Sym.spec
(** The {e whole} composed U∘SDR system as one symbolic IR: fields
    [st : Status], [d : Int], [c : Int]; rules SDR-RB/RF/C/R plus the
    lifted U-inc, in the engine's rule order.  The source program of the
    flat engine's closure compiler; validated against [Sdr.Make]'s OCaml
    rules by {!unison_sdr_composed_sym}.  Carries the ["wave-completion"]
    rank (RB = 2, RF = 1, C = 0, covered by SDR-RF/SDR-C) that
    {!Obligation.compile_composition} exports as the [comp.*] obligation
    family of the unison-sdr entry. *)

val tail_unison_params_of_n : int -> (string * int) list
val min_unison_params_of_n : int -> (string * int) list
val unison_sdr_params_of_n : int -> (string * int) list
(** Parameter valuations as a function of the process count, matching the
    registry instances: tail [K = max 4 (2n+2), α = max 1 n]; min
    [K = max 4 (n²+1), α = max 1 (n-2)]; composed [K = n+2, MaxD = n]. *)

val unison_sdr_composed_sym : Ssreset_graph.Graph.t -> Sym.instance
(** Differential instance for {!unison_sdr_composed_spec} on one graph
    (the bounded oracle behind the flat engine's compiler). *)

val entries : entry list
(** min-unison, tail-unison, unison-sdr, coloring-sdr, mis-sdr,
    matching-sdr, fga-sdr.  Every entry attaches a symbolic IR, so [check
    smt emit] covers the whole registry.  Five entries also carry a rank,
    and their instance's certificate is that same {!Sym.rank_spec} bound
    to the instance's encoder and parameters ({!Finite.ranking}): the two
    tail-core unisons a ["climb-debt"] rank, unison-sdr the composed
    spec's ["wave-completion"] rank, and coloring-sdr / mis-sdr the input
    spec's ["undecided"] rank, encoded on the SDR state's inner layer (the
    lifted rules keep the input rule names). *)

val fixtures : entry list
(** toy-livelock, toy-overlap, toy-interference, toy-badsym, toy-badrank
    ({!Toy}).  toy-badsym is clean under lint, footprint and the model
    checker; only the symbolic differential flags it.  toy-badrank is the
    one bad-measure fixture: clean under lint and the guard/post
    differential, it is flagged by both rank checks — the ranking
    differential (["rank"] mismatches) and the model checker (a
    ["certificate"] violation). *)

val footprint_target : entry -> Ssreset_graph.Graph.t -> Footprint.target
(** The target {!run} analyzes for this entry on one graph (declared or
    derived). *)

val contains : needle:string -> string -> bool
(** Case-insensitive substring test; the empty needle is in every
    string. *)

val find : string -> entry list
(** The entries and fixtures whose name {!contains} the pattern —
    ["unison"] selects min-unison, tail-unison and unison-sdr. *)

val listing : unit -> string
(** The [check --list] table: one line per entry and fixture with its
    capability columns — composed footprint target, symbolic rule IR, SMT
    obligation spec (input-layer or composed), and a global ranking
    function (an instance certificate or a [sp_rank] on either symbolic
    spec, which the model checker checks on every move and {!obligations}
    exports as the rank / comp.rank families). *)

val obligations : ?family:Obligation.family -> entry -> Obligation.t list
(** The one export rule: {!Obligation.compile} of the entry's [smt_spec]
    followed by {!Obligation.compile_composition} of its [comp_spec], over
    [family] or, by default, all four families.  Empty for an entry with
    neither spec. *)

val run :
  ?mode:[ `Quick | `Full ] ->
  ?max_n:int ->
  ?max_views_per_process:int ->
  ?footprint:bool ->
  ?sym:bool ->
  ?graphs:(int -> Ssreset_graph.Graph.t list) ->
  ?options:Model.options ->
  entry ->
  Report.entry_report
(** Lint, footprint-analyze, differentially validate the symbolic IR
    (when attached; [sym:false] skips the pass) and model-check one entry
    on every graph
    yielded by [graphs n] (default [Gen.all_connected]: every connected
    graph, one per isomorphism class) for [entry.min_n ≤ n ≤ max_n]
    (default: the entry's quick/full ceiling for [mode], itself defaulting
    to [`Full]).  Restricting [graphs] to one family (e.g. complete
    graphs) lets symmetry-reduced runs reach larger [n] affordably.
    [options.expect_silent] is overridden by the entry's flag; when the
    entry declares a round bound and the checker computed a worst case
    above it, a ["round-bound"] violation is added to that graph's result.
    Lint findings are merged across graphs (one per lint × rule set,
    counts summed); footprint reports are {!Footprint.merge}d the same way
    ([footprint:false] skips the pass and leaves the report field
    [None]).  The report's obligations are {!obligations}[ entry]. *)
