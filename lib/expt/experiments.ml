module Graph = Ssreset_graph.Graph
module Metrics = Ssreset_graph.Metrics
module Spec = Ssreset_alliance.Spec
module Brute = Ssreset_alliance.Brute

type profile = {
  sizes : int list;
  fga_sizes : int list;
  seeds : int;
  bare_steps_factor : int;
  jobs : int;
}

let quick =
  { sizes = [ 12; 24 ]; fga_sizes = [ 10; 16 ]; seeds = 2;
    bare_steps_factor = 40; jobs = 1 }

let full =
  { sizes = [ 16; 32; 64; 128 ];
    fga_sizes = [ 12; 24; 40 ];
    seeds = 3;
    bare_steps_factor = 60;
    jobs = 1 }

(* Fan a sweep's independent grid cells out over [profile.jobs] domains.
   Each cell builds its own graphs, daemons and RNG states from its seeds,
   and {!Ssreset_sim.Pool} returns results in input order — so the tables
   below are byte-identical whatever the jobs count. *)
let grid ~profile cells ~f = Ssreset_sim.Pool.map_list ~jobs:profile.jobs f cells

(* family × size cell list, in sweep order. *)
let cells_of families sizes =
  List.concat_map
    (fun (family : Workload.family) -> List.map (fun n -> (family, n)) sizes)
    families

let unison_families = [ Workload.ring; Workload.path; Workload.star;
                        Workload.sparse_random; Workload.lollipop ]

let fga_families = [ Workload.ring; Workload.star; Workload.sparse_random;
                     Workload.complete ]

(* Aggregate of a cell of a sweep: the worst case over (daemon, seed). *)
type agg = {
  mutable runs : int;
  mutable all_ok : bool;
  mutable max_rounds : int;
  mutable max_moves : int;
  mutable sum_moves : int;
  mutable max_proc_sdr : int;
  mutable max_segments : int;
  mutable ar_ok : bool;
  mutable max_wl_p50 : float;  (* worst median per-process workload *)
  mutable max_wl_p90 : float;  (* worst 90th-percentile workload *)
}

let new_agg () =
  { runs = 0; all_ok = true; max_rounds = 0; max_moves = 0; sum_moves = 0;
    max_proc_sdr = 0; max_segments = 0; ar_ok = true; max_wl_p50 = 0.;
    max_wl_p90 = 0. }

let add agg (o : Runner.obs) =
  agg.runs <- agg.runs + 1;
  agg.all_ok <- agg.all_ok && o.Runner.outcome_ok && o.Runner.result_ok;
  agg.max_rounds <- max agg.max_rounds o.Runner.rounds;
  agg.max_moves <- max agg.max_moves o.Runner.moves;
  agg.sum_moves <- agg.sum_moves + o.Runner.moves;
  agg.max_proc_sdr <- max agg.max_proc_sdr o.Runner.max_proc_sdr_moves;
  agg.max_segments <-
    max agg.max_segments (Option.value ~default:0 o.Runner.segments);
  agg.ar_ok <- agg.ar_ok && Option.value ~default:true o.Runner.ar_monotone;
  agg.max_wl_p50 <- Float.max agg.max_wl_p50 o.Runner.workload_p50;
  agg.max_wl_p90 <- Float.max agg.max_wl_p90 o.Runner.workload_p90

(* Run [run] for every daemon of the pool and [seeds] seeds; the seed also
   perturbs the graph for randomized families. *)
let sweep_cell ~seeds ~run =
  let agg = new_agg () in
  List.iter
    (fun daemon ->
      for seed = 1 to seeds do
        add agg (run ~daemon ~seed)
      done)
    (Runner.experiment_daemons ());
  agg

let mean_moves agg = float_of_int agg.sum_moves /. float_of_int (max 1 agg.runs)

(* ------------------------------------------------------------------ *)
(* E1/E2/E3: convergence of I ∘ SDR to a normal configuration.         *)
(* ------------------------------------------------------------------ *)

let e1_e2_e3 profile =
  let jobs_of_cell (system, (family : Workload.family), n) =
    let agg =
      match system with
      | `Unison ->
          sweep_cell ~seeds:profile.seeds ~run:(fun ~daemon ~seed ->
              let graph = family.Workload.build ~seed ~n in
              Runner.run Runner.unison ~graph ~daemon ~seed ())
      | `Fga ->
          sweep_cell ~seeds:profile.seeds ~run:(fun ~daemon ~seed ->
              let graph = family.Workload.build ~seed ~n in
              Runner.run
                (Runner.alliance ~stop_at_normal:true Spec.dominating_set)
                ~graph ~daemon ~seed ())
    in
    ((match system with `Unison -> "U∘SDR" | `Fga -> "FGA∘SDR"),
     family.Workload.family_name, n, agg)
  in
  let cells =
    grid ~profile ~f:jobs_of_cell
      (List.map (fun (f, n) -> (`Unison, f, n))
         (cells_of unison_families profile.sizes)
      @ List.map (fun (f, n) -> (`Fga, f, n))
          (cells_of fga_families profile.fga_sizes))
  in
  let e1 =
    Table.make ~title:"E1  I∘SDR reaches a normal configuration within 3n rounds (Cor 5)"
      ~headers:[ "system"; "family"; "n"; "max rounds"; "bound 3n"; "ok" ]
      (List.map
         (fun (system, family, n, agg) ->
           [ system; family; Table.cell_int n; Table.cell_int agg.max_rounds;
             Table.cell_int (3 * n);
             Table.cell_bool (agg.all_ok && agg.max_rounds <= 3 * n) ])
         cells)
  in
  let e2 =
    Table.make
      ~title:"E2  every process executes at most 3n+3 SDR moves (Cor 4)"
      ~headers:[ "system"; "family"; "n"; "max SDR moves/proc"; "bound 3n+3"; "ok" ]
      (List.map
         (fun (system, family, n, agg) ->
           [ system; family; Table.cell_int n;
             Table.cell_int agg.max_proc_sdr;
             Table.cell_int ((3 * n) + 3);
             Table.cell_bool (agg.max_proc_sdr <= (3 * n) + 3) ])
         cells)
  in
  let e3 =
    Table.make
      ~title:
        "E3  alive roots only vanish; executions span at most n+1 segments (Rem 4-5)"
      ~headers:
        [ "system"; "family"; "n"; "max segments"; "bound n+1"; "AR monotone";
          "ok" ]
      (List.map
         (fun (system, family, n, agg) ->
           [ system; family; Table.cell_int n;
             Table.cell_int agg.max_segments;
             Table.cell_int (n + 1);
             Table.cell_bool agg.ar_ok;
             Table.cell_bool (agg.ar_ok && agg.max_segments <= n + 1) ])
         cells)
  in
  [ e1; e2; e3 ]

(* ------------------------------------------------------------------ *)
(* E4/E5: unison stabilization complexity.                              *)
(* ------------------------------------------------------------------ *)

let e4_e5 profile =
  let families = [ Workload.ring; Workload.path; Workload.sparse_random ] in
  let cells =
    grid ~profile (cells_of families profile.sizes)
      ~f:(fun ((family : Workload.family), n) ->
        let graph = family.Workload.build ~seed:1 ~n in
        let diam = Metrics.diameter graph in
        let agg =
          sweep_cell ~seeds:profile.seeds ~run:(fun ~daemon ~seed ->
              Runner.run Runner.unison ~graph ~daemon ~seed ())
        in
        (family.Workload.family_name, n, diam, agg))
  in
  let e4 =
    Table.make
      ~title:"E4  U∘SDR stabilizes within O(D·n²) moves (Thm 6)"
      ~headers:
        [ "family"; "n"; "D"; "max moves"; "mean moves"; "workload p50";
          "workload p90"; "D·n²"; "max/(D·n²)"; "ok" ]
      ~notes:
        [ "the ratio staying bounded (≲ 1) across sizes is the O(D·n²) shape;";
          "actual runs sit far below the worst case;";
          "workload p50/p90: worst-case percentiles of the per-process move \
           counts — close percentiles mean the moves spread evenly instead \
           of piling onto few processes" ]
      (List.map
         (fun (family, n, diam, agg) ->
           let bound = diam * n * n in
           [ family; Table.cell_int n; Table.cell_int diam;
             Table.cell_int agg.max_moves;
             Table.cell_float (mean_moves agg);
             Table.cell_float agg.max_wl_p50;
             Table.cell_float agg.max_wl_p90;
             Table.cell_int bound;
             Table.cell_float (float_of_int agg.max_moves /. float_of_int bound);
             Table.cell_bool (agg.all_ok && agg.max_moves <= bound) ])
         cells)
  in
  let e5 =
    Table.make ~title:"E5  U∘SDR stabilizes within 3n rounds (Thm 7)"
      ~headers:[ "family"; "n"; "max rounds"; "bound 3n"; "ok" ]
      (List.map
         (fun (family, n, _, agg) ->
           [ family; Table.cell_int n; Table.cell_int agg.max_rounds;
             Table.cell_int (3 * n);
             Table.cell_bool (agg.all_ok && agg.max_rounds <= 3 * n) ])
         cells)
  in
  [ e4; e5 ]

(* ------------------------------------------------------------------ *)
(* E6: baseline comparison.                                             *)
(* ------------------------------------------------------------------ *)

let e6 profile =
  let families = [ Workload.ring; Workload.path; Workload.sparse_random ] in
  let rows =
    grid ~profile (cells_of families profile.sizes)
      ~f:(fun ((family : Workload.family), n) ->
            let graph = family.Workload.build ~seed:1 ~n in
            let ours = new_agg () and tail = new_agg () and mu = new_agg () in
            List.iter
              (fun daemon_name ->
                for seed = 1 to profile.seeds do
                  let run system =
                    Runner.run system ~graph
                      ~daemon:(Runner.daemon_by_name daemon_name) ~seed ()
                  in
                  add ours (run Runner.unison);
                  add tail (run Runner.tail_unison);
                  add mu (run Runner.min_unison)
                done)
              [ "synchronous"; "central-random"; "distributed-random";
                "locally-central" ];
            let ratio = mean_moves tail /. mean_moves ours in
            [ family.Workload.family_name; Table.cell_int n;
              Table.cell_float (mean_moves ours);
              Table.cell_float (mean_moves tail);
              Table.cell_float ratio;
              Table.cell_float (mean_moves mu);
              Table.cell_int mu.max_rounds;
              Table.cell_bool (ours.all_ok && tail.all_ok && mu.all_ok) ])
  in
  Table.make
    ~title:
      "E6  moves to stabilization: U∘SDR vs tail-unison [11] and min-unison \
       [20] baselines (§5.2-5.3)"
    ~headers:
      [ "family"; "n"; "U∘SDR mean moves"; "tail[11] mean moves";
        "tail/ours"; "min[20] mean moves"; "min[20] max rounds"; "ok" ]
    ~notes:
      [ "same graphs, seeds and daemons for all systems;";
        "the paper predicts the SDR-based unison beats [11] in moves \
         (O(D·n²) vs O(D·n³+α·n²));";
        "[20] needs K > n² and its worst case is schedule-crafted; on random \
         configurations its mean moves are low while its round count shows \
         the O(D·n) behaviour the paper cites" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: bare U correctness from γ_init.                                  *)
(* ------------------------------------------------------------------ *)

let e7 profile =
  let rows =
    grid ~profile
      (cells_of [ Workload.ring; Workload.star; Workload.sparse_random ]
         profile.sizes)
      ~f:(fun ((family : Workload.family), n) ->
        let graph = family.Workload.build ~seed:1 ~n in
        let agg = new_agg () in
        List.iter
          (fun daemon_name ->
            for seed = 1 to profile.seeds do
              add agg
                (Runner.run Runner.unison_bare
                   ~max_steps:(profile.bare_steps_factor * n)
                   ~graph
                   ~daemon:(Runner.daemon_by_name daemon_name)
                   ~seed ())
            done)
          [ "synchronous"; "round-robin"; "distributed-random" ];
        [ family.Workload.family_name; Table.cell_int n;
          Table.cell_int (profile.bare_steps_factor * n);
          Table.cell_bool agg.all_ok ])
  in
  Table.make
    ~title:"E7  bare U from γ_init: safety holds, all clocks advance (Thm 5)"
    ~headers:[ "family"; "n"; "steps"; "ok" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8: bare FGA from γ_init.                                            *)
(* ------------------------------------------------------------------ *)

let fga_specs =
  [ Spec.dominating_set; Spec.global_offensive; Spec.global_defensive;
    Spec.global_powerful; Spec.k_tuple_domination 2 ]

let e8 profile =
  let cells =
    List.concat_map
      (fun (family, n) -> List.map (fun spec -> (family, n, spec)) fga_specs)
      (cells_of fga_families profile.fga_sizes)
  in
  let rows =
    List.filter_map Fun.id
      (grid ~profile cells ~f:(fun ((family : Workload.family), n, spec) ->
           let graph = family.Workload.build ~seed:1 ~n in
           if not (Spec.feasible spec graph) then None
           else begin
             let agg =
               sweep_cell ~seeds:profile.seeds ~run:(fun ~daemon ~seed ->
                   Runner.run (Runner.alliance_bare spec) ~graph ~daemon
                     ~seed ())
             in
             Some
               [ spec.Spec.spec_name; family.Workload.family_name;
                 Table.cell_int n;
                 Table.cell_int agg.max_rounds;
                 Table.cell_int ((5 * n) + 4);
                 Table.cell_bool
                   (agg.all_ok && agg.max_rounds <= (5 * n) + 4) ]
           end))
  in
  Table.make
    ~title:
      "E8  bare FGA from γ_init: 1-minimal alliance within 5n+4 rounds (Cor 12) \
       and Lemma 25 per-process moves"
    ~headers:[ "spec"; "family"; "n"; "max rounds"; "bound 5n+4"; "ok" ]
    ~notes:[ "'ok' includes termination, 1-minimality and the Lemma 25 move bound" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9/E10: FGA ∘ SDR silent self-stabilization.                         *)
(* ------------------------------------------------------------------ *)

let e9_e10 profile =
  let specs =
    [ Spec.dominating_set; Spec.global_defensive; Spec.global_powerful ]
  in
  let cell_list =
    List.concat_map
      (fun (family, n) -> List.map (fun spec -> (family, n, spec)) specs)
      (cells_of fga_families profile.fga_sizes)
  in
  let cells =
    List.filter_map Fun.id
      (grid ~profile cell_list
         ~f:(fun ((family : Workload.family), n, spec) ->
           let graph = family.Workload.build ~seed:1 ~n in
           if not (Spec.feasible spec graph) then None
           else begin
             let agg =
               sweep_cell ~seeds:profile.seeds ~run:(fun ~daemon ~seed ->
                   Runner.run (Runner.alliance spec) ~graph ~daemon ~seed ())
             in
             Some
               (spec.Spec.spec_name, family.Workload.family_name, n, graph,
                agg)
           end))
  in
  let e9 =
    Table.make
      ~title:
        "E9  FGA∘SDR from arbitrary configurations: silent within 8n+4 rounds \
         (Thm 14) and O(Δ·n·m) moves (Thm 13)"
      ~headers:
        [ "spec"; "family"; "n"; "max rounds"; "bound 8n+4"; "max moves";
          "Δ·n·m"; "max/(Δ·n·m)"; "ok" ]
      (List.map
         (fun (spec, family, n, graph, agg) ->
           let bound =
             Graph.max_degree graph * Graph.n graph * Graph.m graph
           in
           [ spec; family; Table.cell_int n; Table.cell_int agg.max_rounds;
             Table.cell_int ((8 * n) + 4);
             Table.cell_int agg.max_moves;
             Table.cell_int bound;
             Table.cell_float
               (float_of_int agg.max_moves /. float_of_int (max 1 bound));
             Table.cell_bool
               (agg.all_ok
               && agg.max_rounds <= (8 * n) + 4
               && agg.max_moves <= 16 * bound) ])
         cells)
  in
  let e10 =
    Table.make
      ~title:
        "E10  every terminal configuration of FGA∘SDR is a 1-minimal \
         (f,g)-alliance (Thm 11)"
      ~headers:[ "spec"; "family"; "n"; "runs"; "ok" ]
      (List.map
         (fun (spec, family, n, _graph, agg) ->
           [ spec; family; Table.cell_int n; Table.cell_int agg.runs;
             Table.cell_bool agg.all_ok ])
         cells)
  in
  [ e9; e10 ]

(* ------------------------------------------------------------------ *)
(* E11: daemon ablation.                                                *)
(* ------------------------------------------------------------------ *)

let e11 profile =
  let n = List.fold_left max 8 profile.fga_sizes in
  let graph = Workload.sparse_random.Workload.build ~seed:3 ~n in
  let daemon_names =
    [ "synchronous"; "central-random"; "central-first"; "round-robin";
      "distributed-random"; "locally-central"; "adversarial"; "starve" ]
  in
  let rows =
    List.concat
      (grid ~profile daemon_names ~f:(fun daemon_name ->
           let uni = new_agg () and fga = new_agg () in
           for seed = 1 to profile.seeds do
             let run system =
               Runner.run system ~graph
                 ~daemon:(Runner.daemon_by_name daemon_name) ~seed ()
             in
             add uni (run Runner.unison);
             add fga (run (Runner.alliance Spec.dominating_set))
           done;
           [ [ daemon_name; "U∘SDR"; Table.cell_int uni.max_rounds;
               Table.cell_float (mean_moves uni); Table.cell_bool uni.all_ok ];
             [ daemon_name; "FGA∘SDR"; Table.cell_int fga.max_rounds;
               Table.cell_float (mean_moves fga); Table.cell_bool fga.all_ok ]
           ]))
  in
  Table.make
    ~title:
      (Printf.sprintf
         "E11  daemon ablation on sparse-random n=%d (all are unfair-daemon \
          instances, so every bound must hold)"
         n)
    ~headers:[ "daemon"; "system"; "max rounds"; "mean moves"; "ok" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12: Property 1, exhaustively on small graphs.                       *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let graphs = Workload.small_connected_graphs ~max_n:5 in
  let specs =
    [ Spec.dominating_set; Spec.global_offensive; Spec.global_defensive;
      Spec.global_powerful;
      (* (0,2): ∅ is an alliance, yet any triangle is 1-minimal — the
         classical witness that 1-minimal does not imply minimal. *)
      Spec.custom ~name:"(0,2)-alliance" ~f:0 ~g:2 ]
  in
  let rows =
    List.map
      (fun spec ->
        let graphs_used = ref 0 in
        let minimal_total = ref 0 in
        let one_minimal_total = ref 0 in
        let p11_ok = ref true in
        let p12_applicable = ref 0 in
        let p12_ok = ref true in
        let non_minimal_one_minimal = ref 0 in
        List.iter
          (fun g ->
            if Spec.feasible spec g then begin
              incr graphs_used;
              let minimal = Brute.all_minimal g spec in
              let one_minimal = Brute.all_one_minimal g spec in
              minimal_total := !minimal_total + List.length minimal;
              one_minimal_total := !one_minimal_total + List.length one_minimal;
              (* Property 1.1: minimal ⟹ 1-minimal. *)
              List.iter
                (fun mask ->
                  if not (List.mem mask one_minimal) then p11_ok := false)
                minimal;
              if Spec.f_geq_g spec g then begin
                incr p12_applicable;
                (* Property 1.2: f ≥ g ⟹ (1-minimal ⟹ minimal). *)
                List.iter
                  (fun mask ->
                    if not (List.mem mask minimal) then p12_ok := false)
                  one_minimal
              end
              else
                List.iter
                  (fun mask ->
                    if not (List.mem mask minimal) then
                      incr non_minimal_one_minimal)
                  one_minimal
            end)
          graphs;
        [ spec.Spec.spec_name; Table.cell_int !graphs_used;
          Table.cell_int !minimal_total; Table.cell_int !one_minimal_total;
          Table.cell_int !non_minimal_one_minimal;
          Table.cell_bool (!p11_ok && (!p12_applicable = 0 || !p12_ok)) ])
      specs
  in
  Table.make
    ~title:
      "E12  Property 1 (Dourado et al.) on all labeled connected graphs, n ≤ 5"
    ~headers:
      [ "spec"; "graphs"; "minimal sets"; "1-minimal sets";
        "1-min ∧ ¬min (g>f only)"; "ok" ]
    ~notes:
      [ "minimal ⟹ 1-minimal always; with f ≥ g the converse holds too;";
        "the strictly positive fourth column for defensive/powerful shows why \
         1-minimality is the right target without restrictions on f, g" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13: generality — coloring and MIS through SDR.                      *)
(* ------------------------------------------------------------------ *)

let e13 profile =
  let rows =
    List.concat
      (grid ~profile
         (cells_of
            [ Workload.ring; Workload.star; Workload.sparse_random ]
            profile.fga_sizes)
         ~f:(fun ((family : Workload.family), n) ->
            let graph = family.Workload.build ~seed:1 ~n in
            let col =
              sweep_cell ~seeds:profile.seeds ~run:(fun ~daemon ~seed ->
                  Runner.run Runner.coloring ~graph ~daemon ~seed ())
            in
            let mis =
              sweep_cell ~seeds:profile.seeds ~run:(fun ~daemon ~seed ->
                  Runner.run Runner.mis ~graph ~daemon ~seed ())
            in
            let mat =
              sweep_cell ~seeds:profile.seeds ~run:(fun ~daemon ~seed ->
                  Runner.run Runner.matching ~graph ~daemon ~seed ())
            in
            [ [ "coloring∘SDR"; family.Workload.family_name; Table.cell_int n;
                Table.cell_int col.max_rounds; Table.cell_bool col.all_ok ];
              [ "MIS∘SDR"; family.Workload.family_name; Table.cell_int n;
                Table.cell_int mis.max_rounds; Table.cell_bool mis.all_ok ];
              [ "matching∘SDR"; family.Workload.family_name; Table.cell_int n;
                Table.cell_int mat.max_rounds; Table.cell_bool mat.all_ok ] ]))
  in
  Table.make
    ~title:
      "E13  generality (§1.1): static inputs become silent self-stabilizing \
       under SDR (coloring, MIS, maximal matching)"
    ~headers:[ "system"; "family"; "n"; "max rounds"; "ok" ]
    rows

(* ------------------------------------------------------------------ *)
(* E14: cooperative resets stay partial under small fault bursts.       *)
(* ------------------------------------------------------------------ *)

let e14 profile =
  let n = List.fold_left max 16 profile.sizes in
  let graph = Workload.grid.Workload.build ~seed:1 ~n in
  let n = Ssreset_graph.Graph.n graph in
  let module M = Ssreset_mis.Mis.Make (struct
    let graph = graph
    let ids = None
  end) in
  let gen = M.Composed.generator ~inner:M.gen ~max_d:n in
  let daemon () = Runner.daemon_by_name "distributed-random" in
  let rng = Random.State.make [| 2718 |] in
  (* converge once, then inject bursts of growing size *)
  let stabilize cfg =
    Ssreset_sim.Engine.run ~rng ~max_steps:5_000_000
      ~algorithm:M.Composed.algorithm ~graph ~daemon:(daemon ()) cfg
  in
  let base = stabilize (Ssreset_sim.Fault.arbitrary rng gen graph) in
  let rows =
    List.map
      (fun burst ->
        let moves = ref [] and touched = ref [] and ok = ref true in
        for _ = 1 to 3 * profile.seeds do
          let faulty =
            Ssreset_sim.Fault.corrupt rng gen ~k:burst
              base.Ssreset_sim.Engine.final
          in
          let r = stabilize faulty in
          ok :=
            !ok
            && r.Ssreset_sim.Engine.outcome = Ssreset_sim.Engine.Terminal
            && M.is_mis
                 (M.independent_set_of_composed r.Ssreset_sim.Engine.final);
          moves := r.Ssreset_sim.Engine.moves :: !moves;
          touched :=
            Array.fold_left
              (fun acc c -> if c > 0 then acc + 1 else acc)
              0 r.Ssreset_sim.Engine.moves_per_process
            :: !touched
        done;
        let mean l =
          float_of_int (List.fold_left ( + ) 0 l)
          /. float_of_int (List.length l)
        in
        [ Table.cell_int burst; Table.cell_float (mean !moves);
          Table.cell_float (mean !touched); Table.cell_int n;
          Table.cell_bool !ok ])
      [ 0; 1; 2; 4; n / 4; n / 2; n ]
  in
  Table.make
    ~title:
      (Printf.sprintf
         "E14  recovery from transient fault bursts (MIS∘SDR on grid n=%d): \
          concurrent resets cooperate into one wave"
         n)
    ~headers:
      [ "burst size"; "mean moves"; "mean processes touched"; "n"; "ok" ]
    ~notes:
      [ "burst 0 confirms legitimate configurations are silent (0 moves);";
        "recovery cost is flat in the burst size: the resets started by the \
         simultaneous fault sites coordinate into a single wave instead of \
         multiplying (a corruption that stays locally consistent costs \
         almost nothing, cf. examples/fault_recovery.ml)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E15: reset architecture — cooperative multi-initiator (SDR) versus   *)
(* mono-initiator tree waves (AGR, Arora-Gouda style).                  *)
(* ------------------------------------------------------------------ *)

let e15 profile =
  let fair_daemons =
    [ "synchronous"; "central-random"; "round-robin"; "distributed-random";
      "locally-central" ]
  in
  let rows =
    grid ~profile
      (cells_of [ Workload.ring; Workload.star; Workload.sparse_random ]
         profile.sizes)
      ~f:(fun ((family : Workload.family), n) ->
            let graph = family.Workload.build ~seed:1 ~n in
            let sdr = new_agg () and agr = new_agg () in
            List.iter
              (fun daemon_name ->
                for seed = 1 to profile.seeds do
                  let run system =
                    Runner.run system ~graph
                      ~daemon:(Runner.daemon_by_name daemon_name) ~seed ()
                  in
                  add sdr (run Runner.unison);
                  add agr (run Runner.agr_unison)
                done)
              fair_daemons;
            (* under the unfair central-first daemon SDR still stabilizes
               while the mono-initiator architecture can livelock (a
               bounded step budget stands in for "forever") *)
            let unfair_sdr =
              Runner.run Runner.unison ~graph
                ~daemon:(Runner.daemon_by_name "central-first") ~seed:1 ()
            in
            let unfair_agr =
              Runner.run Runner.agr_unison ~max_steps:200_000 ~graph
                ~daemon:(Runner.daemon_by_name "central-first") ~seed:1 ()
            in
            [ family.Workload.family_name; Table.cell_int n;
              Table.cell_int sdr.max_rounds; Table.cell_int agr.max_rounds;
              Table.cell_float (mean_moves sdr);
              Table.cell_float (mean_moves agr);
              (if unfair_sdr.Runner.result_ok then "stabilizes" else "FAIL");
              (if unfair_agr.Runner.outcome_ok then "stabilizes"
               else "livelocks");
              Table.cell_bool
                (sdr.all_ok && agr.all_ok && unfair_sdr.Runner.result_ok) ])
  in
  Table.make
    ~title:
      "E15  reset architectures on unison: cooperative multi-initiator (SDR) \
       vs mono-initiator tree waves (AGR, Arora-Gouda style, §1-1.2)"
    ~headers:
      [ "family"; "n"; "SDR max rounds"; "AGR max rounds"; "SDR mean moves";
        "AGR mean moves"; "SDR@central-first"; "AGR@central-first"; "ok" ]
    ~notes:
      [ "fair daemons: both stabilize, SDR in fewer rounds (3n bound vs \
         tree-depth-coupled waves);";
        "unfair daemon (central-first): SDR keeps its bounds — AGR needs \
         weak fairness (as Arora-Gouda assume) and can livelock, the \
         motivation for cooperative resets (§1)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E16: parameter ablation — the unison period K and the tail length α. *)
(* ------------------------------------------------------------------ *)

let e16 profile =
  let n = List.fold_left max 16 profile.sizes in
  let graph = Workload.ring.Workload.build ~seed:1 ~n in
  let daemons = [ "synchronous"; "central-random"; "distributed-random" ] in
  let measure_unison k =
    let agg = new_agg () in
    let module U = Ssreset_unison.Unison.Make (struct
      let k = k
    end) in
    let gen = U.Composed.generator ~inner:U.clock_gen ~max_d:n in
    List.iter
      (fun daemon_name ->
        for seed = 1 to profile.seeds do
          let cfg =
            Ssreset_sim.Fault.arbitrary
              (Random.State.make [| seed; k |])
              gen graph
          in
          let r =
            Ssreset_sim.Engine.run
              ~rng:(Random.State.make [| seed |])
              ~max_steps:5_000_000
              ~stop:(U.Composed.is_normal graph)
              ~algorithm:U.Composed.algorithm ~graph
              ~daemon:(Runner.daemon_by_name daemon_name) cfg
          in
          agg.runs <- agg.runs + 1;
          agg.all_ok <-
            agg.all_ok
            && r.Ssreset_sim.Engine.outcome = Ssreset_sim.Engine.Stabilized;
          agg.max_rounds <- max agg.max_rounds r.Ssreset_sim.Engine.rounds;
          agg.sum_moves <- agg.sum_moves + r.Ssreset_sim.Engine.moves
        done)
      daemons;
    agg
  in
  let measure_tail alpha =
    let agg = new_agg () in
    let module T = Ssreset_unison.Tail_unison.Make (struct
      let k = (2 * n) + 2
      let alpha = alpha
    end) in
    List.iter
      (fun daemon_name ->
        for seed = 1 to profile.seeds do
          let cfg =
            Ssreset_sim.Fault.arbitrary
              (Random.State.make [| seed; alpha |])
              T.clock_gen graph
          in
          let r =
            Ssreset_sim.Engine.run
              ~rng:(Random.State.make [| seed |])
              ~max_steps:5_000_000
              ~stop:(T.is_legitimate graph)
              ~algorithm:T.algorithm ~graph
              ~daemon:(Runner.daemon_by_name daemon_name) cfg
          in
          agg.runs <- agg.runs + 1;
          agg.all_ok <-
            agg.all_ok
            && r.Ssreset_sim.Engine.outcome = Ssreset_sim.Engine.Stabilized;
          agg.max_rounds <- max agg.max_rounds r.Ssreset_sim.Engine.rounds;
          agg.sum_moves <- agg.sum_moves + r.Ssreset_sim.Engine.moves
        done)
      daemons;
    agg
  in
  let rows =
    grid ~profile
      [ `U ("K = n+1", n + 1); `U ("K = 2n+2", (2 * n) + 2);
        `U ("K = n²+1", (n * n) + 1);
        `T ("α = n/2", n / 2); `T ("α = n", n); `T ("α = 2n", 2 * n) ]
      ~f:(fun cell ->
        let system, label, agg =
          match cell with
          | `U (label, k) -> ("U∘SDR", label, measure_unison k)
          | `T (label, alpha) -> ("tail-unison", label, measure_tail alpha)
        in
        [ system; label; Table.cell_int agg.max_rounds;
          Table.cell_float (mean_moves agg); Table.cell_bool agg.all_ok ])
  in
  Table.make
    ~title:
      (Printf.sprintf
         "E16  parameter ablation on ring n=%d: unison period K (theory: any \
          K > n works) and baseline tail length α (costs moves linearly)"
         n)
    ~headers:[ "system"; "parameter"; "max rounds"; "mean moves"; "ok" ]
    ~notes:
      [ "the 3n-round bound of U∘SDR is independent of K, so all K rows must \
         look alike;";
        "the tail baseline pays ~α extra moves per resetting process, part \
         of its O(D·n³ + α·n²) move complexity" ]
    rows

let all_lazy profile =
  [ ("E1-E3", fun () -> e1_e2_e3 profile);
    ("E4-E5", fun () -> e4_e5 profile);
    ("E6", fun () -> [ e6 profile ]);
    ("E7", fun () -> [ e7 profile ]);
    ("E8", fun () -> [ e8 profile ]);
    ("E9-E10", fun () -> e9_e10 profile);
    ("E11", fun () -> [ e11 profile ]);
    ("E12", fun () -> [ e12 () ]);
    ("E13", fun () -> [ e13 profile ]);
    ("E14", fun () -> [ e14 profile ]);
    ("E15", fun () -> [ e15 profile ]);
    ("E16", fun () -> [ e16 profile ]) ]

let all profile =
  List.map (fun (id, tables) -> (id, tables ())) (all_lazy profile)
