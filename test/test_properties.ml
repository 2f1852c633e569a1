(* Property-based tests (QCheck, registered as alcotest cases).

   The properties quantify over random graphs, random configurations,
   random daemons and random schedules — the same adversary space as the
   paper's theorems, sampled. *)

module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Metrics = Ssreset_graph.Metrics
module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Engine = Ssreset_sim.Engine
module Fault = Ssreset_sim.Fault
module Trace = Ssreset_sim.Trace
module Spec = Ssreset_alliance.Spec
module Checker = Ssreset_alliance.Checker
module Brute = Ssreset_alliance.Brute

let rng seed = Random.State.make [| seed |]

(* ------------------------------ generators ----------------------------- *)

(* A random connected graph described by (shape, n, seed) — kept as a
   first-class value so shrinking stays meaningful. *)
let graph_gen =
  QCheck2.Gen.(
    let* shape = int_range 0 4 in
    let* n = int_range 4 14 in
    let* seed = int_range 1 1000 in
    return
      (match shape with
      | 0 -> Gen.ring (max 4 n)
      | 1 -> Gen.path n
      | 2 -> Gen.star n
      | 3 -> Gen.random_tree (rng seed) n
      | _ -> Gen.erdos_renyi (rng seed) n 0.3))

let daemon_of_index i =
  match i mod 6 with
  | 0 -> Daemon.synchronous
  | 1 -> Daemon.central_random
  | 2 -> Daemon.central_first
  | 3 -> Daemon.distributed_random 0.4
  | 4 -> Daemon.locally_central_random
  | _ -> Daemon.round_robin

let make_test ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* ----------------------------- graph properties ------------------------ *)

let graph_props =
  [ make_test "generated graphs are simple connected" graph_gen (fun g ->
        Graph.is_connected g
        && Graph.m g
           = List.length (Graph.edges g)
        && List.for_all (fun (u, v) -> u < v) (Graph.edges g));
    make_test "handshake: sum of degrees = 2m" graph_gen (fun g ->
        let sum = ref 0 in
        for u = 0 to Graph.n g - 1 do
          sum := !sum + Graph.degree g u
        done;
        !sum = 2 * Graph.m g);
    make_test "diameter bounds: D <= n-1 and radius <= D <= 2·radius"
      graph_gen (fun g ->
        let d = Metrics.diameter g and r = Metrics.radius g in
        d <= Graph.n g - 1 && r <= d && d <= 2 * r);
    make_test "bfs distances satisfy the triangle step" graph_gen (fun g ->
        let dist = Metrics.bfs_distances g 0 in
        List.for_all
          (fun (u, v) -> abs (dist.(u) - dist.(v)) <= 1)
          (Graph.edges g)) ]

(* ----------------------------- engine properties ----------------------- *)

(* Replay: the engine's steps must be exactly "apply the named rule of each
   activated process to the pre-step view". *)
let engine_props =
  [ make_test "trace replay reproduces every configuration"
      QCheck2.Gen.(pair graph_gen (int_range 1 1000))
      (fun (g, seed) ->
        let module U = Ssreset_unison.Unison.Make (struct
          let k = 40
        end) in
        let gen = U.Composed.generator ~inner:U.clock_gen ~max_d:10 in
        let cfg = Fault.arbitrary (rng seed) gen g in
        let trace, _ =
          Trace.record ~rng:(rng (seed + 1)) ~max_steps:60
            ~algorithm:U.Composed.algorithm ~graph:g
            ~daemon:(daemon_of_index seed) cfg
        in
        List.for_all
          (fun (before, after, moved) ->
            let expected = Array.copy before in
            List.iter
              (fun (u, name) ->
                let rule =
                  List.find
                    (fun (r : _ Algorithm.rule) ->
                      String.equal r.Algorithm.rule_name name)
                    U.Composed.algorithm.Algorithm.rules
                in
                expected.(u) <-
                  rule.Algorithm.action (Algorithm.view g before u))
              moved;
            Array.for_all2
              (fun a b -> U.Composed.algorithm.Algorithm.equal a b)
              expected after)
          (Trace.steps_pairs trace));
    make_test "rounds <= steps <= moves on every run"
      QCheck2.Gen.(pair graph_gen (int_range 1 1000))
      (fun (g, seed) ->
        let module U = Ssreset_unison.Unison.Make (struct
          let k = 40
        end) in
        let gen = U.Composed.generator ~inner:U.clock_gen ~max_d:10 in
        let cfg = Fault.arbitrary (rng seed) gen g in
        let r =
          Engine.run ~rng:(rng (seed + 2)) ~max_steps:300
            ~algorithm:U.Composed.algorithm ~graph:g
            ~daemon:(daemon_of_index (seed + 1)) cfg
        in
        r.Engine.rounds <= r.Engine.steps
        && r.Engine.steps <= r.Engine.moves
        && Array.fold_left ( + ) 0 r.Engine.moves_per_process
           = r.Engine.moves
        && List.fold_left (fun a (_, c) -> a + c) 0 r.Engine.moves_per_rule
           = r.Engine.moves) ]

(* ------------------------------ SDR properties ------------------------- *)

let sdr_props =
  [ make_test "U∘SDR stabilizes within 3n rounds from any configuration"
      QCheck2.Gen.(pair graph_gen (int_range 1 1000))
      (fun (g, seed) ->
        let n = Graph.n g in
        let module U = Ssreset_unison.Unison.Make (struct
          let k = (2 * n) + 2
        end) in
        let gen = U.Composed.generator ~inner:U.clock_gen ~max_d:n in
        let cfg = Fault.arbitrary (rng seed) gen g in
        let r =
          Engine.run ~rng:(rng (seed + 3)) ~max_steps:200_000
            ~stop:(U.Composed.is_normal g)
            ~algorithm:U.Composed.algorithm ~graph:g
            ~daemon:(daemon_of_index seed) cfg
        in
        r.Engine.outcome = Engine.Stabilized && r.Engine.rounds <= 3 * n);
    make_test "alive-root sets only shrink (Theorem 3)"
      QCheck2.Gen.(pair graph_gen (int_range 1 1000))
      (fun (g, seed) ->
        let module U = Ssreset_unison.Unison.Make (struct
          let k = 40
        end) in
        let gen = U.Composed.generator ~inner:U.clock_gen ~max_d:8 in
        let cfg = Fault.arbitrary (rng seed) gen g in
        let trace, _ =
          Trace.record ~rng:(rng (seed + 4)) ~max_steps:80
            ~algorithm:U.Composed.algorithm ~graph:g
            ~daemon:(daemon_of_index (seed + 2)) cfg
        in
        List.for_all
          (fun (before, after, _) ->
            let broots = U.Composed.alive_roots g before in
            List.for_all
              (fun u -> List.mem u broots)
              (U.Composed.alive_roots g after))
          (Trace.steps_pairs trace)) ]

(* ---------------------------- unison properties ------------------------ *)

let unison_props =
  [ make_test "unison safety is closed from γ_init (any schedule)"
      QCheck2.Gen.(pair graph_gen (int_range 1 1000))
      (fun (g, seed) ->
        let n = Graph.n g in
        let module U = Ssreset_unison.Unison.Make (struct
          let k = n + 1
        end) in
        let ok = ref true in
        let observer ~step:_ ~moved:_ cfg =
          if not (Ssreset_unison.Checker.safety_ok ~k:U.k g cfg) then
            ok := false
        in
        let _ =
          Engine.run ~rng:(rng seed) ~max_steps:(20 * n) ~observer
            ~algorithm:U.bare ~graph:g ~daemon:(daemon_of_index seed)
            (U.gamma_init g)
        in
        !ok) ]

(* --------------------------- alliance properties ----------------------- *)

let small_graph_gen =
  QCheck2.Gen.(
    let* n = int_range 4 9 in
    let* seed = int_range 1 500 in
    return (Gen.erdos_renyi (rng seed) n 0.45))

let alliance_props =
  [ make_test ~count:40 "FGA∘SDR silent + 1-minimal on random instances"
      QCheck2.Gen.(pair small_graph_gen (int_range 0 3))
      (fun (g, which) ->
        let spec =
          List.nth
            [ Spec.dominating_set; Spec.global_offensive;
              Spec.global_defensive; Spec.global_powerful ]
            which
        in
        (not (Spec.feasible spec g))
        ||
        let module F = Ssreset_alliance.Fga.Make (struct
          let graph = g
          let spec = spec
          let ids = None
        end) in
        let gen = F.Composed.generator ~inner:F.gen ~max_d:(Graph.n g) in
        let cfg = Fault.arbitrary (rng 11) gen g in
        let r =
          Engine.run ~rng:(rng 12) ~max_steps:500_000
            ~algorithm:F.Composed.algorithm ~graph:g
            ~daemon:(daemon_of_index which) cfg
        in
        r.Engine.outcome = Engine.Terminal
        && Checker.is_one_minimal g spec
             (F.alliance_of_composed r.Engine.final));
    make_test ~count:30 "FGA output is among the brute-force 1-minimal sets"
      QCheck2.Gen.(int_range 1 300)
      (fun seed ->
        let g = Gen.erdos_renyi (rng seed) 7 0.5 in
        let spec = Spec.dominating_set in
        let module F = Ssreset_alliance.Fga.Make (struct
          let graph = g
          let spec = spec
          let ids = None
        end) in
        let r =
          Engine.run ~rng:(rng (seed + 5)) ~max_steps:200_000
            ~algorithm:F.bare ~graph:g ~daemon:(daemon_of_index seed)
            (F.gamma_init ())
        in
        r.Engine.outcome = Engine.Terminal
        && List.mem
             (Brute.mask_of_set (F.alliance r.Engine.final))
             (Brute.all_one_minimal g spec)) ]

(* --------------------------- matching properties ----------------------- *)

let matching_props =
  [ make_test ~count:40 "matching∘SDR silent + maximal on random instances"
      QCheck2.Gen.(pair graph_gen (int_range 1 1000))
      (fun (g, seed) ->
        let module M = Ssreset_matching.Matching.Make (struct
          let graph = g
          let ids = None
        end) in
        let gen = M.Composed.generator ~inner:M.gen ~max_d:(Graph.n g) in
        let cfg = Fault.arbitrary (rng seed) gen g in
        let r =
          Engine.run ~rng:(rng (seed + 6)) ~max_steps:500_000
            ~algorithm:M.Composed.algorithm ~graph:g
            ~daemon:(daemon_of_index seed) cfg
        in
        r.Engine.outcome = Engine.Terminal
        && M.is_maximal_matching (M.matching_of_composed r.Engine.final));
    make_test ~count:40 "matched pairs never unmatch along bare runs"
      QCheck2.Gen.(pair graph_gen (int_range 1 1000))
      (fun (g, seed) ->
        let module M = Ssreset_matching.Matching.Make (struct
          let graph = g
          let ids = None
        end) in
        let trace, _ =
          Trace.record ~rng:(rng seed) ~max_steps:200 ~algorithm:M.bare
            ~graph:g ~daemon:(daemon_of_index (seed + 3))
            (M.gamma_init ())
        in
        List.for_all
          (fun (before, after, _) ->
            List.for_all
              (fun pair -> List.mem pair (M.matching after))
              (M.matching before))
          (Trace.steps_pairs trace)) ]

(* ------------------------- coloring/mis properties --------------------- *)

let static_props =
  [ make_test ~count:40 "coloring∘SDR silent + proper on random instances"
      QCheck2.Gen.(pair graph_gen (int_range 1 1000))
      (fun (g, seed) ->
        let module C = Ssreset_coloring.Coloring.Make (struct
          let graph = g
          let ids = None
        end) in
        let gen = C.Composed.generator ~inner:C.gen ~max_d:(Graph.n g) in
        let cfg = Fault.arbitrary (rng seed) gen g in
        let r =
          Engine.run ~rng:(rng (seed + 7)) ~max_steps:500_000
            ~algorithm:C.Composed.algorithm ~graph:g
            ~daemon:(daemon_of_index (seed + 1)) cfg
        in
        r.Engine.outcome = Engine.Terminal
        && C.is_proper (C.coloring_of_composed r.Engine.final));
    make_test ~count:40 "colors never change once the configuration is normal"
      QCheck2.Gen.(pair graph_gen (int_range 1 1000))
      (fun (g, seed) ->
        (* silence: from a normal configuration the composition is terminal *)
        let module C = Ssreset_coloring.Coloring.Make (struct
          let graph = g
          let ids = None
        end) in
        let r =
          Engine.run ~rng:(rng seed) ~max_steps:500_000
            ~algorithm:C.Composed.algorithm ~graph:g
            ~daemon:(daemon_of_index seed)
            (C.Composed.lift (C.gamma_init ()))
        in
        r.Engine.outcome = Engine.Terminal
        && Ssreset_sim.Algorithm.is_terminal C.Composed.algorithm g
             r.Engine.final) ]

(* ------------------------ checker cross-validation --------------------- *)

let checker_props =
  [ make_test ~count:40 "Checker.is_one_minimal agrees with the brute force"
      QCheck2.Gen.(pair (int_range 1 400) (int_range 0 255))
      (fun (seed, mask) ->
        let g = Gen.erdos_renyi (rng seed) 8 0.4 in
        let spec = Spec.global_powerful in
        Checker.is_one_minimal g spec (Brute.set_of_mask ~n:8 mask)
        = Brute.is_one_minimal_mask g spec mask) ]

(* --------------------------- baseline properties ----------------------- *)

let baseline_props =
  [ make_test ~count:40 "tail-unison legitimacy matches safety + ring values"
      QCheck2.Gen.(pair graph_gen (int_range 1 1000))
      (fun (g, seed) ->
        let n = Graph.n g in
        let module T = Ssreset_unison.Tail_unison.Make (struct
          let k = (2 * n) + 2
          let alpha = n
        end) in
        let cfg = Fault.arbitrary (rng seed) T.clock_gen g in
        let legit = T.is_legitimate g cfg in
        let by_hand =
          Array.for_all (fun c -> c >= 0) cfg
          && Ssreset_unison.Checker.safety_ok ~k:T.k g cfg
        in
        legit = by_hand) ]

let () =
  Alcotest.run "properties"
    [ ("graph", graph_props);
      ("engine", engine_props);
      ("sdr", sdr_props);
      ("unison", unison_props);
      ("alliance", alliance_props);
      ("matching", matching_props);
      ("static instantiations", static_props);
      ("checker cross-validation", checker_props);
      ("baselines", baseline_props) ]
