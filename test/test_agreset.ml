open Helpers
module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Metrics = Ssreset_graph.Metrics
module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Engine = Ssreset_sim.Engine
module Fault = Ssreset_sim.Fault
module Agreset = Ssreset_agreset.Agreset

(* AGR needs weak fairness (like the Arora-Gouda original); these are the
   daemons it is specified for. *)
let fair_daemons () =
  [ Daemon.synchronous; Daemon.central_random; Daemon.round_robin;
    Daemon.distributed_random 0.4; Daemon.distributed_random 0.9;
    Daemon.locally_central_random ]

let structure_tests =
  [ test "lift builds the exact BFS tree and a quiescent wave layer"
      (fun () ->
        let g = Gen.grid 3 3 in
        let module U = Ssreset_unison.Unison.Make (struct
          let k = 20
        end) in
        let module A =
          Agreset.Make
            (U.Input)
            (struct
              let graph = g
              let root = 0
            end)
        in
        let cfg = A.lift (U.gamma_init g) in
        let bfs = Metrics.bfs_distances g 0 in
        Array.iteri
          (fun u s ->
            check_int "dist" bfs.(u) s.Agreset.dist;
            check_true "quiet"
              (s.Agreset.wst = Agreset.N && not s.Agreset.req))
          cfg;
        check_true "normal" (A.is_normal g cfg);
        check_true "tree_ok everywhere"
          (Algorithm.for_all_views g cfg ~f:(fun _ v -> A.tree_ok v));
        check (Alcotest.array Alcotest.int) "inner roundtrip"
          (U.gamma_init g) (A.inner_config cfg));
    test "Make validates the root index" (fun () ->
        let g = Gen.ring 5 in
        let module U = Ssreset_unison.Unison.Make (struct
          let k = 12
        end) in
        check_true "raises"
          (match
             let module Bad =
               Agreset.Make
                 (U.Input)
                 (struct
                   let graph = g
                   let root = 9
                 end)
             in
             Bad.lift (U.gamma_init g)
           with
          | exception Invalid_argument _ -> true
          | _ -> false)) ]

let run_tests =
  [ test "U∘AGR stabilizes from arbitrary configurations under fair daemons"
      (fun () ->
        List.iter
          (fun (name, g) ->
            let n = Graph.n g in
            let module U = Ssreset_unison.Unison.Make (struct
              let k = (2 * n) + 2
            end) in
            let module A =
              Agreset.Make
                (U.Input)
                (struct
                  let graph = g
                  let root = 0
                end)
            in
            let gen = A.generator ~inner:U.clock_gen in
            List.iter
              (fun daemon ->
                for seed = 1 to 2 do
                  let cfg = Fault.arbitrary (rng (seed * 17)) gen g in
                  let r =
                    Engine.run ~rng:(rng seed) ~max_steps:2_000_000
                      ~stop:(A.is_normal g) ~algorithm:A.algorithm ~graph:g
                      ~daemon cfg
                  in
                  if r.Engine.outcome <> Engine.Stabilized then
                    Alcotest.failf "%s under %s did not stabilize" name
                      (Daemon.name daemon)
                done)
              (fair_daemons ()))
          (graph_zoo ()));
    test "the stabilized tree is the true BFS tree" (fun () ->
        let g = Gen.lollipop 4 5 in
        let n = Graph.n g in
        let module U = Ssreset_unison.Unison.Make (struct
          let k = (2 * n) + 2
        end) in
        let module A =
          Agreset.Make
            (U.Input)
            (struct
              let graph = g
              let root = 0
            end)
        in
        let gen = A.generator ~inner:U.clock_gen in
        let cfg = Fault.arbitrary (rng 8) gen g in
        let r =
          Engine.run ~rng:(rng 9) ~max_steps:2_000_000 ~stop:(A.is_normal g)
            ~algorithm:A.algorithm ~graph:g
            ~daemon:(Daemon.distributed_random 0.5) cfg
        in
        check_true "stabilized" (r.Engine.outcome = Engine.Stabilized);
        let bfs = Metrics.bfs_distances g 0 in
        Array.iteri
          (fun u s -> check_int "bfs dist" bfs.(u) s.Agreset.dist)
          r.Engine.final);
    test "after stabilization the unison specification holds" (fun () ->
        let g = Gen.ring 8 in
        let module U = Ssreset_unison.Unison.Make (struct
          let k = 18
        end) in
        let module A =
          Agreset.Make
            (U.Input)
            (struct
              let graph = g
              let root = 0
            end)
        in
        let gen = A.generator ~inner:U.clock_gen in
        let cfg = Fault.arbitrary (rng 4) gen g in
        let r =
          Engine.run ~rng:(rng 5) ~max_steps:2_000_000 ~stop:(A.is_normal g)
            ~algorithm:A.algorithm ~graph:g ~daemon:Daemon.round_robin
            cfg
        in
        check_true "stabilized" (r.Engine.outcome = Engine.Stabilized);
        let violations = ref 0 in
        let observer ~step:_ ~moved:_ cfg =
          if
            not
              (Ssreset_unison.Checker.safety_ok ~k:U.k g (A.inner_config cfg))
          then incr violations
        in
        let suffix =
          Engine.run ~rng:(rng 6) ~max_steps:200 ~observer
            ~algorithm:A.algorithm ~graph:g ~daemon:Daemon.round_robin
            r.Engine.final
        in
        check_true "kept running" (suffix.Engine.steps > 0);
        check_int "safety kept" 0 !violations);
    test "regression: AGR livelocks under the unfair central-first daemon \
          (the weakness SDR eliminates)" (fun () ->
        let g = Gen.ring 9 in
        let module U = Ssreset_unison.Unison.Make (struct
          let k = 20
        end) in
        let module A =
          Agreset.Make
            (U.Input)
            (struct
              let graph = g
              let root = 0
            end)
        in
        let gen = A.generator ~inner:U.clock_gen in
        let cfg = Fault.arbitrary (rng 13) gen g in
        let r =
          Engine.run ~rng:(rng 1) ~max_steps:100_000 ~stop:(A.is_normal g)
            ~algorithm:A.algorithm ~graph:g ~daemon:Daemon.central_first cfg
        in
        check_true "step budget exhausted (livelock)"
          (r.Engine.outcome = Engine.Step_limit);
        (* same instance, same schedule: U∘SDR stabilizes well within 3n *)
        let sdr_gen = U.Composed.generator ~inner:U.clock_gen ~max_d:9 in
        let sdr_cfg = Fault.arbitrary (rng 13) sdr_gen g in
        let sdr =
          Engine.run ~rng:(rng 1) ~max_steps:100_000
            ~stop:(U.Composed.is_normal g) ~algorithm:U.Composed.algorithm
            ~graph:g ~daemon:Daemon.central_first sdr_cfg
        in
        check_true "SDR stabilizes" (sdr.Engine.outcome = Engine.Stabilized);
        check_true "within 3n rounds" (sdr.Engine.rounds <= 27)) ]

let () =
  Alcotest.run "agreset"
    [ ("structure", structure_tests); ("runs", run_tests) ]
