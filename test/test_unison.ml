open Helpers
module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Metrics = Ssreset_graph.Metrics
module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Engine = Ssreset_sim.Engine
module Fault = Ssreset_sim.Fault
module Trace = Ssreset_sim.Trace
module Unison = Ssreset_unison.Unison
module Tail = Ssreset_unison.Tail_unison
module Checker = Ssreset_unison.Checker

module U10 = Unison.Make (struct
  let k = 12
end)

let view_of g cfg u = Algorithm.view g cfg u

(* ------------------------------ algorithm U ---------------------------- *)

let input_tests =
  [ test "Make rejects K < 2" (fun () ->
        check_true "raises"
          (match
             let module Bad = Unison.Make (struct
               let k = 1
             end) in
             Bad.k
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "P_ICorrect accepts the ±1 window including wraparound" (fun () ->
        let g = Gen.path 3 in
        let ok cfg u = U10.Input.p_icorrect (view_of g cfg u) in
        check_true "same" (ok [| 4; 4; 4 |] 1);
        check_true "ahead" (ok [| 4; 5; 4 |] 1);
        check_true "behind" (ok [| 4; 3; 4 |] 1);
        check_true "wrap 0/11" (ok [| 0; 11; 0 |] 1);
        check_false "gap 2" (ok [| 4; 6; 4 |] 1);
        check_false "gap far" (ok [| 0; 5; 0 |] 1));
    test "P_reset and reset agree (Requirement 2e)" (fun () ->
        check_true "reset" (U10.Input.p_reset (U10.Input.reset 7));
        check_true "zero" (U10.Input.p_reset 0);
        check_false "nonzero" (U10.Input.p_reset 3));
    test "increment guard requires all neighbors at c or c+1" (fun () ->
        let g = Gen.path 3 in
        let enabled cfg u = Algorithm.is_enabled U10.bare (view_of g cfg u) in
        check_true "all equal" (enabled [| 2; 2; 2 |] 1);
        check_true "all ahead" (enabled [| 3; 2; 3 |] 1);
        check_false "one behind" (enabled [| 1; 2; 3 |] 1);
        check_false "gap" (enabled [| 4; 2; 2 |] 1));
    test "increment wraps modulo K" (fun () ->
        let g = Gen.path 2 in
        match Algorithm.enabled_rule U10.bare (view_of g [| 11; 11 |] 0) with
        | Some r ->
            check_int "wrap" 0 (r.Algorithm.action (view_of g [| 11; 11 |] 0))
        | None -> Alcotest.fail "rule should be enabled");
    test "gamma_init is all zeros and clock_gen stays in domain" (fun () ->
        let g = Gen.ring 7 in
        check_true "zeros" (Array.for_all (fun c -> c = 0) (U10.gamma_init g));
        for seed = 1 to 40 do
          let c = U10.clock_gen (rng seed) 0 in
          check_true "domain" (c >= 0 && c < 12)
        done) ]

(* ------------------------- bare U from γ_init -------------------------- *)

let bare_tests =
  [ test "safety and liveness from γ_init under every daemon (Thm 5)"
      (fun () ->
        List.iter
          (fun (name, g) ->
            List.iter
              (fun daemon ->
                let n = Graph.n g in
                let module U = Unison.Make (struct
                  let k = (2 * n) + 2
                end) in
                let monitor = Checker.create_monitor ~k:U.k g in
                let r =
                  Engine.run ~rng:(rng 3) ~max_steps:(60 * n)
                    ~observer:(Checker.observe_bare monitor)
                    ~algorithm:U.bare ~graph:g ~daemon (U.gamma_init g)
                in
                check_true "never terminal"
                  (r.Engine.outcome = Engine.Step_limit);
                check_int "no violation" 0 (Checker.safety_violations monitor))
              [ Daemon.synchronous; Daemon.round_robin;
                Daemon.distributed_random 0.7 ];
            (* liveness proxy under a fair-ish daemon *)
            let n = Graph.n g in
            let module U = Unison.Make (struct
              let k = (2 * n) + 2
            end) in
            let monitor = Checker.create_monitor ~k:U.k g in
            let _ =
              Engine.run ~rng:(rng 4) ~max_steps:(80 * n)
                ~observer:(Checker.observe_bare monitor)
                ~algorithm:U.bare ~graph:g ~daemon:Daemon.round_robin
                (U.gamma_init g)
            in
            if Checker.min_increments monitor = 0 then
              Alcotest.failf "%s: some process never incremented" name)
          (graph_zoo ()));
    test "legitimate configurations are never terminal (Lemma 18)" (fun () ->
        let g = Gen.ring 8 in
        let module U = Unison.Make (struct
          let k = 18
        end) in
        let trace, _ =
          Trace.record ~rng:(rng 5) ~max_steps:200 ~algorithm:U.bare ~graph:g
            ~daemon:Daemon.central_random (U.gamma_init g)
        in
        List.iter
          (fun cfg ->
            check_false "not terminal" (Algorithm.is_terminal U.bare g cfg))
          (Trace.configs trace));
    test "P_ICorrect is closed by bare U (Lemma 17)" (fun () ->
        let g = Gen.erdos_renyi (rng 21) 10 0.3 in
        for seed = 1 to 10 do
          let cfg = Fault.arbitrary (rng seed) U10.clock_gen g in
          let trace, _ =
            Trace.record ~rng:(rng (seed + 50)) ~max_steps:200
              ~algorithm:U10.bare ~graph:g
              ~daemon:(Daemon.distributed_random 0.5) cfg
          in
          check_true "closed"
            (closed_along_trace ~graph:g
               ~prop:(fun _ v -> U10.Input.p_icorrect v)
               trace)
        done);
    test "bare U from a broken configuration freezes within 3D moves per \
          process (Lemma 20)" (fun () ->
        List.iter
          (fun (name, g) ->
            let n = Graph.n g in
            let module U = Unison.Make (struct
              let k = (2 * n) + 2
            end) in
            let diam = Metrics.diameter g in
            (* plant an irreparable inconsistency on edge (0, v0) *)
            let cfg = U.gamma_init g in
            let v0 = (Graph.neighbors g 0).(0) in
            cfg.(0) <- 0;
            cfg.(v0) <- 5;
            List.iter
              (fun daemon ->
                let r =
                  Engine.run ~rng:(rng 6) ~max_steps:100_000
                    ~algorithm:U.bare ~graph:g ~daemon (Array.copy cfg)
                in
                if r.Engine.outcome <> Engine.Terminal then
                  Alcotest.failf "%s: expected freeze" name;
                Array.iteri
                  (fun u moves ->
                    if moves > 3 * diam then
                      Alcotest.failf "%s: process %d made %d > 3D moves" name
                        u moves)
                  r.Engine.moves_per_process)
              (daemons ()))
          (graph_zoo ()));
    test "the incremental safety probe counts exactly the unsafe steps"
      (fun () ->
        (* Bare U never repairs nor breaks an edge, so drive the probe with
           tail-unison runs from arbitrary clocks, whose edges go from unsafe
           to safe, seen through the projection of each clock on the ring
           [0, K) (the probe's domain; it changes only where a clock
           changed, so the movers stay an honest [moved] list): the
           violation count must equal a full [safety_ok] count. *)
        let steps = ref 0 and unsafe = ref 0 in
        List.iter
          (fun (name, g) ->
            let n = Graph.n g in
            let module T = Tail.Make (struct
              let k = (2 * n) + 2
              let alpha = n
            end) in
            List.iter
              (fun (dname, daemon) ->
                let monitor = Checker.create_monitor ~k:T.k g in
                let unsafe_steps = ref 0 in
                let observer ~step ~moved cfg =
                  let clocks =
                    Array.map (fun c -> ((c mod T.k) + T.k) mod T.k) cfg
                  in
                  Checker.observe_bare monitor ~step ~moved clocks;
                  if not (Checker.safety_ok ~k:T.k g clocks) then
                    incr unsafe_steps
                in
                let r =
                  Engine.run ~rng:(rng 8) ~max_steps:5_000 ~observer
                    ~stop:(T.is_legitimate g) ~algorithm:T.algorithm ~graph:g
                    ~daemon
                    (Fault.arbitrary (rng 7) T.clock_gen g)
                in
                check_int
                  (Printf.sprintf "%s/%s: violations" name dname)
                  !unsafe_steps
                  (Checker.safety_violations monitor);
                steps := !steps + r.Engine.steps;
                unsafe := !unsafe + !unsafe_steps)
              Daemon.registry)
          (graph_zoo ());
        check_true "both safe and unsafe steps"
          (0 < !unsafe && !unsafe < !steps)) ]

(* ------------------------------ U ∘ SDR -------------------------------- *)

let composed_tests =
  [ test "stabilizes with K = n+1 (smallest legal period)" (fun () ->
        let g = Gen.ring 9 in
        let module U = Unison.Make (struct
          let k = 10
        end) in
        let gen = U.Composed.generator ~inner:U.clock_gen ~max_d:9 in
        List.iter
          (fun daemon ->
            for seed = 1 to 3 do
              let cfg = Fault.arbitrary (rng seed) gen g in
              let r =
                Engine.run ~rng:(rng (seed * 3)) ~max_steps:200_000
                  ~stop:(U.Composed.is_normal g)
                  ~algorithm:U.Composed.algorithm ~graph:g ~daemon cfg
              in
              check_true "stabilized" (r.Engine.outcome = Engine.Stabilized)
            done)
          (daemons ()));
    test "after stabilization the specification holds forever (long suffix)"
      (fun () ->
        let g = Gen.grid 3 3 in
        let n = Graph.n g in
        let module U = Unison.Make (struct
          let k = (2 * n) + 2
        end) in
        let gen = U.Composed.generator ~inner:U.clock_gen ~max_d:n in
        let cfg = Fault.arbitrary (rng 8) gen g in
        let r =
          Engine.run ~rng:(rng 9) ~max_steps:200_000
            ~stop:(U.Composed.is_normal g)
            ~algorithm:U.Composed.algorithm ~graph:g
            ~daemon:(Daemon.distributed_random 0.5) cfg
        in
        check_true "stabilized" (r.Engine.outcome = Engine.Stabilized);
        let monitor = Checker.create_monitor ~k:U.k g in
        let violations = ref 0 in
        let observer ~step ~moved cfg =
          Checker.observe_composed monitor ~step ~moved cfg;
          if not (Checker.safety_ok ~k:U.k g (U.Composed.inner_config cfg))
          then incr violations
        in
        let suffix =
          Engine.run ~rng:(rng 10) ~max_steps:(60 * n) ~observer
            ~algorithm:U.Composed.algorithm ~graph:g
            ~daemon:Daemon.round_robin r.Engine.final
        in
        check_true "ran" (suffix.Engine.steps > 0);
        check_int "safety kept" 0 !violations;
        check_true "liveness" (Checker.min_increments monitor > 0));
    test "stabilization moves stay within (3D+3)n² + (3D+1)(n-1) + 1 \
          (Theorem 6's explicit constant)" (fun () ->
        List.iter
          (fun (name, g) ->
            let n = Graph.n g in
            let diam = Metrics.diameter g in
            let module U = Unison.Make (struct
              let k = (2 * n) + 2
            end) in
            let gen = U.Composed.generator ~inner:U.clock_gen ~max_d:n in
            let bound =
              (((3 * diam) + 3) * n * n) + (((3 * diam) + 1) * (n - 1)) + 1
            in
            List.iter
              (fun daemon ->
                for seed = 1 to 2 do
                  let cfg = Fault.arbitrary (rng (seed * 11)) gen g in
                  let r =
                    Engine.run ~rng:(rng seed) ~max_steps:500_000
                      ~stop:(U.Composed.is_normal g)
                      ~algorithm:U.Composed.algorithm ~graph:g ~daemon cfg
                  in
                  check_true "stabilized"
                    (r.Engine.outcome = Engine.Stabilized);
                  if r.Engine.moves > bound then
                    Alcotest.failf "%s: %d moves > bound %d" name
                      r.Engine.moves bound
                done)
              (daemons ()))
          (graph_zoo ())) ]

(* ----------------------------- tail unison ----------------------------- *)

module T8 = Tail.Make (struct
  let k = 18
  let alpha = 8
end)

let tail_tests =
  [ test "Make validates parameters" (fun () ->
        check_true "K"
          (match
             let module Bad = Tail.Make (struct
               let k = 3
               let alpha = 4
             end) in
             Bad.k
           with
          | exception Invalid_argument _ -> true
          | _ -> false);
        check_true "alpha"
          (match
             let module Bad = Tail.Make (struct
               let k = 10
               let alpha = 0
             end) in
             Bad.alpha
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "compatibility relation" (fun () ->
        check_true "ring ±1" (T8.compatible 4 5);
        check_true "ring wrap" (T8.compatible 0 17);
        check_false "ring gap" (T8.compatible 3 7);
        check_true "entry zone" (T8.compatible 1 (-3));
        check_false "ahead of tail" (T8.compatible 2 (-1));
        check_true "tail-tail" (T8.compatible (-5) (-1)));
    test "γ_init is legitimate; legitimacy requires ring values" (fun () ->
        let g = Gen.ring 6 in
        check_true "init" (T8.is_legitimate g (T8.gamma_init g));
        check_false "tail value" (T8.is_legitimate g [| 0; 0; -1; 0; 0; 0 |]);
        check_false "gap" (T8.is_legitimate g [| 0; 2; 0; 0; 0; 0 |]));
    test "stabilizes from arbitrary configurations on the zoo" (fun () ->
        List.iter
          (fun (name, g) ->
            let n = Graph.n g in
            let module T = Tail.Make (struct
              let k = (2 * n) + 2
              let alpha = n
            end) in
            List.iter
              (fun daemon ->
                for seed = 1 to 2 do
                  let cfg = Fault.arbitrary (rng seed) T.clock_gen g in
                  let r =
                    Engine.run ~rng:(rng (seed + 7)) ~max_steps:2_000_000
                      ~stop:(T.is_legitimate g)
                      ~algorithm:T.algorithm ~graph:g ~daemon cfg
                  in
                  if r.Engine.outcome <> Engine.Stabilized then
                    Alcotest.failf "%s under %s did not stabilize" name
                      (Daemon.name daemon)
                done)
              (daemons ()))
          (graph_zoo ()));
    test "legitimacy is closed and safety holds afterwards" (fun () ->
        let g = Gen.ring 8 in
        let module T = Tail.Make (struct
          let k = 18
          let alpha = 8
        end) in
        let cfg = Fault.arbitrary (rng 2) T.clock_gen g in
        let r =
          Engine.run ~rng:(rng 3) ~max_steps:2_000_000
            ~stop:(T.is_legitimate g) ~algorithm:T.algorithm ~graph:g
            ~daemon:(Daemon.distributed_random 0.5) cfg
        in
        check_true "stabilized" (r.Engine.outcome = Engine.Stabilized);
        let ok = ref true in
        let observer ~step:_ ~moved:_ cfg =
          if not (T.is_legitimate g cfg) then ok := false
        in
        let _ =
          Engine.run ~rng:(rng 4) ~max_steps:300 ~observer
            ~algorithm:T.algorithm ~graph:g ~daemon:Daemon.round_robin
            r.Engine.final
        in
        check_true "closed" !ok);
    test "tail rules are mutually exclusive" (fun () ->
        let g = Gen.ring 6 in
        for seed = 1 to 40 do
          let cfg = Fault.arbitrary (rng seed) T8.clock_gen g in
          for u = 0 to Graph.n g - 1 do
            let enabled =
              Algorithm.exclusive_rules T8.algorithm (view_of g cfg u)
            in
            if List.length enabled > 1 then
              Alcotest.failf "rules %s enabled together"
                (String.concat "," enabled)
          done
        done) ]

(* --------------------------- min-unison [20] --------------------------- *)

module MU = Ssreset_unison.Min_unison

let min_unison_tests =
  [ test "Make validates K" (fun () ->
        check_true "raises"
          (match
             let module Bad = MU.Make (struct
               let k = 2
               let alpha = 1
             end) in
             Bad.k
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "γ_init legitimate, reset fires only on incompatibility" (fun () ->
        let g = Gen.path 3 in
        let module M = MU.Make (struct
          let k = 50
          let alpha = 2
        end) in
        check_true "init" (M.is_legitimate g (M.gamma_init g));
        check_false "gap" (M.is_legitimate g [| 0; 2; 2 |]);
        let rule cfg u =
          Option.map
            (fun (r : int Algorithm.rule) -> r.Algorithm.rule_name)
            (Algorithm.enabled_rule M.algorithm (Algorithm.view g cfg u))
        in
        check (Alcotest.option Alcotest.string) "tick" (Some MU.rule_tick)
          (rule [| 1; 1; 1 |] 1);
        check (Alcotest.option Alcotest.string) "zero" (Some MU.rule_zero)
          (rule [| 1; 5; 5 |] 1);
        (* incompatibility pushes even a clock at 0 below the ring: the
           in-ring reset of the first reconstruction is what livelocked *)
        check (Alcotest.option Alcotest.string) "zero from 0"
          (Some MU.rule_zero)
          (rule [| 5; 0; 5 |] 1);
        check (Alcotest.option Alcotest.string) "climb" (Some MU.rule_climb)
          (rule [| 5; -2; 5 |] 1);
        (* at the ring door (-1) a process waits until its whole
           neighborhood is back at 0 or 1 *)
        check (Alcotest.option Alcotest.string) "waits at ring door" None
          (rule [| 5; -1; 5 |] 1));
    test "stabilizes from arbitrary configurations on the zoo" (fun () ->
        List.iter
          (fun (name, g) ->
            let n = Graph.n g in
            let module M = MU.Make (struct
              let k = (n * n) + 1
              let alpha = max 1 (n - 2)
            end) in
            List.iter
              (fun daemon ->
                for seed = 1 to 2 do
                  let cfg = Fault.arbitrary (rng seed) M.clock_gen g in
                  let r =
                    Engine.run ~rng:(rng (seed + 9)) ~max_steps:2_000_000
                      ~stop:(M.is_legitimate g) ~algorithm:M.algorithm
                      ~graph:g ~daemon cfg
                  in
                  if r.Engine.outcome <> Engine.Stabilized then
                    Alcotest.failf "%s under %s did not stabilize" name
                      (Daemon.name daemon)
                done)
              (daemons ()))
          (graph_zoo ()));
    test "legitimacy is closed under further steps" (fun () ->
        let g = Gen.ring 7 in
        let module M = MU.Make (struct
          let k = 50
          let alpha = 5
        end) in
        let ok = ref true in
        let observer ~step:_ ~moved:_ cfg =
          if not (M.is_legitimate g cfg) then ok := false
        in
        let _ =
          Engine.run ~rng:(rng 5) ~max_steps:300 ~observer
            ~algorithm:M.algorithm ~graph:g ~daemon:Daemon.round_robin
            (M.gamma_init g)
        in
        check_true "closed" !ok) ]

let () =
  Alcotest.run "unison"
    [ ("algorithm U", input_tests);
      ("bare U", bare_tests);
      ("U∘SDR", composed_tests);
      ("tail baseline", tail_tests);
      ("min-unison baseline", min_unison_tests) ]
