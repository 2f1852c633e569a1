(* Scheduler equivalence and pool determinism.

   The engine's incremental scheduler — dirty-set refresh, enabled bitset,
   stamp-based round accounting — must be bit-identical to a full-rescan
   reference that rebuilds the enabled set from scratch every step, selects
   with the list-based reference daemons and recounts rounds by §2.4: same
   outcome, step, move and round counts, same per-rule and per-process
   tallies, same final configuration — on every registered algorithm, under
   every daemon of the registry, across many seeds.  And Pool.map_* must
   return the same values (and surface the same error) for any jobs
   count. *)

module Engine = Ssreset_sim.Engine
module Daemon = Ssreset_sim.Daemon
module Algorithm = Ssreset_sim.Algorithm
module Pool = Ssreset_sim.Pool
module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Registry = Ssreset_check.Registry
module Finite = Ssreset_check.Finite
module Experiments = Ssreset_expt.Experiments
module Ref_daemon = Helpers.Ref_daemon

(* ------------------------ full vs incremental ------------------------- *)

let seeds = 20
let graphs () = [ Gen.ring 5; Gen.erdos_renyi (Random.State.make [| 9 |]) 6 0.4 ]

(* Compare every field of the two results except wall_s (the only field
   the two paths may legitimately disagree on). *)
let same_result equal (a : _ Engine.result) (b : _ Engine.result) =
  a.Engine.outcome = b.Engine.outcome
  && a.Engine.steps = b.Engine.steps
  && a.Engine.moves = b.Engine.moves
  && a.Engine.rounds = b.Engine.rounds
  && a.Engine.moves_per_rule = b.Engine.moves_per_rule
  && a.Engine.moves_per_process = b.Engine.moves_per_process
  && Array.length a.Engine.final = Array.length b.Engine.final
  && Array.for_all2 equal a.Engine.final b.Engine.final

let named_daemon name = List.assoc name Daemon.registry

(* The full-rescan reference: every step rescans every guard, selects with
   the reference daemon over the sorted enabled list, fires the movers on
   the pre-step configuration, and counts rounds by §2.4 — a round ends
   once every process enabled at its start has moved or been neutralized
   (enabled before a step, disabled after it). *)
let full_rescan_run ~rng ~max_steps ~(algorithm : _ Algorithm.t) ~graph
    ~daemon cfg0 =
  let n = Graph.n graph in
  let daemon = Ref_daemon.of_daemon daemon in
  let cfg = Array.copy cfg0 in
  let table () =
    Array.init n (fun u ->
        Algorithm.enabled_rule algorithm (Algorithm.view graph cfg u))
  in
  let enabled_of t =
    List.filter (fun u -> t.(u) <> None) (List.init n Fun.id)
  in
  let moves_per_process = Array.make n 0 in
  let per_rule = Hashtbl.create 8 in
  let steps = ref 0 and moves = ref 0 in
  let rounds = ref 0 and steps_in_round = ref 0 in
  let t = ref (table ()) in
  let pending = ref (enabled_of !t) in
  let outcome = ref Engine.Step_limit in
  (try
     while !steps < max_steps do
       match enabled_of !t with
       | [] ->
           outcome := Engine.Terminal;
           raise Exit
       | enabled ->
           let before = !t in
           let ctx =
             { Ref_daemon.step = !steps; graph; enabled;
               rule_name =
                 (fun u -> (Option.get before.(u)).Algorithm.rule_name) }
           in
           let chosen = daemon.Ref_daemon.select rng ctx in
           Ref_daemon.check_selection ctx chosen;
           let posts =
             List.map
               (fun u ->
                 let r = Option.get before.(u) in
                 (u, r.Algorithm.action (Algorithm.view graph cfg u),
                  r.Algorithm.rule_name))
               chosen
           in
           List.iter
             (fun (u, post, name) ->
               cfg.(u) <- post;
               moves_per_process.(u) <- moves_per_process.(u) + 1;
               Hashtbl.replace per_rule name
                 (1 + Option.value ~default:0 (Hashtbl.find_opt per_rule name)))
             posts;
           incr steps;
           incr steps_in_round;
           moves := !moves + List.length chosen;
           t := table ();
           pending :=
             List.filter
               (fun u -> (not (List.mem u chosen)) && !t.(u) <> None)
               !pending;
           if !pending = [] then begin
             incr rounds;
             steps_in_round := 0;
             pending := enabled_of !t
           end
     done
   with Exit -> ());
  {
    Engine.outcome = !outcome;
    final = cfg;
    steps = !steps;
    moves = !moves;
    moves_per_process;
    moves_per_rule =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_rule []);
    rounds = (!rounds + if !steps_in_round > 0 then 1 else 0);
    wall_s = 0.;
  }

let scheduler_equivalence_case (entry : Registry.entry) =
  Alcotest.test_case
    (Printf.sprintf "%s: full ≡ incremental (every daemon, %d seeds)"
       entry.Registry.name seeds)
    `Quick
    (fun () ->
      List.iter
        (fun g ->
          if Graph.n g >= entry.Registry.min_n then begin
            let module F = (val entry.Registry.instance g : Finite.FINITE) in
            let random_cfg rng =
              Array.init (Graph.n F.graph) (fun u ->
                  let dom = F.domain u in
                  List.nth dom (Random.State.int rng (List.length dom)))
            in
            let run_with run ~daemon_name ~seed cfg =
              run
                ~rng:(Random.State.make [| seed |])
                ~max_steps:2_000 ~algorithm:F.algorithm ~graph:F.graph
                ~daemon:(named_daemon daemon_name) (Array.copy cfg)
            in
            List.iter
              (fun daemon_name ->
                for seed = 1 to seeds do
                  let cfg = random_cfg (Random.State.make [| seed; 77 |]) in
                  let full = run_with full_rescan_run ~daemon_name ~seed cfg in
                  let inc =
                    run_with
                      (fun ~rng ~max_steps ~algorithm ~graph ~daemon cfg ->
                        Engine.run ~rng ~max_steps ~algorithm ~graph ~daemon
                          cfg)
                      ~daemon_name ~seed cfg
                  in
                  if
                    not
                      (same_result F.algorithm.Ssreset_sim.Algorithm.equal
                         full inc)
                  then
                    Alcotest.failf
                      "%s under %s, seed %d: schedulers diverged \
                       (full: %d steps %d moves %d rounds; incremental: %d \
                       steps %d moves %d rounds)"
                      F.name daemon_name seed full.Engine.steps
                      full.Engine.moves full.Engine.rounds inc.Engine.steps
                      inc.Engine.moves inc.Engine.rounds
                done)
              Daemon.names
          end)
        (graphs ()))

(* Regression: rng-less runs used to share a module-level Random.State, so a
   run's result depended on what other runs executed before it.  Now each
   rng-less run derives a fresh state from ?seed, so interleaving other work
   must not change anything. *)
let rngless_runs_are_order_independent () =
  let entry = List.hd Registry.entries in
  let g = Gen.ring 5 in
  let module F = (val entry.Registry.instance g : Finite.FINITE) in
  let cfg =
    Array.init (Graph.n F.graph) (fun u -> List.hd (F.domain u))
  in
  let go () =
    Engine.run ~max_steps:500 ~algorithm:F.algorithm ~graph:F.graph
      ~daemon:(named_daemon "distributed-random")
      (Array.copy cfg)
  in
  let isolated = go () in
  (* interleave two other rng-less runs, then repeat *)
  ignore (Engine.run ~seed:99 ~max_steps:100 ~algorithm:F.algorithm
            ~graph:F.graph ~daemon:(named_daemon "central-random")
            (Array.copy cfg));
  ignore (Engine.step ~algorithm:F.algorithm ~graph:F.graph
            ~daemon:(named_daemon "central-random") ~step_index:0
            (Array.copy cfg));
  let interleaved = go () in
  Alcotest.(check bool) "same result regardless of surrounding runs" true
    (same_result F.algorithm.Ssreset_sim.Algorithm.equal isolated interleaved)

let scheduler_tests =
  List.map scheduler_equivalence_case Registry.entries
  @ [ Alcotest.test_case "rng-less runs are order-independent (?seed, no \
                          shared state)"
        `Quick rngless_runs_are_order_independent ]

(* ------------------------- multi-block selection ----------------------- *)

(* The registry graphs above have n ≤ 6, inside one 1024-node block of the
   enabled bitset.  Here [Daemon.select] meets enabled sets spread over
   many blocks — clustered runs, sparse members, every other block empty —
   and must match the list reference draw for draw: the same processes
   and the RNG left in the same state after every step. *)
let multi_block_seeds = 200

let enabled_pattern r n = function
  | `Clustered ->
      let runs =
        List.init 3 (fun _ ->
            let lo = Random.State.int r n in
            (lo, min n (lo + 1 + Random.State.int r 600)))
      in
      List.filter
        (fun u ->
          List.exists (fun (lo, hi) -> u >= lo && u < hi) runs
          && Random.State.float r 1.0 < 0.9)
        (List.init n Fun.id)
  | `Sparse ->
      List.filter (fun _ -> Random.State.float r 1.0 < 0.002)
        (List.init n Fun.id)
  | `Empty_blocks ->
      let parity = Random.State.int r 2 in
      List.filter
        (fun u -> (u lsr 10) land 1 = parity && Random.State.float r 1.0 < 0.3)
        (List.init n Fun.id)

let multi_block_select_matches_reference () =
  List.iter
    (fun n ->
      let graph = Gen.ring n in
      List.iter
        (fun (pname, pattern) ->
          for seed = 1 to multi_block_seeds do
            let r = Random.State.make [| seed; n; 31 |] in
            let enabled =
              match enabled_pattern r n pattern with
              | [] -> [ Random.State.int r n ]
              | l -> l
            in
            let count = List.length enabled in
            let member = Array.make n false in
            List.iter (fun u -> member.(u) <- true) enabled;
            let rec outside () =
              let u = Random.State.int r n in
              if member.(u) && count < n then outside () else u
            in
            let inside = List.nth enabled (Random.State.int r count) in
            (* A one-member first step moves the round-robin cursor to a
               random place, so later steps wrap across blocks. *)
            let steps =
              [ Random.State.int r n ] :: List.init 3 (fun _ -> enabled)
            in
            let daemons =
              [ Daemon.central_random; Daemon.central_last;
                Daemon.starve inside; Daemon.starve (outside ());
                Daemon.round_robin ]
            in
            List.iter
              (fun d ->
                let reference = Ref_daemon.of_daemon d in
                let cursor = ref 0 in
                let rng_new = Random.State.make [| seed |]
                and rng_ref = Random.State.make [| seed |] in
                List.iteri
                  (fun k en ->
                    let ctx =
                      { Ref_daemon.step = k; graph; enabled = en;
                        rule_name = (fun _ -> "r") }
                    in
                    let want = reference.Ref_daemon.select rng_ref ctx in
                    let got = Helpers.select ~cursor d rng_new graph en in
                    let where =
                      Printf.sprintf "%s n=%d %s seed=%d step=%d"
                        (Daemon.name d) n pname seed k
                    in
                    Alcotest.(check (list int)) where want got;
                    Alcotest.(check int) (where ^ ": rng state")
                      (Random.State.bits rng_ref) (Random.State.bits rng_new))
                  steps)
              daemons
          done)
        [ ("clustered", `Clustered); ("sparse", `Sparse);
          ("empty-blocks", `Empty_blocks) ])
    [ 1025; 5000; 70_000 ]

let multi_block_tests =
  [ Alcotest.test_case
      (Printf.sprintf
         "Daemon.select ≡ reference across bitset blocks (%d seeds)"
         multi_block_seeds)
      `Quick multi_block_select_matches_reference ]

(* ------------------------------- pool ---------------------------------- *)

let jobs_variants = [ 1; 2; 4 ]

let pool_map_identity () =
  let xs = Array.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map_array jobs=%d" jobs)
        expected
        (Pool.map_array ~jobs f xs))
    jobs_variants;
  (* more workers than elements *)
  Alcotest.(check (array int)) "jobs > n" expected (Pool.map_array ~jobs:64 f xs)

let pool_error_deterministic () =
  let xs = Array.init 16 (fun i -> i) in
  let f x = if x = 3 || x = 7 then failwith (string_of_int x) else x in
  List.iter
    (fun jobs ->
      match Pool.map_array ~jobs f xs with
      | _ -> Alcotest.failf "jobs=%d: expected Job_failed" jobs
      | exception Pool.Job_failed { index; exn = Failure msg; _ } ->
          (* smallest failing index wins, whatever the domain interleaving *)
          Alcotest.(check int)
            (Printf.sprintf "failing index under jobs=%d" jobs)
            3 index;
          Alcotest.(check string) "carried exception" "3" msg
      | exception e -> raise e)
    jobs_variants

let pool_map_list () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map_list jobs=%d" jobs)
        [ 2; 4; 6; 8; 10 ]
        (Pool.map_list ~jobs (fun x -> 2 * x) [ 1; 2; 3; 4; 5 ]))
    jobs_variants

(* The real consumer: an experiment sweep must produce identical tables for
   any jobs count. *)
let tiny_profile jobs =
  { Experiments.sizes = [ 8 ]; fga_sizes = [ 7 ]; seeds = 1;
    bare_steps_factor = 25; jobs }

let grid_tables_jobs_invariant () =
  let tables jobs = Experiments.e4_e5 (tiny_profile jobs) in
  let reference = tables 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "e4_e5 tables identical under jobs=%d" jobs)
        true
        (tables jobs = reference))
    [ 2; 4 ]

let pool_tests =
  [ Alcotest.test_case "map_array: order preserved for jobs ∈ {1,2,4,64}"
      `Quick pool_map_identity;
    Alcotest.test_case "map_array: smallest-index error wins deterministically"
      `Quick pool_error_deterministic;
    Alcotest.test_case "map_list: order preserved" `Quick pool_map_list;
    Alcotest.test_case "experiment grid: tables jobs-invariant" `Quick
      grid_tables_jobs_invariant ]

let () =
  Alcotest.run "scheduler"
    [ ("full-vs-incremental", scheduler_tests);
      ("multi-block-select", multi_block_tests); ("pool", pool_tests) ]
