(* Profiling layer: histogram accuracy and algebra, metrics snapshot/diff,
   the engine's prof-on ≡ prof-off guarantee over the whole algorithm zoo,
   streaming window emission (validated by the Proffile reader), and pool
   worker-utilization reporting. *)

module Histogram = Ssreset_obs.Histogram
module Metrics = Ssreset_obs.Metrics
module Prof = Ssreset_obs.Prof
module Proffile = Ssreset_obs.Proffile
module Sink = Ssreset_obs.Sink
module Engine = Ssreset_sim.Engine
module Daemon = Ssreset_sim.Daemon
module Pool = Ssreset_sim.Pool
module Stats = Ssreset_sim.Stats
module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Registry = Ssreset_check.Registry
module Finite = Ssreset_check.Finite
module Runner = Ssreset_expt.Runner

(* ----------------------------- histogram ------------------------------- *)

(* Log-bucketed percentiles must track the exact (numpy-style) percentile
   within the histogram's relative-error envelope: sub_bits = 5 gives
   buckets of relative width 2^-5, so the midpoint estimate is within a
   few percent of any value in the bucket.  The +1 absolute slack covers
   the small-value linear region. *)
let skewed_samples rng n =
  List.init n (fun _ ->
      (* skewed, duration-like values over several decades *)
      let e = Random.State.int rng 20 in
      (1 lsl e) + Random.State.int rng (1 + (1 lsl e)))

let test_ps = [ 0.; 10.; 50.; 90.; 99.; 100. ]

(* Dense samples: the gap between adjacent order statistics vanishes, so
   the interpolating Stats.percentile and the histogram's nearest-rank
   bucket midpoint must agree within the bucket envelope. *)
let percentile_tracks_exact () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun n ->
      let samples = skewed_samples rng n in
      let h = Histogram.create () in
      List.iter (Histogram.record h) samples;
      let floats = List.map float_of_int samples in
      List.iter
        (fun p ->
          let exact = Stats.percentile floats ~p in
          let est = Histogram.percentile h ~p in
          let tol = (exact /. 12.) +. 2.0 in
          if Float.abs (est -. exact) > tol then
            Alcotest.failf
              "n=%d p=%.0f: histogram %.1f vs exact %.1f (tolerance %.1f)" n
              p est exact tol)
        test_ps)
    [ 1_000; 5_000 ]

(* Sparse samples: interpolation between distant order statistics is a
   different estimator, so compare against the nearest-rank reference —
   the same selection rule the histogram uses (first sample at which the
   cumulative count reaches p% of the total). *)
let percentile_tracks_nearest_rank () =
  let rng = Random.State.make [| 43 |] in
  let nearest_rank sorted ~p =
    let n = Array.length sorted in
    if p <= 0. then sorted.(0)
    else
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (k - 1)))
  in
  List.iter
    (fun n ->
      let samples = skewed_samples rng n in
      let h = Histogram.create () in
      List.iter (Histogram.record h) samples;
      let sorted = Array.of_list samples in
      Array.sort compare sorted;
      List.iter
        (fun p ->
          let reference = float_of_int (nearest_rank sorted ~p) in
          let est = Histogram.percentile h ~p in
          let tol = (reference /. 16.) +. 1.0 in
          if Float.abs (est -. reference) > tol then
            Alcotest.failf
              "n=%d p=%.0f: histogram %.1f vs nearest-rank %.1f (tolerance \
               %.1f)"
              n p est reference tol)
        test_ps)
    [ 1; 2; 7; 100 ]

let percentile_extremes_are_exact () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 3; 17; 170_001; 9 ];
  Alcotest.(check int) "min" 3 (Histogram.min_value h);
  Alcotest.(check int) "max" 170_001 (Histogram.max_value h);
  Alcotest.(check (float 0.)) "p0 = min" 3. (Histogram.percentile h ~p:0.);
  (* p100 is clamped to the recorded max, never a bucket upper bound *)
  Alcotest.(check bool)
    "p100 <= max" true
    (Histogram.percentile h ~p:100. <= 170_001.)

(* Merging histograms is the union of their recordings: associative,
   commutative, and identical to recording everything into one histogram.
   to_json is a faithful canonical form, so equality of the JSON values is
   equality of the histograms. *)
let merge_is_sum () =
  let rng = Random.State.make [| 7 |] in
  let sample () = Random.State.int rng 1_000_000 in
  let xs = List.init 500 (fun _ -> sample ()) in
  let ys = List.init 300 (fun _ -> sample ()) in
  let zs = List.init 40 (fun _ -> sample ()) in
  let of_list l =
    let h = Histogram.create () in
    List.iter (Histogram.record h) l;
    h
  in
  let json h = Ssreset_obs.Json.to_string (Histogram.to_json h) in
  let all = of_list (xs @ ys @ zs) in
  (* ((x ∪ y) ∪ z) *)
  let left = of_list xs in
  Histogram.merge_into ~dst:left (of_list ys);
  Histogram.merge_into ~dst:left (of_list zs);
  (* (x ∪ (y ∪ z)) *)
  let yz = of_list ys in
  Histogram.merge_into ~dst:yz (of_list zs);
  let right = of_list xs in
  Histogram.merge_into ~dst:right yz;
  (* (z ∪ y) ∪ x — commuted *)
  let comm = of_list zs in
  Histogram.merge_into ~dst:comm (of_list ys);
  Histogram.merge_into ~dst:comm (of_list xs);
  Alcotest.(check string) "assoc left" (json all) (json left);
  Alcotest.(check string) "assoc right" (json all) (json right);
  Alcotest.(check string) "commuted" (json all) (json comm);
  Alcotest.(check int) "count" (List.length (xs @ ys @ zs))
    (Histogram.count all)

let bucket_boundaries_round_trip () =
  (* Single recorded values, including every power of two across the
     range and its neighbors: count/sum/min/max are exact, and the p50
     midpoint stays inside the value's bucket (relative error 2^-5). *)
  let values =
    List.concat_map
      (fun e -> [ (1 lsl e) - 1; 1 lsl e; (1 lsl e) + 1 ])
      [ 1; 4; 5; 6; 12; 20; 40; 61 ]
  in
  List.iter
    (fun v ->
      let h = Histogram.create () in
      Histogram.record h v;
      Alcotest.(check int) (Printf.sprintf "count %d" v) 1 (Histogram.count h);
      Alcotest.(check int) (Printf.sprintf "sum %d" v) v (Histogram.sum h);
      Alcotest.(check int) (Printf.sprintf "min %d" v) v (Histogram.min_value h);
      Alcotest.(check int) (Printf.sprintf "max %d" v) v (Histogram.max_value h);
      let p50 = Histogram.percentile h ~p:50. in
      let tol = Float.max 1. (float_of_int v /. 32.) in
      if Float.abs (p50 -. float_of_int v) > tol then
        Alcotest.failf "v=%d: p50 %.1f off by more than %.1f" v p50 tol)
    values

let json_round_trip () =
  let h = Histogram.create ~sub_bits:4 () in
  List.iter (Histogram.record h) [ 0; 1; 5; 1_000; 123_456_789 ];
  match Histogram.of_json (Histogram.to_json h) with
  | Error msg -> Alcotest.failf "of_json failed: %s" msg
  | Ok h' ->
      Alcotest.(check string)
        "identical canonical form"
        (Ssreset_obs.Json.to_string (Histogram.to_json h))
        (Ssreset_obs.Json.to_string (Histogram.to_json h'))

let histogram_tests =
  [ Alcotest.test_case "percentiles track Stats.percentile (dense samples)"
      `Quick percentile_tracks_exact;
    Alcotest.test_case "percentiles track nearest-rank (sparse samples)"
      `Quick percentile_tracks_nearest_rank;
    Alcotest.test_case "min/max/p0/p100 are exact" `Quick
      percentile_extremes_are_exact;
    Alcotest.test_case "merge is associative, commutative, lossless" `Quick
      merge_is_sum;
    Alcotest.test_case "bucket boundaries: single values stay in-bucket"
      `Quick bucket_boundaries_round_trip;
    Alcotest.test_case "to_json / of_json round-trips" `Quick json_round_trip
  ]

(* -------------------------- metrics snapshot --------------------------- *)

let snapshot_diff_no_double_count () =
  let m = Metrics.create () in
  let a = Metrics.counter m "moves.A" in
  let b = Metrics.counter m "moves.B" in
  let _g = Metrics.gauge m "some.gauge" in
  Metrics.add a 5;
  let snap0 = Metrics.snapshot m in
  Metrics.add a 2;
  Metrics.add b 3;
  Alcotest.(check (list (pair string int)))
    "only changed counters, by increment"
    [ ("moves.A", 2); ("moves.B", 3) ]
    (Metrics.diff snap0 m);
  (* windowed emission pattern: re-snapshot, then only new increments show *)
  let snap1 = Metrics.snapshot m in
  Metrics.add b 4;
  Alcotest.(check (list (pair string int)))
    "second window sees only its own delta"
    [ ("moves.B", 4) ]
    (Metrics.diff snap1 m);
  Alcotest.(check (list (pair string int)))
    "unchanged window diff is empty" []
    (Metrics.diff (Metrics.snapshot m) m)

let metrics_tests =
  [ Alcotest.test_case "snapshot/diff: increments only, no double counting"
      `Quick snapshot_diff_no_double_count ]

(* ------------------- prof-on ≡ prof-off over the zoo ------------------- *)

let same_result equal (a : _ Engine.result) (b : _ Engine.result) =
  a.Engine.outcome = b.Engine.outcome
  && a.Engine.steps = b.Engine.steps
  && a.Engine.moves = b.Engine.moves
  && a.Engine.rounds = b.Engine.rounds
  && a.Engine.moves_per_rule = b.Engine.moves_per_rule
  && a.Engine.moves_per_process = b.Engine.moves_per_process
  && Array.length a.Engine.final = Array.length b.Engine.final
  && Array.for_all2 equal a.Engine.final b.Engine.final

(* Fresh daemon per run: round-robin carries a cursor, so a shared daemon
   value would leak state from the prof-off run into the prof-on one. *)
let fresh_daemon name = List.assoc name (Daemon.registry ())

let seeds = 5

let prof_transparency_case (entry : Registry.entry) =
  Alcotest.test_case
    (Printf.sprintf "%s: prof-off ≡ prof-on (every daemon, %d seeds)"
       entry.Registry.name seeds)
    `Quick
    (fun () ->
      let g = Gen.ring (max 5 entry.Registry.min_n) in
      let module F = (val entry.Registry.instance g : Finite.FINITE) in
      let random_cfg rng =
        Array.init (Graph.n F.graph) (fun u ->
            let dom = F.domain u in
            List.nth dom (Random.State.int rng (List.length dom)))
      in
      let run ?prof ~daemon_name ~seed cfg =
        Engine.run
          ~rng:(Random.State.make [| seed |])
          ~max_steps:2_000 ?prof ~algorithm:F.algorithm ~graph:F.graph
          ~daemon:(fresh_daemon daemon_name) (Array.copy cfg)
      in
      List.iter
        (fun daemon_name ->
          for seed = 1 to seeds do
            let cfg = random_cfg (Random.State.make [| seed; 31 |]) in
            let off = run ~daemon_name ~seed cfg in
            let p = Prof.create () in
            let on = run ~prof:p ~daemon_name ~seed cfg in
            if not (same_result F.algorithm.Ssreset_sim.Algorithm.equal off on)
            then
              Alcotest.failf
                "%s under %s, seed %d: attaching a profiler changed the run"
                F.name daemon_name seed;
            (* the profiler actually counted what the engine did *)
            Alcotest.(check int)
              (Printf.sprintf "%s/%s/%d: prof steps" F.name daemon_name seed)
              on.Engine.steps (Prof.steps p);
            Alcotest.(check int)
              (Printf.sprintf "%s/%s/%d: prof moves" F.name daemon_name seed)
              on.Engine.moves (Prof.moves p)
          done)
        (Daemon.names ()))

let prof_rule_attribution () =
  (* per-rule counters must agree exactly with the engine's own tally *)
  let graph = Gen.ring 24 in
  let p = Prof.create () in
  let obs =
    Runner.run ~prof:p Runner.unison ~graph
      ~daemon:(fresh_daemon "central-random") ~seed:4 ()
  in
  let m = Prof.metrics p in
  let moves =
    List.fold_left
      (fun acc rule ->
        acc + Metrics.counter_value (Metrics.counter m ("moves." ^ rule)))
      0
      [ "U-inc"; "SDR-R"; "SDR-RB"; "SDR-RF"; "SDR-C" ]
  in
  Alcotest.(check int) "moves.R counters sum to total moves" obs.Runner.moves
    moves

let engine_tests =
  List.map prof_transparency_case Registry.entries
  @ [ Alcotest.test_case "U∘SDR: per-rule counters sum to total moves"
        `Quick prof_rule_attribution ]

(* ------------------------- streaming windows --------------------------- *)

let windows_validate_round_trip () =
  let path = Filename.temp_file "ssreset-prof-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let graph = Gen.ring 32 in
      let sink = Sink.create path in
      Sink.write sink
        (Prof.manifest ~system:"unison" ~family:"ring" ~n:32 ~m:32 ~seed:2
           ~daemon:"central-random" ~window_steps:16 ());
      let p = Prof.create ~window_steps:16 ~sink () in
      let obs =
        Runner.run ~prof:p Runner.unison ~graph
          ~daemon:(fresh_daemon "central-random") ~seed:2 ()
      in
      Prof.write_summary p;
      Sink.close sink;
      match Proffile.load_file path with
      | Error msg -> Alcotest.failf "profile rejected: %s" msg
      | Ok prof ->
          Alcotest.(check int)
            "summary steps = engine steps" obs.Runner.steps
            prof.Proffile.summary.Proffile.steps;
          Alcotest.(check bool)
            "windows were streamed" true
            (List.length prof.Proffile.windows >= 2);
          (* lap-based phases tile the loop: attributed time covers most of
             the run's wall clock *)
          let attributed = float_of_int (Proffile.phase_total_ns prof) /. 1e9 in
          let wall = prof.Proffile.summary.Proffile.wall_s in
          Alcotest.(check bool)
            (Printf.sprintf "phase coverage (%.1f%% of %.4fs)"
               (100. *. attributed /. wall)
               wall)
            true
            (wall > 0. && attributed >= 0.5 *. wall && attributed <= 1.1 *. wall))

let window_tests =
  [ Alcotest.test_case
      "profiled run streams windows that Proffile validates" `Quick
      windows_validate_round_trip ]

(* -------------------------------- pool --------------------------------- *)

let pool_reports_utilization () =
  let p = Prof.create () in
  let xs = Array.init 64 (fun i -> i) in
  let busy_work x =
    (* a few microseconds per job so busy_ns is nonzero *)
    let acc = ref x in
    for i = 1 to 20_000 do
      acc := (!acc * 31) + i
    done;
    !acc
  in
  let expected = Array.map busy_work xs in
  let got = Pool.map_array ~jobs:2 ~prof:p busy_work xs in
  Alcotest.(check (array int)) "results unchanged by profiling" expected got;
  let m = Prof.metrics p in
  Alcotest.(check int) "pool.jobs counts every job" 64
    (Metrics.counter_value (Metrics.counter m "pool.jobs"));
  let util = Metrics.gauge_value (Metrics.gauge m "pool.utilization") in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.3f in (0, 1]" util)
    true
    (util > 0. && util <= 1.0);
  let jobs_sum =
    Metrics.counter_value (Metrics.counter m "pool.worker0.jobs")
    + Metrics.counter_value (Metrics.counter m "pool.worker1.jobs")
  in
  Alcotest.(check int) "per-worker job counts partition the work" 64 jobs_sum;
  Alcotest.(check int) "job duration histogram saw every job" 64
    (Histogram.count (Prof.histogram p "pool.job_ns"))

let team_attributes_barrier_and_busy () =
  let p = Prof.create () in
  let size = 2 in
  let team = Pool.Team.create ~prof:p ~size () in
  let phases = 5 in
  let slots = Array.make size 0 in
  for _ = 1 to phases do
    Pool.Team.run team (fun w ->
        let acc = ref w in
        for i = 1 to 20_000 do
          acc := (!acc * 31) + i
        done;
        slots.(w) <- slots.(w) + !acc)
  done;
  Pool.Team.shutdown team;
  let m = Prof.metrics p in
  Alcotest.(check int) "pool.team.phases counts every barrier" phases
    (Metrics.counter_value (Metrics.counter m "pool.team.phases"));
  Alcotest.(check (float 0.001)) "pool.team.workers" (float_of_int size)
    (Metrics.gauge_value (Metrics.gauge m "pool.team.workers"));
  Alcotest.(check int) "job histogram saw every phase body" (phases * size)
    (Histogram.count (Prof.histogram p "pool.team.job_ns"));
  for w = 0 to size - 1 do
    let busy =
      Metrics.gauge_value
        (Metrics.gauge m (Printf.sprintf "pool.worker%d.busy_s" w))
    in
    Alcotest.(check bool)
      (Printf.sprintf "worker %d busy_s > 0" w)
      true (busy > 0.)
  done;
  (* Barrier waits land in the phase.barrier timer: the helper's park spans
     tile the team lifetime, so there is at least one span per phase. *)
  let barrier = Prof.timer p "phase.barrier" in
  Alcotest.(check bool) "barrier wait spans recorded" true
    (Prof.timer_count barrier >= phases);
  Alcotest.(check bool) "barrier wait time non-negative" true
    (Prof.timer_total_ns barrier >= 0)

let team_unprofiled_unchanged () =
  (* Without ?prof the team records nothing — and an unprofiled team must
     produce the same results as a profiled one. *)
  let run_team prof =
    let team = Pool.Team.create ?prof ~size:3 () in
    let out = Array.make 3 0 in
    for round = 1 to 4 do
      Pool.Team.run team (fun w -> out.(w) <- out.(w) + (round * (w + 1)))
    done;
    Pool.Team.shutdown team;
    out
  in
  let bare = run_team None in
  let p = Prof.create () in
  let profiled = run_team (Some p) in
  Alcotest.(check (array int)) "results unchanged by profiling" bare profiled

let pool_tests =
  [ Alcotest.test_case "pool ?prof reports utilization, results unchanged"
      `Quick pool_reports_utilization;
    Alcotest.test_case "team ?prof attributes busy and barrier time" `Quick
      team_attributes_barrier_and_busy;
    Alcotest.test_case "team results identical with and without ?prof" `Quick
      team_unprofiled_unchanged ]

let () =
  Alcotest.run "prof"
    [ ("histogram", histogram_tests);
      ("metrics", metrics_tests);
      ("engine", engine_tests);
      ("windows", window_tests);
      ("pool", pool_tests) ]
