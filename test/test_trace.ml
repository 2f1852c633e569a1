open Helpers
module Json = Ssreset_obs.Json
module Sink = Ssreset_obs.Sink
module Span = Ssreset_obs.Span
module Causality = Ssreset_obs.Causality
module Monitor = Ssreset_obs.Monitor
module Tracefile = Ssreset_obs.Tracefile
module Traceview = Ssreset_obs.Traceview
module Runner = Ssreset_expt.Runner

(* Toy algorithm reused from test_sim: monotone max propagation. *)
let max_prop : int Algorithm.t =
  let guard (v : int Algorithm.view) =
    Array.exists (fun x -> x > v.Algorithm.state) v.Algorithm.nbrs
  in
  let action (v : int Algorithm.view) =
    Array.fold_left max v.Algorithm.state v.Algorithm.nbrs
  in
  { Algorithm.name = "max-prop";
    rules = [ { Algorithm.rule_name = "copy"; guard; action } ];
    equal = Int.equal;
    pp = Fmt.int }

(* Relay chain: a 1 travels outward from process 0.  Exactly one process is
   enabled at any time on a path, so execution is inherently sequential and
   every move causally depends on the previous one: the happens-before
   critical path must equal the move count exactly, under every daemon. *)
let relay : int Algorithm.t =
  { Algorithm.name = "relay";
    rules =
      [ { Algorithm.rule_name = "fire";
          guard =
            (fun v ->
              v.Algorithm.state = 0
              && Array.exists (fun x -> x = 1) v.Algorithm.nbrs);
          action = (fun _ -> 1) } ];
    equal = Int.equal;
    pp = Fmt.int }

(* ------------------------------ Causality ------------------------------- *)

(* Per-step [(step, movers)] lists of a recorded run. *)
let mover_lists (tr : int Trace.t) =
  List.map (fun (e : int Trace.entry) -> (e.Trace.step, e.Trace.moved))
    tr.Trace.entries

let causality_of_run ?keep_edges ~graph ~daemon cfg =
  let tr, r =
    Trace.record ~rng:(rng 2) ~max_steps:2_000 ~algorithm:max_prop ~graph
      ~daemon (Array.copy cfg)
  in
  (Causality.build ?keep_edges ~graph (mover_lists tr), r)

let causality_tests =
  [ test "critical path never exceeds the step count" (fun () ->
        List.iter
          (fun (name, g) ->
            let n = Graph.n g in
            let cfg = Array.init n (fun i -> (i * 13) mod 17) in
            List.iter
              (fun daemon ->
                let c, r = causality_of_run ~graph:g ~daemon cfg in
                let cp = Causality.critical_length c in
                check_true
                  (Printf.sprintf "%s/%s: cp %d <= steps %d" name
                     (Daemon.name daemon) cp r.Engine.steps)
                  (cp <= r.Engine.steps);
                check_int (name ^ ": all moves counted") r.Engine.moves
                  (Causality.move_count c))
              (daemons ()))
          (graph_zoo ()));
    test "keep_edges changes memory, not the analysis" (fun () ->
        let g = Gen.grid 3 4 in
        let cfg = Array.init 12 (fun i -> (i * 3) mod 5) in
        let lean, _ =
          causality_of_run ~graph:g ~daemon:Daemon.synchronous cfg
        in
        let fat, _ =
          causality_of_run ~keep_edges:true ~graph:g
            ~daemon:Daemon.synchronous cfg
        in
        check_int "same critical length"
          (Causality.critical_length lean)
          (Causality.critical_length fat);
        check_int "same edge count" (Causality.edge_count lean)
          (Causality.edge_count fat);
        check_true "lean mode drops the edge list"
          (Causality.edges lean = []);
        check_int "fat mode keeps every edge" (Causality.edge_count fat)
          (List.length (Causality.edges fat)));
    test "critical path is a causal chain with increasing steps" (fun () ->
        let g = Gen.ring 9 in
        let cfg = Array.init 9 (fun i -> (i * 13) mod 17) in
        let c, _ =
          causality_of_run ~graph:g ~daemon:(Daemon.distributed_random 0.6)
            cfg
        in
        let path = Causality.critical_path c in
        check_int "length matches" (Causality.critical_length c)
          (List.length path);
        let rec strictly_increasing = function
          | a :: (b :: _ as rest) ->
              a.Causality.step < b.Causality.step && strictly_increasing rest
          | _ -> true
        in
        check_true "steps strictly increase along the path"
          (strictly_increasing path);
        check_int "attribution sums to the path length"
          (List.length path)
          (List.fold_left (fun a (_, k) -> a + k) 0 (Causality.attribution c)));
    test "relay chain: critical path = moves under every daemon" (fun () ->
        let n = 10 in
        let g = Gen.path n in
        List.iter
          (fun daemon ->
            let cfg = Array.make n 0 in
            cfg.(0) <- 1;
            let tr, r =
              Trace.record ~rng:(rng 4) ~algorithm:relay ~graph:g ~daemon cfg
            in
            let c = Causality.build ~graph:g (mover_lists tr) in
            check_int
              (Printf.sprintf "%s: fully sequential" (Daemon.name daemon))
              (n - 1)
              (Causality.move_count c);
            check_int
              (Printf.sprintf "%s: cp = moves" (Daemon.name daemon))
              r.Engine.moves
              (Causality.critical_length c))
          (daemons ())) ]

(* ------------------------------- Spans ---------------------------------- *)

(* The single-wave example of the paper's Figure 1, on a path of 5: root 2
   initiates, the broadcast reaches both endpoints, feedback folds back and
   every member completes. *)
let figure1_tests =
  [ test "hand-built wave reconstructs as one balanced span" (fun () ->
        let t = Span.create ~n:5 in
        Span.feed_step t ~step:0 [ (2, Span.Init) ];
        Span.feed_step t ~step:1
          [ (1, Span.Join { parent = 2; d = 1 });
            (3, Span.Join { parent = 2; d = 1 }) ];
        Span.feed_step t ~step:2
          [ (0, Span.Join { parent = 1; d = 2 });
            (4, Span.Join { parent = 3; d = 2 }) ];
        Span.feed_step t ~step:3 [ (0, Span.Feedback); (4, Span.Feedback) ];
        Span.feed_step t ~step:4 [ (1, Span.Feedback); (3, Span.Feedback) ];
        Span.feed_step t ~step:5 [ (2, Span.Feedback) ];
        Span.feed_step t ~step:6
          [ (0, Span.Complete); (1, Span.Complete); (2, Span.Complete);
            (3, Span.Complete); (4, Span.Complete) ];
        (match Span.waves t with
        | [ w ] ->
            check_int "root" 2 w.Span.root;
            check_false "not preexisting" w.Span.preexisting;
            check_int "members" 5 w.Span.members;
            check_int "depth" 2 w.Span.depth;
            check_int "r" 1 w.Span.r_moves;
            check_int "rb" 4 w.Span.rb_moves;
            check_int "rf" 5 w.Span.rf_moves;
            check_int "c" 5 w.Span.c_moves;
            check_int "completed" 0 w.Span.active;
            check_int "first step" 0 w.Span.first_step;
            check_int "last step" 6 w.Span.last_step
        | ws -> Alcotest.failf "expected 1 wave, got %d" (List.length ws));
        check_true "structurally clean"
          (Span.check ~require_complete:true t = []);
        check_true "no succession" (Span.dag t = []));
    test "re-initiation by a member creates a successor wave" (fun () ->
        let t = Span.create ~n:3 in
        Span.feed_step t ~step:0 [ (0, Span.Init) ];
        Span.feed_step t ~step:1 [ (1, Span.Join { parent = 0; d = 1 }) ];
        (* Process 1 becomes an alive root itself: it leaves wave 0 and
           starts wave 1 — a succession edge in the wave DAG. *)
        Span.feed_step t ~step:2 [ (1, Span.Init) ];
        check_int "two waves" 2 (List.length (Span.waves t));
        check_true "succession edge 0 -> 1" (Span.dag t = [ (0, 1) ]);
        check_int "process 1 now in wave 1" 1 (Span.wave_of t 1));
    test "preexisting components seed one wave each" (fun () ->
        let g = Gen.path 6 in
        let t = Span.create ~n:6 in
        (* Two separate mid-reset islands: {0,1} and {4,5}. *)
        Span.seed_active ~graph:g t [ (0, 2); (1, 1); (4, 3); (5, 7) ];
        let st = Span.stats t in
        check_int "two preexisting waves" 2 st.Span.preexisting_count;
        check_int "no synthetic waves" 0 st.Span.synthetic;
        check_true "island roots are the min-d members"
          (List.for_all
             (fun w -> w.Span.root = 1 || w.Span.root = 4)
             (Span.waves t));
        (* Completing every member closes both waves. *)
        Span.feed_step t ~step:0
          [ (0, Span.Complete); (1, Span.Complete); (4, Span.Complete);
            (5, Span.Complete) ];
        check_int "both complete" 2 (Span.stats t).Span.completed);
    test "orphan events synthesize a wave and fail the check" (fun () ->
        let t = Span.create ~n:4 in
        Span.feed_step t ~step:0 [ (3, Span.Feedback) ];
        check_int "one synthetic wave" 1 (Span.stats t).Span.synthetic;
        check_true "check flags the incomplete wave"
          (Span.check ~require_complete:true t <> [])) ]

(* ------------------------------ Monitors -------------------------------- *)

let monitor_tests =
  [ test "move_bound trips once when the budget is crossed" (fun () ->
        let m = Monitor.create ~window:4 () in
        let obs = Monitor.move_bound m ~name:"moves-bound" ~bound:2 in
        obs ~step:0 ~moved:[ (0, "r") ] [||];
        check_int "under budget" 0 (Monitor.anomaly_count m);
        obs ~step:1 ~moved:[ (1, "r"); (2, "s") ] [||];
        check_int "tripped" 1 (Monitor.anomaly_count m);
        obs ~step:2 ~moved:[ (0, "r") ] [||];
        check_int "latched once" 1 (Monitor.anomaly_count m);
        match Monitor.anomalies m with
        | [ a ] ->
            check Alcotest.string "name" "moves-bound" a.Monitor.monitor;
            check_int "value" 3 a.Monitor.value;
            check_int "bound" 2 a.Monitor.bound;
            check_true "window holds the recent events"
              (List.length a.Monitor.window >= 1)
        | _ -> Alcotest.fail "expected exactly one anomaly");
    test "round_bound trips beyond the bound" (fun () ->
        let m = Monitor.create () in
        Monitor.round_bound m ~name:"rounds-bound" ~bound:3 ~round:3 ~steps:9;
        check_int "at the bound" 0 (Monitor.anomaly_count m);
        Monitor.round_bound m ~name:"rounds-bound" ~bound:3 ~round:4 ~steps:12;
        Monitor.round_bound m ~name:"rounds-bound" ~bound:3 ~round:5 ~steps:15;
        check_int "latched once" 1 (Monitor.anomaly_count m));
    test "non_increasing trips when the measure grows" (fun () ->
        let m = Monitor.create () in
        let obs =
          Monitor.non_increasing m ~name:"alive-roots-monotone"
            ~measure:(fun cfg -> cfg.(0))
            ~init:5
        in
        obs ~step:0 ~moved:[ (0, "r") ] [| 4 |];
        check_int "decrease is fine" 0 (Monitor.anomaly_count m);
        obs ~step:1 ~moved:[ (0, "r") ] [| 6 |];
        check_int "increase trips" 1 (Monitor.anomaly_count m));
    test "a tripped monitor emits a schema-valid anomaly record" (fun () ->
        let g = Gen.path 3 in
        let tmp = Filename.temp_file "ssreset-test-anomaly" ".jsonl" in
        let sink = Sink.create tmp in
        Sink.write sink
          (Tracefile.manifest ~system:"toy-broken" ~family:"path" ~seed:0
             ~daemon:"central-first" g);
        let m = Monitor.create ~sink () in
        let obs = Monitor.move_bound m ~name:"moves-bound" ~bound:1 in
        (* An injected violation: two moves against a bound of one. *)
        obs ~step:0 ~moved:[ (0, "fire") ] [||];
        obs ~step:1 ~moved:[ (1, "fire") ] [||];
        check_int "anomaly latched" 1 (Monitor.anomaly_count m);
        Sink.write sink
          (Sink.summary
             ~extra:[ ("anomalies", Json.Int (Monitor.anomaly_count m)) ]
             ~outcome:"step-limit" ~rounds:2 ~steps:2 ~moves:2 ~wall_s:0.0 ());
        Sink.close sink;
        (match Tracefile.load_file tmp with
        | Ok t -> (
            match t.Tracefile.anomalies with
            | [ a ] ->
                check Alcotest.string "monitor name" "moves-bound"
                  a.Tracefile.monitor;
                check_int "value" 2 a.Tracefile.value;
                check_int "bound" 1 a.Tracefile.bound
            | l -> Alcotest.failf "expected 1 anomaly, got %d" (List.length l))
        | Error msg -> Alcotest.failf "load failed: %s" msg);
        Sys.remove tmp) ]

(* ------------------------------ Tracefile ------------------------------- *)

let clean_trace =
  String.concat "\n"
    [ {|{"type":"manifest","system":"unison","family":"path","n":3,"m":2,"seed":1,"daemon":"central-first","trace_schema":"ssreset-trace-v1","edges":[[0,1],[1,2]]}|};
      {|{"type":"init","active":[{"p":1,"st":"RB","d":2}]}|};
      {|{"type":"step","step":0,"movers":[{"p":0,"rule":"SDR-R","w":"init"},{"p":2,"rule":"SDR-RB","w":"join","parent":1,"d":3}]}|};
      {|{"type":"round","round":1,"steps":1,"moves":2}|};
      {|{"type":"summary","outcome":"step-limit","rounds":1,"steps":1,"moves":2,"wall_s":0.001,"moves_per_rule":{"SDR-R":1,"SDR-RB":1}}|} ]

(* Replace the first occurrence of [needle] in [hay] — used to corrupt the
   clean trace string in targeted ways. *)
let replace = Astring_like.replace

let rejects what contents =
  test ("rejects " ^ what) (fun () ->
      match Tracefile.load_string contents with
      | Ok _ -> Alcotest.failf "accepted a trace with %s" what
      | Error _ -> ())

let tracefile_tests =
  [ test "accepts a well-formed trace" (fun () ->
        match Tracefile.load_string clean_trace with
        | Ok t ->
            check_int "n" 3 t.Tracefile.n;
            check_int "two edges" 2 (Graph.m t.Tracefile.graph);
            check_int "one step record" 1 (List.length t.Tracefile.steps);
            check_int "seeded actives" 1 (List.length t.Tracefile.init_active)
        | Error msg -> Alcotest.failf "clean trace rejected: %s" msg);
    rejects "a missing manifest"
      {|{"type":"summary","outcome":"x","rounds":0,"steps":0,"moves":0,"wall_s":0.0}|};
    rejects "a join without provenance"
      (replace ~needle:{|"w":"join","parent":1,"d":3|} ~by:{|"w":"join"|}
         clean_trace);
    rejects "a mover out of range"
      (replace ~needle:{|{"p":2,"rule":"SDR-RB"|}
         ~by:{|{"p":7,"rule":"SDR-RB"|} clean_trace);
    rejects "summary counters contradicting the step records"
      (replace ~needle:{|"moves":2,"wall_s"|} ~by:{|"moves":9,"wall_s"|}
         clean_trace);
    rejects "records after the summary" (clean_trace ^ "\n" ^ clean_trace);
    rejects "non-increasing step indices"
      (clean_trace |> String.split_on_char '\n'
      |> List.map (fun l ->
             if String.length l > 15 && String.sub l 9 4 = "step" then
               l ^ "\n" ^ l
             else l)
      |> String.concat "\n");
    rejects "a self-loop in the manifest edges"
      (replace ~needle:{|[[0,1],[1,2]]|} ~by:{|[[0,0],[1,2]]|} clean_trace);
    rejects "a duplicate manifest edge"
      (replace ~needle:{|[[0,1],[1,2]]|} ~by:{|[[0,1],[1,0]]|} clean_trace);
    test "rejects a manifest n that m edges cannot connect, before building"
      (fun () ->
        (* n = 10⁹ over two edges: refused by the size check, so the loader
           never allocates a graph of that size. *)
        match
          Tracefile.load_string
            (replace ~needle:{|"n":3|} ~by:{|"n":1000000000|} clean_trace)
        with
        | Ok _ -> Alcotest.fail "accepted n = 10^9 with m = 2"
        | Error msg ->
            check_true msg (Astring_like.contains msg "exceeds m + 1 = 3")) ]

(* --------------------------- Full pipeline ------------------------------ *)

(* Record a real step-traced U∘SDR run through the telemetry layer, then
   re-derive everything offline from the file alone — the same path the
   `ssreset trace` CLI takes. *)
let record_unison ~seed ~n =
  let g = Gen.ring n in
  let tmp = Filename.temp_file "ssreset-test-trace" ".jsonl" in
  let sink = Sink.create tmp in
  Sink.write sink
    (Tracefile.manifest ~system:"unison" ~family:"ring" ~seed
       ~daemon:"synchronous" g);
  let obs =
    Runner.run ~sink ~trace_steps:true Runner.unison ~graph:g
      ~daemon:Daemon.synchronous ~seed ()
  in
  Sink.close sink;
  let t =
    match Tracefile.load_file tmp with
    | Ok t -> t
    | Error msg -> Alcotest.failf "seed %d: invalid trace: %s" seed msg
  in
  Sys.remove tmp;
  (t, obs)

let pipeline_tests =
  [ test "20 seeds: critical path tracks the round count" (fun () ->
        let exact = ref 0 in
        for seed = 0 to 19 do
          let t, obs = record_unison ~seed ~n:16 in
          let cp = Causality.critical_length (Traceview.causality t) in
          (* Synchronous: every step is a round and every step extends the
             longest chain, so the equality is exact — the ±1 headroom is
             for the empty-run edge case. *)
          check_true
            (Printf.sprintf "seed %d: |cp %d - rounds %d| <= 1" seed cp
               obs.Runner.rounds)
            (abs (cp - obs.Runner.rounds) <= 1);
          check_int
            (Printf.sprintf "seed %d: cp = steps" seed)
            obs.Runner.steps cp;
          if cp = obs.Runner.rounds then incr exact
        done;
        check_true
          (Printf.sprintf "critical path = rounds on %d/20 seeds" !exact)
          (!exact >= 19));
    test "every recorded wave reconstructs and balances" (fun () ->
        for seed = 0 to 4 do
          let t, obs = record_unison ~seed ~n:12 in
          let span = Traceview.span t in
          (match Span.check ~require_complete:true span with
          | [] -> ()
          | errs ->
              Alcotest.failf "seed %d: %s" seed (String.concat "; " errs));
          let st = Span.stats span in
          check_int
            (Printf.sprintf "seed %d: no synthetic waves" seed)
            0 st.Span.synthetic;
          check_true
            (Printf.sprintf "seed %d: waves completed" seed)
            (st.Span.completed = st.Span.wave_count);
          (* Every SDR move of the run is attributed to exactly one span. *)
          check_int
            (Printf.sprintf "seed %d: SDR moves all attributed" seed)
            obs.Runner.sdr_moves st.Span.total_moves
        done);
    test "anomaly-free bounds on a stabilizing run" (fun () ->
        let t, _ = record_unison ~seed:5 ~n:12 in
        check_true "no anomaly records" (t.Tracefile.anomalies = []);
        check Alcotest.(option int) "summary agrees" (Some 0)
          t.Tracefile.summary.Tracefile.anomaly_count) ]

(* ------------------------------ Traceview ------------------------------- *)

let load_golden name =
  match Tracefile.load_file ("../tools/golden/" ^ name) with
  | Ok t -> t
  | Error msg -> Alcotest.failf "%s rejected: %s" name msg

let traceview_tests =
  [ test "the checks accept recorded runs" (fun () ->
        let synchronous, _ = record_unison ~seed:2 ~n:12 in
        List.iter
          (fun (name, t) ->
            (match Traceview.waves t with
            | Ok w -> (
                match Traceview.waves_check w with
                | Ok _ -> ()
                | Error errs ->
                    Alcotest.failf "%s: %s" name (String.concat "; " errs))
            | Error msg -> Alcotest.failf "%s: %s" name msg);
            match Traceview.critical_path t with
            | Ok c -> (
                match Traceview.critical_path_check c with
                | Ok _ -> ()
                | Error errs ->
                    Alcotest.failf "%s: %s" name (String.concat "; " errs))
            | Error msg -> Alcotest.failf "%s: %s" name msg)
          [ ("synchronous ring", synchronous);
            ("golden", load_golden "trace-clean.jsonl") ]);
    test "the wave check flags moves the summary counts differently"
      (fun () ->
        let contents =
          replace ~needle:{|"SDR-R":1,|} ~by:{|"SDR-R":2,|} clean_trace
        in
        match Result.map Traceview.waves (Tracefile.load_string contents) with
        | Ok (Ok w) -> (
            match Traceview.waves_check w with
            | Ok _ -> Alcotest.fail "a miscounted SDR-R passed the check"
            | Error errs ->
                check_true "the SDR-R attribution is reported"
                  (List.mem
                     "wave check FAIL: SDR-R: 1 moves attributed to waves \
                      but the summary counted 2"
                     errs))
        | Ok (Error msg) | Error msg -> Alcotest.failf "rejected: %s" msg);
    test "step analyses need step records; the summary does not" (fun () ->
        let contents =
          String.split_on_char '\n' clean_trace
          |> List.filter (fun l -> not (String.starts_with ~prefix:{|{"type":"step"|} l))
          |> String.concat "\n"
        in
        match Tracefile.load_string contents with
        | Error msg -> Alcotest.failf "rejected: %s" msg
        | Ok t ->
            check_true "waves" (Result.is_error (Traceview.waves t));
            check_true "critical path"
              (Result.is_error (Traceview.critical_path t));
            check_true "dot"
              (Result.is_error (Traceview.dot ~what:`Waves ~max_moves:10 t));
            check_true "summary omits the critical path"
              (Json.member "critical_path"
                 (Traceview.summary_json (Traceview.summary t))
              = None));
    test "diff lists exactly the differing fields" (fun () ->
        let a, _ = record_unison ~seed:3 ~n:12 in
        let b, _ = record_unison ~seed:4 ~n:12 in
        check_true "a trace agrees with itself" (Traceview.diff a a = []);
        let d = Traceview.diff a b in
        check_true "seeds differ"
          (List.mem ("seed", "3", "4") d);
        check_true "only differing fields are listed"
          (List.for_all (fun (_, x, y) -> x <> y) d)) ]

let () =
  Alcotest.run "trace"
    [ ("causality", causality_tests);
      ("figure1", figure1_tests);
      ("monitor", monitor_tests);
      ("tracefile", tracefile_tests);
      ("pipeline", pipeline_tests);
      ("traceview", traceview_tests) ]
