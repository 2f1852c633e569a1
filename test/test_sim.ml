open Helpers
module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Engine = Ssreset_sim.Engine
module Fault = Ssreset_sim.Fault
module Trace = Ssreset_sim.Trace
module Stats = Ssreset_sim.Stats

(* Toy algorithm 1: "max propagation" — copy the largest neighbor value when
   strictly larger.  Monotone, silent; stabilizes to the global max. *)
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

(* Toy algorithm 2: "sum of neighbors" — used to pin down composite
   atomicity (all activated processes read the pre-step configuration). *)
let sum_nbrs : int Algorithm.t =
  { Algorithm.name = "sum-nbrs";
    rules =
      [ { Algorithm.rule_name = "sum";
          guard = (fun _ -> true);
          action =
            (fun v -> Array.fold_left ( + ) 0 v.Algorithm.nbrs) } ];
    equal = Int.equal;
    pp = Fmt.int }

(* Toy algorithm 3: two rules with distinct guards for rule-accounting
   tests. *)
let two_rules : int Algorithm.t =
  { Algorithm.name = "two-rules";
    rules =
      [ { Algorithm.rule_name = "up";
          guard = (fun v -> v.Algorithm.state < 5);
          action = (fun v -> v.Algorithm.state + 1) };
        { Algorithm.rule_name = "wrap";
          guard = (fun v -> v.Algorithm.state >= 5);
          action = (fun _ -> 0) } ];
    equal = Int.equal;
    pp = Fmt.int }

(* ------------------------------ Algorithm ------------------------------ *)

let algorithm_tests =
  [ test "view exposes own state and neighbors by local label" (fun () ->
        let g = Gen.path 4 in
        let cfg = [| 10; 20; 30; 40 |] in
        let v = Algorithm.view g cfg 1 in
        check_int "self" 20 v.Algorithm.state;
        check (Alcotest.array Alcotest.int) "nbrs" [| 10; 30 |]
          v.Algorithm.nbrs);
    test "views covers every process" (fun () ->
        let g = Gen.ring 5 in
        let cfg = [| 0; 1; 2; 3; 4 |] in
        let vs = Algorithm.views g cfg in
        check_int "len" 5 (Array.length vs);
        check_int "state-3" 3 vs.(3).Algorithm.state);
    test "enabled_rule picks the first enabled rule in order" (fun () ->
        let g = Gen.path 2 in
        let v = Algorithm.view g [| 5; 0 |] 0 in
        (match Algorithm.enabled_rule two_rules v with
        | Some r -> check Alcotest.string "rule" "wrap" r.Algorithm.rule_name
        | None -> Alcotest.fail "expected an enabled rule"));
    test "enabled_processes and is_terminal" (fun () ->
        let g = Gen.path 3 in
        check
          (Alcotest.list Alcotest.int)
          "enabled" [ 0; 2 ]
          (Algorithm.enabled_processes max_prop g [| 0; 9; 3 |]);
        check_true "terminal"
          (Algorithm.is_terminal max_prop g [| 7; 7; 7 |]);
        check_false "not terminal"
          (Algorithm.is_terminal max_prop g [| 7; 7; 8 |]));
    test "for_all_views" (fun () ->
        let g = Gen.ring 4 in
        check_true "all"
          (Algorithm.for_all_views g [| 1; 1; 1; 1 |] ~f:(fun _ v ->
               v.Algorithm.state = 1));
        check_false "not all"
          (Algorithm.for_all_views g [| 1; 1; 2; 1 |] ~f:(fun _ v ->
               v.Algorithm.state = 1)));
    test "exclusive_rules reports every enabled rule" (fun () ->
        let g = Gen.path 2 in
        let v = Algorithm.view g [| 3; 0 |] 0 in
        check (Alcotest.list Alcotest.string) "one" [ "up" ]
          (Algorithm.exclusive_rules two_rules v)) ]

(* -------------------------------- Engine ------------------------------- *)

let engine_tests =
  [ test "composite atomicity: activated processes read the old config"
      (fun () ->
        let g = Gen.path 3 in
        let r =
          run ~algorithm:sum_nbrs ~graph:g ~daemon:Daemon.synchronous
            ~max_steps:1 [| 1; 10; 100 |]
        in
        (* p0 reads old p1=10; p1 reads old p0+p2=101; p2 reads old p1=10. *)
        check (Alcotest.array Alcotest.int) "next" [| 10; 101; 10 |]
          r.Engine.final);
    test "step returns None on terminal configurations" (fun () ->
        let g = Gen.ring 4 in
        check_true "terminal"
          (Engine.step ~algorithm:max_prop ~graph:g
             ~daemon:Daemon.synchronous ~step_index:0 [| 2; 2; 2; 2 |]
          = None));
    test "check_overlap rejects simultaneously enabled rules" (fun () ->
        let overlapping : int Algorithm.t =
          { Algorithm.name = "overlapping";
            rules =
              [ { Algorithm.rule_name = "a";
                  guard = (fun v -> v.Algorithm.state = 0);
                  action = (fun _ -> 1) };
                { Algorithm.rule_name = "b";
                  guard = (fun v -> v.Algorithm.state <= 0);
                  action = (fun _ -> 2) } ];
            equal = Int.equal;
            pp = Fmt.int }
        in
        let g = Gen.path 2 in
        let cfg = [| 0; 1 |] in
        (* default: silent first-match semantics *)
        (match
           Engine.step ~algorithm:overlapping ~graph:g
             ~daemon:Daemon.synchronous ~step_index:0 cfg
         with
        | Some (next, _) -> check_int "first match" 1 next.(0)
        | None -> Alcotest.fail "expected a step");
        check_true "flag raises"
          (match
             Engine.step ~check_overlap:true ~algorithm:overlapping ~graph:g
               ~daemon:Daemon.synchronous ~step_index:0 cfg
           with
          | exception Invalid_argument _ -> true
          | _ -> false);
        (* exclusive rule sets pass under the flag *)
        let r =
          Engine.run ~check_overlap:true ~algorithm:two_rules ~graph:g
            ~daemon:Daemon.synchronous ~max_steps:6 [| 0; 5 |]
        in
        check_true "exclusive ok" (r.Engine.steps = 6));
    test "max-prop reaches the global maximum under every daemon" (fun () ->
        List.iter
          (fun daemon ->
            let g = Gen.ring 6 in
            let r =
              run ~algorithm:max_prop ~graph:g ~daemon [| 3; 1; 4; 1; 5; 9 |]
            in
            check_true "terminal" (r.Engine.outcome = Engine.Terminal);
            check (Alcotest.array Alcotest.int) "all max"
              [| 9; 9; 9; 9; 9; 9 |] r.Engine.final)
          (daemons ()));
    test "move accounting: total, per process, per rule" (fun () ->
        let g = Gen.path 2 in
        let r =
          run ~algorithm:two_rules ~graph:g ~daemon:Daemon.synchronous
            ~max_steps:6 [| 0; 5 |]
        in
        check_int "moves" 12 r.Engine.moves;
        check_int "p0" 6 r.Engine.moves_per_process.(0);
        check_int "p1" 6 r.Engine.moves_per_process.(1);
        let up = List.assoc "up" r.Engine.moves_per_rule in
        let wrap = List.assoc "wrap" r.Engine.moves_per_rule in
        check_int "up+wrap" 12 (up + wrap);
        check_true "wrap happened" (wrap >= 1));
    test "moves_of_rules filters by prefix" (fun () ->
        check_int "sum" 7
          (Engine.moves_of_rules
             [ ("SDR-C", 3); ("SDR-R", 4); ("U-inc", 5) ]
             ~prefixes:[ "SDR-" ]));
    test "rounds equal propagation distance under the synchronous daemon"
      (fun () ->
        (* max value at one end of a path: sync round r fixes process r. *)
        let n = 7 in
        let g = Gen.path n in
        let cfg = Array.make n 0 in
        cfg.(0) <- 9;
        let r = run ~algorithm:max_prop ~graph:g ~daemon:Daemon.synchronous cfg in
        check_true "terminal" (r.Engine.outcome = Engine.Terminal);
        check_int "rounds" (n - 1) r.Engine.rounds;
        check_int "steps" (n - 1) r.Engine.steps);
    test "rounds under a central daemon still count fairness spans" (fun () ->
        let n = 5 in
        let g = Gen.path n in
        let cfg = Array.make n 0 in
        cfg.(0) <- 9;
        (* central-last always picks the largest enabled index: process 1 is
           enabled from the start but is served last, so the first round
           spans the whole execution except its final step. *)
        let r = run ~algorithm:max_prop ~graph:g ~daemon:Daemon.central_last cfg in
        check_true "terminal" (r.Engine.outcome = Engine.Terminal);
        check_true "rounds <= steps" (r.Engine.rounds <= r.Engine.steps);
        check_true "at least one round" (r.Engine.rounds >= 1));
    test "neutralization ends rounds without a move" (fun () ->
        (* Both endpoints of a 2-path are enabled; activating one disables
           the other (it reaches the max).  One step must close the round. *)
        let g = Gen.path 2 in
        let r =
          run ~algorithm:max_prop ~graph:g ~daemon:Daemon.central_first
            [| 1; 2 |]
        in
        check_int "steps" 1 r.Engine.steps;
        check_int "rounds" 1 r.Engine.rounds);
    test "stop predicate halts immediately when initially true" (fun () ->
        let g = Gen.ring 4 in
        let r =
          run ~algorithm:max_prop ~graph:g ~daemon:Daemon.synchronous
            ~stop:(fun _ -> true)
            [| 0; 1; 2; 3 |]
        in
        check_true "stabilized" (r.Engine.outcome = Engine.Stabilized);
        check_int "steps" 0 r.Engine.steps;
        check_int "rounds" 0 r.Engine.rounds);
    test "stop predicate halts mid-run" (fun () ->
        let g = Gen.path 6 in
        let cfg = [| 9; 0; 0; 0; 0; 0 |] in
        let r =
          run ~algorithm:max_prop ~graph:g ~daemon:Daemon.synchronous
            ~stop:(fun cfg -> cfg.(2) = 9)
            cfg
        in
        check_true "stabilized" (r.Engine.outcome = Engine.Stabilized);
        check_int "steps" 2 r.Engine.steps);
    test "max_steps exhaustion is reported" (fun () ->
        let g = Gen.ring 4 in
        let r =
          run ~algorithm:two_rules ~graph:g ~daemon:Daemon.synchronous
            ~max_steps:10 [| 0; 0; 0; 0 |]
        in
        check_true "limit" (r.Engine.outcome = Engine.Step_limit);
        check_int "steps" 10 r.Engine.steps);
    test "observer sees every step with the new configuration" (fun () ->
        let g = Gen.path 4 in
        let seen = ref [] in
        let observer ~step ~moved cfg =
          seen := (step, List.length moved, Array.copy cfg) :: !seen
        in
        let cfg = [| 9; 0; 0; 0 |] in
        let r =
          Engine.run ~observer ~algorithm:max_prop ~graph:g
            ~daemon:Daemon.synchronous cfg
        in
        check_int "entries" r.Engine.steps (List.length !seen);
        let last_step, _, last_cfg = List.hd !seen in
        check_int "last index" (r.Engine.steps - 1) last_step;
        check (Alcotest.array Alcotest.int) "final" r.Engine.final last_cfg) ]

(* -------------------------------- Daemons ------------------------------ *)

(* A connected sparse graph on [n] nodes: a path plus n/4 random chords. *)
let sparse_graph r n =
  let seen = Hashtbl.create n in
  let edges = ref [] in
  let add u v =
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      edges := key :: !edges
    end
  in
  for u = 0 to n - 2 do
    add u (u + 1)
  done;
  for _ = 1 to n / 4 do
    add (Random.State.int r n) (Random.State.int r n)
  done;
  Graph.make ~n ~edges:!edges

(* Daemon.select against the list reference over random enabled sets: the
   same processes, and the RNG left in the same state.  Sizes straddle the
   32-bit words and the 1024-node level-1 blocks of the bitset; several
   steps per run carry the round-robin cursor. *)
let select_matches_reference () =
  let names = Array.of_list (Daemon.standard_prefer @ [ "SDR-R"; "other" ]) in
  let daemons =
    List.map snd Daemon.registry
    @ [ Daemon.distributed_random 0.3; Daemon.distributed_random 0.8 ]
  in
  List.iter
    (fun n ->
      for seed = 1 to 4 do
        let r = rng (1000 + seed + n) in
        let g = sparse_graph r n in
        let rule = Array.init n (fun _ -> names.(Random.State.int r 7)) in
        let density = [| 0.01; 0.3; 0.9; 1.0 |].(seed mod 4) in
        List.iter
          (fun d ->
            let reference = Ref_daemon.of_daemon d in
            let cursor = ref 0 in
            let rng_new = rng seed and rng_ref = rng seed in
            for step = 0 to 4 do
              let enabled =
                List.filter
                  (fun _ -> Random.State.float r 1.0 < density)
                  (List.init n Fun.id)
              in
              let enabled =
                if enabled = [] then [ Random.State.int r n ] else enabled
              in
              let ctx =
                { Ref_daemon.step; graph = g; enabled;
                  rule_name = (fun u -> rule.(u)) }
              in
              let want = reference.Ref_daemon.select rng_ref ctx in
              let got =
                select ~cursor ~rule_name:(fun u -> rule.(u)) d rng_new g
                  enabled
              in
              let where =
                Printf.sprintf "%s n=%d seed=%d step=%d" (Daemon.name d) n
                  seed step
              in
              check (Alcotest.list Alcotest.int) where want got;
              check_int (where ^ ": rng state") (Random.State.bits rng_ref)
                (Random.State.bits rng_new)
            done)
          daemons
      done)
    [ 1; 31; 32; 33; 1023; 1024; 1025; 2100 ]

let daemon_tests =
  [ test "synchronous selects everything" (fun () ->
        let g = Gen.ring 5 in
        check (Alcotest.list Alcotest.int) "all" [ 0; 2; 4 ]
          (select Daemon.synchronous (rng 1) g [ 0; 2; 4 ]));
    test "central daemons select exactly one enabled process" (fun () ->
        let g = Gen.ring 5 in
        List.iter
          (fun d ->
            match select d (rng 2) g [ 1; 3 ] with
            | [ u ] -> check_true "member" (List.mem u [ 1; 3 ])
            | other ->
                Alcotest.failf "%s selected %d processes" (Daemon.name d)
                  (List.length other))
          [ Daemon.central_random; Daemon.central_first; Daemon.central_last;
            Daemon.round_robin ]);
    test "central_first/last are deterministic extremes" (fun () ->
        let g = Gen.ring 7 in
        check (Alcotest.list Alcotest.int) "first" [ 2 ]
          (select Daemon.central_first (rng 3) g [ 2; 4; 6 ]);
        check (Alcotest.list Alcotest.int) "last" [ 6 ]
          (select Daemon.central_last (rng 3) g [ 2; 4; 6 ]));
    test "round_robin visits all processes over time" (fun () ->
        let g = Gen.ring 4 in
        let cursor = ref 0 in
        let seen = Hashtbl.create 4 in
        for _ = 1 to 8 do
          match select ~cursor Daemon.round_robin (rng 1) g [ 0; 1; 2; 3 ] with
          | [ u ] -> Hashtbl.replace seen u ()
          | _ -> Alcotest.fail "round robin must be central"
        done;
        check_int "coverage" 4 (Hashtbl.length seen));
    test "distributed_random never selects an empty set" (fun () ->
        let g = Gen.ring 6 in
        let d = Daemon.distributed_random 0.01 in
        for seed = 1 to 50 do
          let chosen = select d (rng seed) g [ 0; 3 ] in
          check_true "nonempty" (chosen <> []);
          List.iter (fun u -> check_true "subset" (List.mem u [ 0; 3 ])) chosen
        done);
    test "distributed_random validates p" (fun () ->
        check_true "p=0 rejected"
          (match Daemon.distributed_random 0.0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "locally_central never activates two neighbors" (fun () ->
        let g = Gen.ring 8 in
        let all = List.init 8 Fun.id in
        for seed = 1 to 30 do
          let chosen = select Daemon.locally_central_random (rng seed) g all in
          check_true "nonempty" (chosen <> []);
          List.iter
            (fun u ->
              List.iter
                (fun v ->
                  if u <> v then
                    check_false "independent" (Graph.has_edge g u v))
                chosen)
            chosen
        done);
    test "starve avoids its victim unless it is alone" (fun () ->
        let g = Gen.ring 4 in
        let d = Daemon.starve 0 in
        for seed = 1 to 20 do
          (match select d (rng seed) g [ 0; 1; 2 ] with
          | [ u ] -> check_true "not victim" (u <> 0)
          | _ -> Alcotest.fail "starve is central")
        done;
        check (Alcotest.list Alcotest.int) "alone" [ 0 ]
          (select d (rng 1) g [ 0 ]));
    test "adversarial_rule prefers listed rules" (fun () ->
        let g = Gen.ring 4 in
        let d = Daemon.adversarial_rule ~prefer:[ "special" ] in
        check (Alcotest.list Alcotest.int) "prefers" [ 1 ]
          (select
             ~rule_name:(fun u -> if u = 1 then "special" else "other")
             d (rng 1) g [ 0; 1; 2 ]));
    test "check_selection rejects bad selections" (fun () ->
        let enabled = bits_of 4 [ 1; 2 ] in
        check_true "empty"
          (match Daemon.check_selection enabled [] with
          | exception Invalid_argument _ -> true
          | _ -> false);
        check_true "foreign"
          (match Daemon.check_selection enabled [ 3 ] with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "select ≡ list reference (every daemon, n across word and block \
          edges)" select_matches_reference ]

(* ------------------------------ Fault/Trace ---------------------------- *)

let fault_trace_tests =
  [ test "arbitrary draws one state per process" (fun () ->
        let g = Gen.ring 9 in
        let cfg = Fault.arbitrary (rng 4) (fun _ u -> u * 2) g in
        check_int "len" 9 (Array.length cfg);
        check_int "value" 10 cfg.(5));
    test "corrupt changes exactly k processes" (fun () ->
        let g = Gen.ring 10 in
        ignore g;
        let cfg = Array.make 10 0 in
        let next = Fault.corrupt (rng 5) (fun _ _ -> 99) ~k:4 cfg in
        let changed =
          Array.fold_left (fun acc x -> if x = 99 then acc + 1 else acc) 0 next
        in
        check_int "changed" 4 changed;
        check_int "original untouched" 0 cfg.(0));
    test "corrupt clamps k to n" (fun () ->
        let cfg = Array.make 3 0 in
        let next = Fault.corrupt (rng 6) (fun _ _ -> 7) ~k:50 cfg in
        check (Alcotest.array Alcotest.int) "all" [| 7; 7; 7 |] next);
    test "corrupt_processes targets exactly the victims" (fun () ->
        let cfg = [| 0; 0; 0; 0 |] in
        let next = Fault.corrupt_processes (rng 7) (fun _ _ -> 5) [ 1; 3 ] cfg in
        check (Alcotest.array Alcotest.int) "targets" [| 0; 5; 0; 5 |] next);
    test "trace records steps and final configurations" (fun () ->
        let g = Gen.path 5 in
        let cfg = [| 9; 0; 0; 0; 0 |] in
        let trace, r =
          Trace.record ~algorithm:max_prop ~graph:g ~daemon:Daemon.synchronous
            cfg
        in
        check_int "length" r.Engine.steps (Trace.length trace);
        check_int "configs" (r.Engine.steps + 1)
          (List.length (Trace.configs trace));
        let pairs = Trace.steps_pairs trace in
        check_int "pairs" r.Engine.steps (List.length pairs));
    test "rule_sequence extracts a process's rule names in order" (fun () ->
        let g = Gen.path 2 in
        let trace, _ =
          Trace.record ~algorithm:two_rules ~graph:g
            ~daemon:Daemon.central_first ~max_steps:12 [| 4; 9 |]
        in
        let seq = Trace.rule_sequence trace 0 in
        check_true "starts with up then wrap"
          (match seq with "up" :: "wrap" :: _ -> true | _ -> false));
    test "moved_processes lists exactly the movers" (fun () ->
        let g = Gen.path 3 in
        let trace, _ =
          Trace.record ~algorithm:max_prop ~graph:g ~daemon:Daemon.synchronous
            [| 0; 0; 9 |]
        in
        check (Alcotest.list Alcotest.int) "movers" [ 0; 1 ]
          (Trace.moved_processes trace)) ]

(* ------------------------------- Tracker ------------------------------- *)

(* Random "steps" on a ring of counters: each changes a few processes, whose
   list is the honest [moved].  The lazy tracker ([mark] every step,
   [exists] every [ask] steps, [flush] every [flush] steps) and the eager
   one must both match a full recomputation whenever they are asked.
   Asking often and flushing rarely keeps resolved marks on the lazy
   tracker's stack, which exercises its compaction. *)
let tracker_tests =
  [ test "eager and lazy trackers equal a full recomputation" (fun () ->
        List.iter
          (fun ((n, seed, ask, flush), pred) ->
            let g = Gen.ring n in
            let r = rng seed in
            let full cfg =
              List.filter
                (fun u -> pred (Algorithm.view g cfg u))
                (List.init n Fun.id)
            in
            let cfg = Array.init n (fun _ -> Random.State.int r 3) in
            let eager = Algorithm.Tracker.create g pred cfg in
            let lazy_t = Algorithm.Tracker.create g pred cfg in
            let rose = ref false in
            for step = 0 to 1000 do
              let before = full cfg in
              let movers =
                List.sort_uniq compare
                  (List.init (1 + Random.State.int r 3) (fun _ ->
                       Random.State.int r n))
              in
              List.iter (fun u -> cfg.(u) <- Random.State.int r 3) movers;
              let moved = List.map (fun u -> (u, "set")) movers in
              let now = full cfg in
              if List.exists (fun u -> not (List.mem u before)) now then
                rose := true;
              Algorithm.Tracker.update eager ~moved cfg;
              Algorithm.Tracker.mark lazy_t ~moved;
              let label = Printf.sprintf "n=%d seed=%d step %d" n seed step in
              check (Alcotest.list Alcotest.int) label now
                (Algorithm.Tracker.members eager);
              check_int label (List.length now) (Algorithm.Tracker.count eager);
              check_bool (label ^ ": rose") !rose
                (Algorithm.Tracker.rose eager);
              if step mod ask = 0 then
                check_bool (label ^ ": exists") (now <> [])
                  (Algorithm.Tracker.exists lazy_t cfg);
              if step mod flush = flush - 1 then begin
                Algorithm.Tracker.flush lazy_t cfg;
                check (Alcotest.list Alcotest.int) (label ^ ": flushed") now
                  (Algorithm.Tracker.members lazy_t)
              end
            done)
          (List.concat_map
             (fun run ->
               [ (run, fun (v : int Algorithm.view) -> v.Algorithm.state > 0);
                 ( run,
                   fun v ->
                     v.Algorithm.state > 0
                     && Array.for_all
                          (fun x -> x <= v.Algorithm.state)
                          v.Algorithm.nbrs ) ])
             [ (3, 1, 1, 1000); (4, 2, 1, 1000); (5, 3, 3, 50); (12, 4, 3, 50);
               (12, 5, 1, 1000) ])) ]

(* ------------------------------- Aliasing ------------------------------ *)

(* [Engine.run] steps one private copy of the configuration in place; these
   tests pin what callers may rely on: their own array is never written,
   every recorded configuration is its own snapshot, and the in-place write
   keeps composite atomicity with or without a profiler. *)

(* Replay one recorded step: each mover fires the named rule on its view of
   [before]; nobody else changes. *)
let replay algorithm g before moved =
  let next = Array.copy before in
  List.iter
    (fun (u, name) ->
      let r =
        List.find
          (fun r -> String.equal r.Algorithm.rule_name name)
          algorithm.Algorithm.rules
      in
      let v = Algorithm.view g before u in
      check_true "the recorded rule is enabled" (r.Algorithm.guard v);
      next.(u) <- r.Algorithm.action v)
    moved;
  next

let aliasing_tests =
  [ test "run leaves the caller's configuration untouched" (fun () ->
        let g = Gen.ring 7 in
        List.iter
          (fun daemon ->
            let cfg0 = [| 0; 3; 5; 1; 4; 2; 0 |] in
            let r =
              Engine.run ~rng:(rng 2) ~max_steps:40 ~algorithm:two_rules
                ~graph:g ~daemon cfg0
            in
            check (Alcotest.array Alcotest.int) "cfg0" [| 0; 3; 5; 1; 4; 2; 0 |]
              cfg0;
            check_true "final is the run's own array" (r.Engine.final != cfg0))
          Daemon.all_standard);
    test "step returns a fresh array and leaves its argument untouched"
      (fun () ->
        let g = Gen.path 3 in
        let cfg = [| 1; 10; 100 |] in
        match
          Engine.step ~algorithm:sum_nbrs ~graph:g ~daemon:Daemon.synchronous
            ~step_index:0 cfg
        with
        | None -> Alcotest.fail "sum-nbrs is never terminal"
        | Some (next, _) ->
            check (Alcotest.array Alcotest.int) "next" [| 10; 101; 10 |] next;
            check (Alcotest.array Alcotest.int) "argument" [| 1; 10; 100 |]
              cfg);
    test "composite atomicity holds in place with a profiler attached"
      (fun () ->
        let g = Gen.path 3 in
        let r =
          Engine.run ~prof:(Ssreset_obs.Prof.create ()) ~algorithm:sum_nbrs
            ~graph:g ~daemon:Daemon.synchronous ~max_steps:2 [| 1; 10; 100 |]
        in
        (* [|10; 101; 10|], then [|101; 20; 101|] *)
        check (Alcotest.array Alcotest.int) "next" [| 101; 20; 101 |]
          r.Engine.final);
    test "trace configurations are distinct snapshots that replay" (fun () ->
        List.iter
          (fun (name, g) ->
            List.iter
              (fun daemon ->
                let cfg0 =
                  Fault.arbitrary (rng 3) (fun r _ -> Random.State.int r 6) g
                in
                let copy = Array.copy cfg0 in
                let trace, r =
                  Trace.record ~rng:(rng 4) ~max_steps:30 ~algorithm:two_rules
                    ~graph:g ~daemon cfg0
                in
                check (Alcotest.array Alcotest.int) (name ^ ": cfg0") copy cfg0;
                let configs = Trace.configs trace in
                List.iteri
                  (fun i a ->
                    List.iteri
                      (fun j b ->
                        if i < j && a == b then
                          Alcotest.failf "%s: configurations %d and %d alias"
                            name i j)
                      configs)
                  configs;
                List.iter
                  (fun (before, after, moved) ->
                    check (Alcotest.array Alcotest.int) (name ^ ": replay")
                      after (replay two_rules g before moved))
                  (Trace.steps_pairs trace);
                check (Alcotest.array Alcotest.int) (name ^ ": last = final")
                  r.Engine.final
                  (List.nth configs (List.length configs - 1)))
              Daemon.all_standard)
          [ ("ring8", Gen.ring 8); ("star6", Gen.star 6);
            ("grid3x3", Gen.grid 3 3) ]) ]

(* -------------------------------- Stats -------------------------------- *)

let stats_tests =
  [ test "summarize on a known sample" (fun () ->
        let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
        check_int "count" 4 s.Stats.count;
        check (Alcotest.float 0.0001) "mean" 2.5 s.Stats.mean;
        check (Alcotest.float 0.0001) "min" 1.0 s.Stats.min;
        check (Alcotest.float 0.0001) "max" 4.0 s.Stats.max;
        (* sample (Bessel-corrected) standard deviation *)
        check (Alcotest.float 0.0001) "sd" (sqrt (5. /. 3.)) s.Stats.stddev);
    test "stddev needs at least two samples" (fun () ->
        check (Alcotest.float 0.0) "singleton"
          0.0 (Stats.summarize [ 42.0 ]).Stats.stddev);
    test "median and percentile" (fun () ->
        check (Alcotest.float 0.0001) "odd median" 3.0
          (Stats.median [ 5.0; 1.0; 3.0 ]);
        check (Alcotest.float 0.0001) "even median" 2.5
          (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
        check (Alcotest.float 0.0001) "p0" 1.0
          (Stats.percentile [ 1.0; 2.0; 3.0; 4.0 ] ~p:0.0);
        check (Alcotest.float 0.0001) "p100" 4.0
          (Stats.percentile [ 1.0; 2.0; 3.0; 4.0 ] ~p:100.0);
        (* type-7 linear interpolation: p75 of 1..4 is 3.25 *)
        check (Alcotest.float 0.0001) "p75" 3.25
          (Stats.percentile [ 1.0; 2.0; 3.0; 4.0 ] ~p:75.0);
        check (Alcotest.float 0.0) "empty" 0.0 (Stats.median []);
        check_true "out of range"
          (match Stats.percentile [ 1.0 ] ~p:150.0 with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "summarize of empty sample is all zeros" (fun () ->
        let s = Stats.summarize [] in
        check_int "count" 0 s.Stats.count;
        check (Alcotest.float 0.0) "mean" 0.0 s.Stats.mean);
    test "summarize_ints and max_int_list" (fun () ->
        let s = Stats.summarize_ints [ 2; 4; 6 ] in
        check (Alcotest.float 0.0001) "mean" 4.0 s.Stats.mean;
        check_int "max" 6 (Stats.max_int_list [ 2; 6; 4 ]);
        check_int "max empty" 0 (Stats.max_int_list []));
    test "ratio handles zero denominators" (fun () ->
        check (Alcotest.float 0.0001) "ratio" 2.5 (Stats.ratio 5 2);
        check (Alcotest.float 0.0001) "zero" 0.0 (Stats.ratio 5 0)) ]

let () =
  Alcotest.run "sim"
    [ ("algorithm", algorithm_tests);
      ("engine", engine_tests);
      ("daemon", daemon_tests);
      ("fault-trace", fault_trace_tests);
      ("tracker", tracker_tests);
      ("aliasing", aliasing_tests);
      ("stats", stats_tests) ]
