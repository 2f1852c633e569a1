open Helpers
module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Engine = Ssreset_sim.Engine
module Fault = Ssreset_sim.Fault
module Trace = Ssreset_sim.Trace
module Sdr = Ssreset_core.Sdr

(* Most structural tests use U ∘ SDR (a dynamic input algorithm, so the SDR
   layer is exercised from every reachable pattern) and coloring ∘ SDR (a
   static input, so the composition has genuine terminal configurations). *)

module U12 = Ssreset_unison.Unison.Make (struct
  let k = 26
end)

let ugen = U12.Composed.generator ~inner:U12.clock_gen ~max_d:24

let arbitrary_cfg g seed = Fault.arbitrary (rng seed) ugen g

let record_run ?(max_steps = 100_000) g seed daemon =
  let cfg = arbitrary_cfg g seed in
  Trace.record ~rng:(rng (seed + 100)) ~max_steps
    ~stop:(U12.Composed.is_normal g)
    ~algorithm:U12.Composed.algorithm ~graph:g ~daemon cfg

(* ------------------------- state & predicates -------------------------- *)

let basic_tests =
  [ test "lift wraps with status C and inner_config inverts it" (fun () ->
        let cfg = U12.Composed.lift [| 1; 2; 3 |] in
        check_true "st=C" (Array.for_all (fun s -> s.Sdr.st = Sdr.C) cfg);
        check (Alcotest.array Alcotest.int) "inner" [| 1; 2; 3 |]
          (U12.Composed.inner_config cfg));
    test "generator respects the distance domain" (fun () ->
        let gen = U12.Composed.generator ~inner:U12.clock_gen ~max_d:5 in
        for seed = 1 to 50 do
          let s = gen (rng seed) 0 in
          check_true "d in range" (s.Sdr.d >= 0 && s.Sdr.d <= 5);
          check_true "clock in range" (s.Sdr.inner >= 0 && s.Sdr.inner < 26)
        done);
    test "pp_status prints the three statuses" (fun () ->
        check Alcotest.string "C" "C" (Fmt.str "%a" Sdr.pp_status Sdr.C);
        check Alcotest.string "RB" "RB" (Fmt.str "%a" Sdr.pp_status Sdr.RB);
        check Alcotest.string "RF" "RF" (Fmt.str "%a" Sdr.pp_status Sdr.RF));
    test "lifted configuration of a correct input is normal" (fun () ->
        let g = Gen.ring 6 in
        let cfg = U12.Composed.lift (U12.gamma_init g) in
        check_true "normal" (U12.Composed.is_normal g cfg));
    test "a configuration with an RB process is not normal" (fun () ->
        let g = Gen.ring 6 in
        let cfg = U12.Composed.lift (U12.gamma_init g) in
        cfg.(2) <- { cfg.(2) with Sdr.st = Sdr.RB };
        check_false "not normal" (U12.Composed.is_normal g cfg));
    test "p_clean requires the whole closed neighborhood at C" (fun () ->
        let g = Gen.path 3 in
        let cfg = U12.Composed.lift [| 0; 0; 0 |] in
        check_true "clean" (U12.Composed.p_clean (Algorithm.view g cfg 0));
        cfg.(1) <- { cfg.(1) with Sdr.st = Sdr.RF };
        check_false "nbr dirty" (U12.Composed.p_clean (Algorithm.view g cfg 0));
        check_false "other nbr dirty too"
          (U12.Composed.p_clean (Algorithm.view g cfg 2)));
    test "p_up detects a locally incorrect C process" (fun () ->
        let g = Gen.path 2 in
        (* clocks 0 and 5 are more than one increment apart: both incorrect *)
        let cfg = U12.Composed.lift [| 0; 5 |] in
        check_true "p_up 0" (U12.Composed.p_up (Algorithm.view g cfg 0));
        check_true "p_up 1" (U12.Composed.p_up (Algorithm.view g cfg 1));
        check_true "alive root"
          (U12.Composed.is_alive_root (Algorithm.view g cfg 0)));
    test "p_rb fires only next to a broadcasting process" (fun () ->
        let g = Gen.path 3 in
        let cfg = U12.Composed.lift [| 0; 0; 0 |] in
        cfg.(0) <- { Sdr.st = Sdr.RB; d = 0; inner = 0 };
        check_true "p_rb" (U12.Composed.p_rb (Algorithm.view g cfg 1));
        check_false "too far" (U12.Composed.p_rb (Algorithm.view g cfg 2)));
    test "p_rf requires P_reset and all neighbors involved" (fun () ->
        let g = Gen.path 2 in
        let mk st d inner = { Sdr.st; d; inner } in
        let cfg = [| mk Sdr.RB 0 0; mk Sdr.RB 1 0 |] in
        (* the deeper process can feed back; the root cannot (its neighbor
           has a greater distance) *)
        check_true "deep feeds back"
          (U12.Composed.p_rf (Algorithm.view g cfg 1));
        check_false "root waits" (U12.Composed.p_rf (Algorithm.view g cfg 0));
        let cfg2 = [| mk Sdr.RB 0 0; mk Sdr.RB 1 3 |] in
        check_false "needs P_reset"
          (U12.Composed.p_rf (Algorithm.view g cfg2 1)));
    test "p_c pops the feedback from the root downward" (fun () ->
        let g = Gen.path 2 in
        let mk st d inner = { Sdr.st; d; inner } in
        let cfg = [| mk Sdr.RF 0 0; mk Sdr.RF 1 0 |] in
        check_true "root completes" (U12.Composed.p_c (Algorithm.view g cfg 0));
        check_false "deep waits"
          (U12.Composed.p_c (Algorithm.view g cfg 1)));
    test "dead root detection" (fun () ->
        let g = Gen.path 2 in
        let mk st d inner = { Sdr.st; d; inner } in
        let cfg = [| mk Sdr.RF 0 0; mk Sdr.RF 1 0 |] in
        check_true "root is dead root"
          (U12.Composed.is_dead_root (Algorithm.view g cfg 0));
        check_false "deep is not"
          (U12.Composed.is_dead_root (Algorithm.view g cfg 1))) ]

(* ----------------------- mutual exclusion (Lemma 5) -------------------- *)

let exclusion_tests =
  [ test "rules of U∘SDR are pairwise mutually exclusive on random views"
      (fun () ->
        List.iter
          (fun (_, g) ->
            for seed = 1 to 40 do
              let cfg = arbitrary_cfg g seed in
              for u = 0 to Graph.n g - 1 do
                let enabled =
                  Algorithm.exclusive_rules U12.Composed.algorithm
                    (Algorithm.view g cfg u)
                in
                if List.length enabled > 1 then
                  Alcotest.failf "rules %s simultaneously enabled"
                    (String.concat "," enabled)
              done
            done)
          (graph_zoo ())) ]

(* --------------------- terminal ⟺ normal (Theorem 1) ------------------- *)

let coloring_graph = Gen.erdos_renyi (rng 31) 12 0.3

module Col = Ssreset_coloring.Coloring.Make (struct
  let graph = coloring_graph
  let ids = None
end)

let theorem1_tests =
  [ test "terminal configurations of coloring∘SDR are exactly normal ones"
      (fun () ->
        let g = coloring_graph in
        let gen = Col.Composed.generator ~inner:Col.gen ~max_d:24 in
        List.iter
          (fun daemon ->
            for seed = 1 to 5 do
              let cfg = Fault.arbitrary (rng seed) gen g in
              let r =
                run ~seed ~algorithm:Col.Composed.algorithm ~graph:g ~daemon
                  cfg
              in
              check_true "terminal" (r.Engine.outcome = Engine.Terminal);
              check_true "normal" (Col.Composed.is_normal g r.Engine.final);
              check_true "all C"
                (Array.for_all (fun s -> s.Sdr.st = Sdr.C) r.Engine.final)
            done)
          (daemons ()));
    test "normal configurations of the composition are SDR-terminal"
      (fun () ->
        let g = coloring_graph in
        let r =
          run ~algorithm:Col.Composed.algorithm ~graph:g
            ~daemon:Daemon.synchronous
            (Col.Composed.lift (Col.gamma_init ()))
        in
        check_true "terminal" (r.Engine.outcome = Engine.Terminal);
        let cfg = r.Engine.final in
        for u = 0 to Graph.n g - 1 do
          let v = Algorithm.view g cfg u in
          check_false "no RB" (Col.Composed.p_rb v);
          check_false "no RF" (Col.Composed.p_rf v);
          check_false "no C" (Col.Composed.p_c v);
          check_false "no R" (Col.Composed.p_up v)
        done) ]

(* ----------------- closure properties along real traces ---------------- *)

let closure_tests =
  [ test "¬P_Up is closed (Corollary 2)" (fun () ->
        List.iter
          (fun (_, g) ->
            for seed = 1 to 3 do
              let trace, _ = record_run g seed Daemon.central_random in
              check_true "closed"
                (closed_along_trace ~graph:g
                   ~prop:(fun _ v -> not (U12.Composed.p_up v))
                   trace)
            done)
          [ List.nth (graph_zoo ()) 0; List.nth (graph_zoo ()) 6 ]);
    test "P_Correct ∨ P_RB is closed (Theorem 2)" (fun () ->
        List.iter
          (fun (_, g) ->
            for seed = 4 to 6 do
              let trace, _ =
                record_run g seed (Daemon.distributed_random 0.5)
              in
              check_true "closed"
                (closed_along_trace ~graph:g
                   ~prop:(fun _ v ->
                     U12.Composed.p_correct v || U12.Composed.p_rb v)
                   trace)
            done)
          [ List.nth (graph_zoo ()) 1; List.nth (graph_zoo ()) 4 ]);
    test "¬P_R1 and ¬P_R2 are closed (Lemma 6)" (fun () ->
        let g = Gen.erdos_renyi (rng 77) 10 0.3 in
        for seed = 1 to 5 do
          let trace, _ = record_run g seed (Daemon.distributed_random 0.4) in
          check_true "R1"
            (closed_along_trace ~graph:g
               ~prop:(fun _ v -> not (U12.Composed.p_r1 v))
               trace);
          check_true "R2"
            (closed_along_trace ~graph:g
               ~prop:(fun _ v -> not (U12.Composed.p_r2 v))
               trace)
        done);
    test "no alive root is ever created (Theorem 3)" (fun () ->
        List.iter
          (fun (_, g) ->
            for seed = 1 to 4 do
              let trace, _ =
                record_run g seed (Daemon.distributed_random 0.6)
              in
              List.iter
                (fun (before, after, _) ->
                  let before_roots = U12.Composed.alive_roots g before in
                  let after_roots = U12.Composed.alive_roots g after in
                  List.iter
                    (fun u -> check_true "subset" (List.mem u before_roots))
                    after_roots)
                (Trace.steps_pairs trace)
            done)
          (graph_zoo ())) ]

(* --------------------- segments and rule language ---------------------- *)

let segment_tests =
  [ test "executions span at most n+1 segments (Remark 5)" (fun () ->
        List.iter
          (fun (_, g) ->
            List.iter
              (fun daemon ->
                let cfg = arbitrary_cfg g 9 in
                let seg = U12.Composed.Segments.create g cfg in
                let observer = U12.Composed.Segments.observer seg in
                let _ =
                  Engine.run ~rng:(rng 10) ~max_steps:100_000 ~observer
                    ~stop:(U12.Composed.is_normal g)
                    ~algorithm:U12.Composed.algorithm ~graph:g ~daemon cfg
                in
                check_true "segments <= n+1"
                  (U12.Composed.Segments.count seg <= Graph.n g + 1))
              (daemons ()))
          (graph_zoo ()));
    test "alive-root history is non-increasing" (fun () ->
        let g = Gen.lollipop 4 5 in
        let cfg = arbitrary_cfg g 3 in
        let seg = U12.Composed.Segments.create g cfg in
        let observer = U12.Composed.Segments.observer seg in
        let _ =
          Engine.run ~rng:(rng 4) ~max_steps:100_000 ~observer
            ~stop:(U12.Composed.is_normal g)
            ~algorithm:U12.Composed.algorithm ~graph:g
            ~daemon:Daemon.central_random cfg
        in
        (* the subset flag of Remark 4 implies the count never grows *)
        check_true "non-increasing" (U12.Composed.Segments.monotone seg));
    test "the Remark 4 flag trips when the alive-root set grows" (fun () ->
        let g = Gen.ring 6 in
        let seg = U12.Composed.Segments.create g (U12.Composed.lift (Array.make 6 0)) in
        let feed changed clocks =
          U12.Composed.Segments.observer seg ~step:0
            ~moved:(List.map (fun u -> (u, "U-inc")) changed)
            (U12.Composed.lift clocks)
        in
        check_int "no alive root" 0 (U12.Composed.Segments.alive_count seg);
        (* clock 5 at process 2 is out of step with both neighbors *)
        feed [ 2 ] [| 0; 0; 5; 0; 0; 0 |];
        check_int "three alive roots" 3 (U12.Composed.Segments.alive_count seg);
        check_false "grew" (U12.Composed.Segments.monotone seg);
        check_int "one segment" 1 (U12.Composed.Segments.count seg));
    test "the Remark 4 flag trips on a same-size but different set" (fun () ->
        let g = Gen.ring 6 in
        let seg =
          U12.Composed.Segments.create g (U12.Composed.lift [| 0; 0; 5; 0; 0; 0 |])
        in
        let feed changed clocks =
          U12.Composed.Segments.observer seg ~step:0
            ~moved:(List.map (fun u -> (u, "U-inc")) changed)
            (U12.Composed.lift clocks)
        in
        feed [] [| 0; 0; 5; 0; 0; 0 |];
        check_true "unchanged set" (U12.Composed.Segments.monotone seg);
        (* {1,2,3} becomes {3,4,5}: the count alone would not notice *)
        feed [ 2; 4 ] [| 0; 0; 0; 0; 5; 0 |];
        check_int "still three" 3 (U12.Composed.Segments.alive_count seg);
        check_false "not a subset" (U12.Composed.Segments.monotone seg));
    test "per-segment SDR rule words match Theorem 4's language" (fun () ->
        List.iter
          (fun (_, g) ->
            for seed = 11 to 13 do
              let trace, _ =
                record_run g seed (Daemon.distributed_random 0.5)
              in
              (* split the trace at segment boundaries (alive-root count
                 decreases), then check each process's SDR word per segment *)
              let boundaries = ref [] in
              let prev =
                ref (U12.Composed.count_alive_roots g trace.Trace.initial)
              in
              List.iteri
                (fun i entry ->
                  let c =
                    U12.Composed.count_alive_roots g entry.Trace.config
                  in
                  if c < !prev then boundaries := i :: !boundaries;
                  prev := c)
                trace.Trace.entries;
              let boundaries = List.rev !boundaries in
              let segment_of i =
                let rec count acc = function
                  | [] -> acc
                  | b :: rest -> if i > b then count (acc + 1) rest else acc
                in
                count 0 boundaries
              in
              let words = Hashtbl.create 16 in
              List.iteri
                (fun i entry ->
                  List.iter
                    (fun (u, name) ->
                      let key = (u, segment_of i) in
                      Hashtbl.replace words key
                        (name
                        :: Option.value ~default:[]
                             (Hashtbl.find_opt words key)))
                    entry.Trace.moved)
                trace.Trace.entries;
              Hashtbl.iter
                (fun (u, s) rev_word ->
                  let word = List.rev rev_word in
                  if not (segment_language_ok word) then
                    Alcotest.failf
                      "process %d, segment %d: illegal SDR word %s" u s
                      (String.concat " " word))
                words
            done)
          [ List.nth (graph_zoo ()) 0; List.nth (graph_zoo ()) 5 ]);
    test "Segments and the normality tracker equal full recomputation \
          (zoo x every daemon)" (fun () ->
        List.iter
          (fun (name, g) ->
            differential_runs ~graph:g ~seeds:[ 1; 2; 3 ] ~max_steps:100_000
              ~algorithm:U12.Composed.algorithm ~stop:(U12.Composed.is_normal g)
              ~init:(fun seed -> arbitrary_cfg g (seed * 13))
              ~observer:(fun label cfg ->
                let label = name ^ "/" ^ label in
                let segments =
                  segments_observer (module U12.Composed) ~label ~graph:g cfg
                in
                let normal =
                  illegitimacy_observer ~label ~graph:g
                    ~legit:U12.Composed.p_normal
                    ~legitimate:(U12.Composed.is_normal g) cfg
                in
                fun ~step ~moved cfg ->
                  segments ~step ~moved cfg;
                  normal ~step ~moved cfg))
          (graph_zoo ())) ]

(* ------------------------- convergence bounds -------------------------- *)

let convergence_tests =
  [ test "3n-round and (3n+3)-move bounds hold on the zoo (Cor 4-5)"
      (fun () ->
        List.iter
          (fun (name, g) ->
            let n = Graph.n g in
            List.iter
              (fun daemon ->
                for seed = 1 to 2 do
                  let cfg = arbitrary_cfg g (seed * 7) in
                  let per_proc_sdr = Array.make n 0 in
                  let observer ~step:_ ~moved _ =
                    List.iter
                      (fun (u, rule) ->
                        if
                          String.length rule >= 4
                          && String.equal (String.sub rule 0 4) "SDR-"
                        then per_proc_sdr.(u) <- per_proc_sdr.(u) + 1)
                      moved
                  in
                  let r =
                    Engine.run ~rng:(rng seed) ~max_steps:200_000 ~observer
                      ~stop:(U12.Composed.is_normal g)
                      ~algorithm:U12.Composed.algorithm ~graph:g ~daemon cfg
                  in
                  if r.Engine.outcome <> Engine.Stabilized then
                    Alcotest.failf "%s under %s did not stabilize" name
                      daemon.Daemon.daemon_name;
                  if r.Engine.rounds > 3 * n then
                    Alcotest.failf "%s: %d rounds > 3n" name r.Engine.rounds;
                  Array.iteri
                    (fun u c ->
                      if c > (3 * n) + 3 then
                        Alcotest.failf "%s: process %d made %d SDR moves"
                          name u c)
                    per_proc_sdr
                done)
              (daemons ()))
          (graph_zoo ()));
    test "after one synchronous step no process satisfies P_Up (Lemma 11)"
      (fun () ->
        List.iter
          (fun (_, g) ->
            for seed = 20 to 24 do
              let cfg = arbitrary_cfg g seed in
              match
                Engine.step ~rng:(rng seed) ~algorithm:U12.Composed.algorithm
                  ~graph:g ~daemon:Daemon.synchronous ~step_index:0 cfg
              with
              | None -> ()
              | Some (next, _) ->
                  for u = 0 to Graph.n g - 1 do
                    check_false "P_Up gone"
                      (U12.Composed.p_up (Algorithm.view g next u))
                  done
            done)
          (graph_zoo ())) ]

let () =
  Alcotest.run "sdr"
    [ ("state and predicates", basic_tests);
      ("mutual exclusion", exclusion_tests);
      ("theorem 1", theorem1_tests);
      ("closure", closure_tests);
      ("segments", segment_tests);
      ("convergence", convergence_tests) ]
