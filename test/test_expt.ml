open Helpers
module Graph = Ssreset_graph.Graph
module Daemon = Ssreset_sim.Daemon
module Table = Ssreset_expt.Table
module Workload = Ssreset_expt.Workload
module Runner = Ssreset_expt.Runner
module Experiments = Ssreset_expt.Experiments
module Spec = Ssreset_alliance.Spec

(* -------------------------------- Table -------------------------------- *)

let table_tests =
  [ test "make validates row widths" (fun () ->
        check_true "raises"
          (match
             Table.make ~title:"t" ~headers:[ "a"; "b" ] [ [ "only-one" ] ]
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    test "render aligns columns and includes notes" (fun () ->
        let t =
          Table.make ~title:"demo" ~headers:[ "col"; "value" ]
            ~notes:[ "a note" ]
            [ [ "x"; "1" ]; [ "longer"; "22" ] ]
        in
        let s = Table.render t in
        check_true "title" (Astring_like.contains s "demo");
        check_true "note" (Astring_like.contains s "note: a note");
        check_true "header" (Astring_like.contains s "col");
        check_true "padding" (Astring_like.contains s "x     "));
    test "cells and all_ok" (fun () ->
        check Alcotest.string "int" "42" (Table.cell_int 42);
        check Alcotest.string "float" "1.50" (Table.cell_float 1.5);
        check Alcotest.string "ok" "ok" (Table.cell_bool true);
        check Alcotest.string "fail" "FAIL" (Table.cell_bool false);
        let t =
          Table.make ~title:"t" ~headers:[ "a"; "ok" ]
            [ [ "x"; "ok" ]; [ "y"; "ok" ] ]
        in
        check_true "all ok" (Table.all_ok t ~col:1);
        let t2 =
          Table.make ~title:"t" ~headers:[ "a"; "ok" ]
            [ [ "x"; "ok" ]; [ "y"; "FAIL" ] ]
        in
        check_false "not all ok" (Table.all_ok t2 ~col:1));
    test "to_csv quotes the awkward cells" (fun () ->
        let t =
          Table.make ~title:"csv" ~headers:[ "name"; "value" ]
            ~notes:[ "notes are not data" ]
            [ [ "plain"; "1" ];
              [ "comma,here"; "2" ];
              [ "quote\"here"; "3" ];
              [ "line\nbreak"; "4" ] ]
        in
        let csv = Table.to_csv t in
        check Alcotest.string "csv"
          "name,value\nplain,1\n\"comma,here\",2\n\"quote\"\"here\",3\n\"line\nbreak\",4\n"
          csv);
    test "to_json round-trips through the parser" (fun () ->
        let module Json = Ssreset_obs.Json in
        let t =
          Table.make ~title:"json" ~headers:[ "a"; "b" ] ~notes:[ "n1" ]
            [ [ "x"; "1" ]; [ "y"; "2" ] ]
        in
        let json = Table.to_json t in
        let reparsed = Json.of_string_exn (Json.to_string json) in
        check_true "round-trip" (Json.equal json reparsed);
        check Alcotest.(option string) "title" (Some "json")
          (Option.bind (Json.member "title" json) Json.to_string_opt));
    test "ok fails a table with a false ok cell" (fun () ->
        let table rows = Table.make ~title:"t" ~headers:[ "a"; "ok" ] rows in
        check_true "all ok" (Table.ok (table [ [ "x"; "ok" ]; [ "y"; "ok" ] ]));
        check_false "one false cell fails the table"
          (Table.ok
             (table [ [ "x"; "ok" ]; [ "y"; Table.cell_bool false ] ]));
        check_true "a table without an ok column passes"
          (Table.ok
             (Table.make ~title:"t" ~headers:[ "ok"; "b" ] [ [ "FAIL"; "1" ] ])))
  ]

(* ------------------------------- Workload ------------------------------ *)

let workload_tests =
  [ test "families build graphs of the requested size" (fun () ->
        List.iter
          (fun (family : Workload.family) ->
            let g = family.Workload.build ~seed:3 ~n:18 in
            check_true
              (family.Workload.family_name ^ " size")
              (abs (Graph.n g - 18) <= 6);
            check_true
              (family.Workload.family_name ^ " connected")
              (Graph.is_connected g))
          Workload.standard);
    test "deterministic families ignore the seed" (fun () ->
        let a = Workload.ring.Workload.build ~seed:1 ~n:12 in
        let b = Workload.ring.Workload.build ~seed:99 ~n:12 in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "same" (Graph.edges a) (Graph.edges b));
    test "small_connected_graphs counts labeled connected graphs" (fun () ->
        (* 1 on 2 vertices, 4 on 3 vertices, 38 on 4 vertices *)
        check_int "n<=3" 5
          (List.length (Workload.small_connected_graphs ~max_n:3));
        check_int "n<=4" 43
          (List.length (Workload.small_connected_graphs ~max_n:4));
        List.iter
          (fun g -> check_true "connected" (Graph.is_connected g))
          (Workload.small_connected_graphs ~max_n:4));
    test "by_name resolves every listed family name" (fun () ->
        List.iter
          (fun name ->
            check_true name (Option.is_some (Workload.by_name name)))
          Workload.names;
        check_true "unknown" (Workload.by_name "nope" = None)) ]

(* -------------------------------- Runner ------------------------------- *)

let runner_tests =
  [ test "daemon_by_name covers the registry and rejects strangers" (fun () ->
        (* every registry name resolves, and the registry still contains the
           historical zoo (parity with the pre-registry hardcoded lists) *)
        let names = Daemon.names in
        List.iter (fun name -> ignore (Runner.daemon_by_name name)) names;
        List.iter
          (fun name -> check_true (name ^ " registered") (List.mem name names))
          [ "synchronous"; "central-random"; "central-first"; "central-last";
            "round-robin"; "distributed-random"; "locally-central";
            "adversarial"; "starve" ];
        check_int "no duplicate names"
          (List.length names)
          (List.length (List.sort_uniq compare names));
        List.iter
          (fun (name, (d : Daemon.t)) ->
            check_true (name ^ " fresh") (Daemon.by_name name <> None);
            ignore d)
          Daemon.registry;
        check_true "unknown"
          (match Runner.daemon_by_name "nope" with
          | exception Invalid_argument _ -> true
          | _ -> false)) ]

(* The runner stops on a tracker of the processes where the system's
   per-process legitimacy predicate fails.  At every step of runs over the
   zoo under every registered daemon, that tracker (and, for FGA∘SDR, the
   alive-root tracker) must equal a full recomputation. *)

(* A system that stops on legitimacy, instantiated on one graph: [legit] is
   the runner's per-process predicate, [legitimate] the full one. *)
type 'state legit_system = {
  algorithm : 'state Algorithm.t;
  gen : 'state Fault.generator;
  legit : 'state Algorithm.view -> bool;
  legitimate : 'state array -> bool;
}

let tail_unison g =
  let n = Graph.n g in
  let module T = Ssreset_unison.Tail_unison.Make (struct
    let k = (2 * n) + 2
    let alpha = n
  end) in
  { algorithm = T.algorithm;
    gen = T.clock_gen;
    legit = T.p_legitimate;
    legitimate = T.is_legitimate g }

let min_unison g =
  let n = Graph.n g in
  let module M = Ssreset_unison.Min_unison.Make (struct
    let k = (n * n) + 1
    let alpha = max 1 (n - 2)
  end) in
  { algorithm = M.algorithm;
    gen = M.clock_gen;
    legit = M.p_legitimate;
    legitimate = M.is_legitimate g }

let agr_unison g =
  let n = Graph.n g in
  let module U = Ssreset_unison.Unison.Make (struct
    let k = (2 * n) + 2
  end) in
  let module A =
    Ssreset_agreset.Agreset.Make
      (U.Input)
      (struct
        let graph = g
        let root = 0
      end)
  in
  { algorithm = A.algorithm;
    gen = A.generator ~inner:U.clock_gen;
    legit = A.p_normal;
    legitimate = A.is_normal g }

let legit_tracker_agrees instantiate () =
  List.iter
    (fun (name, g) ->
      let s = instantiate g in
      differential_runs ~graph:g ~seeds:[ 1; 2; 3 ] ~max_steps:20_000
        ~algorithm:s.algorithm ~stop:s.legitimate
        ~init:(fun seed -> Fault.arbitrary (rng seed) s.gen g)
        ~observer:(fun label ->
          illegitimacy_observer ~label:(name ^ "/" ^ label) ~graph:g
            ~legit:s.legit ~legitimate:s.legitimate))
    (graph_zoo ())

(* Random configurations are almost never legitimate, so draw clocks from a
   window of two consecutive values and corrupt a few: both outcomes occur,
   and the per-process form must agree with the edge form on each. *)
let local_form_agrees instantiate ~k =
  let outcomes = ref [] in
  List.iter
    (fun (name, g) ->
      let s = instantiate g in
      let n = Graph.n g in
      for seed = 1 to 200 do
        let r = rng seed in
        let base = Random.State.int r (k n) in
        let cfg =
          Array.init n (fun u ->
              if Random.State.int r (3 * n) = 0 then s.gen r u
              else (base + Random.State.int r 2) mod k n)
        in
        let legitimate = s.legitimate cfg in
        outcomes := legitimate :: !outcomes;
        check_bool
          (Printf.sprintf "%s, seed %d" name seed)
          legitimate
          (processes_where g cfg s.legit = List.init n Fun.id)
      done)
    (graph_zoo ());
  check_true "legitimate configurations drawn" (List.mem true !outcomes);
  check_true "illegitimate configurations drawn" (List.mem false !outcomes)

let tracker_tests =
  [ test "FGA∘SDR: Segments and the normality tracker equal full \
          recomputation (zoo x every daemon)" (fun () ->
        let spec = Spec.dominating_set in
        List.iter
          (fun (name, g) ->
            if Spec.feasible spec g then begin
              let module F = Ssreset_alliance.Fga.Make (struct
                let graph = g
                let spec = spec
                let ids = None
              end) in
              let gen =
                F.Composed.generator ~inner:F.gen ~max_d:(2 * Graph.n g)
              in
              differential_runs ~graph:g ~seeds:[ 1; 2; 3 ] ~max_steps:50_000
                ~algorithm:F.Composed.algorithm ~stop:(F.Composed.is_normal g)
                ~init:(fun seed -> Fault.arbitrary (rng seed) gen g)
                ~observer:(fun label cfg ->
                  let label = name ^ "/" ^ label in
                  let segments =
                    segments_observer (module F.Composed) ~label ~graph:g cfg
                  in
                  let normal =
                    illegitimacy_observer ~label ~graph:g
                      ~legit:F.Composed.p_normal
                      ~legitimate:(F.Composed.is_normal g) cfg
                  in
                  fun ~step ~moved cfg ->
                    segments ~step ~moved cfg;
                    normal ~step ~moved cfg)
            end)
          (graph_zoo ()));
    test "tail-unison: the legitimacy tracker equals is_legitimate"
      (legit_tracker_agrees tail_unison);
    test "min-unison: the legitimacy tracker equals is_legitimate"
      (legit_tracker_agrees min_unison);
    test "agr-unison: the normality tracker equals is_normal"
      (legit_tracker_agrees agr_unison);
    test "tail-unison: p_legitimate everywhere iff is_legitimate" (fun () ->
        local_form_agrees tail_unison ~k:(fun n -> (2 * n) + 2));
    test "min-unison: p_legitimate everywhere iff is_legitimate" (fun () ->
        local_form_agrees min_unison ~k:(fun n -> (n * n) + 1)) ]

(* One row of the runner table: a system on a graph under a daemon and a
   seed, with the steps, moves, rounds and segments the run is pinned to. *)
type row = {
  system : Runner.system;
  graph : string * Graph.t;
  daemon : string;
  seed : int;
  counts : int * int * int * int option;
}

(* Every row runs twice, with and without a step-tracing sink: both must be
   ok, agree on every field but the wall clock, match the pinned counts, and
   respect the bounds the system declares. *)
let row_name r =
  Printf.sprintf "%s on %s, %s" r.system.Runner.name (fst r.graph) r.daemon

let check_row r =
  let label = row_name r and graph = snd r.graph in
  let run ?sink () =
    Runner.run ?sink ~trace_steps:true r.system ~graph
      ~daemon:(Runner.daemon_by_name r.daemon) ~seed:r.seed ()
  in
  let o = run () in
  let null = open_out Filename.null in
  let sunk = run ~sink:(Ssreset_obs.Sink.of_channel null) () in
  close_out null;
  check_true (label ^ ": ok") (o.Runner.outcome_ok && o.Runner.result_ok);
  check_true (label ^ ": a sink changes nothing")
    ({ o with Runner.wall_s = 0. } = { sunk with Runner.wall_s = 0. });
  check
    Alcotest.(pair (pair int int) (pair int (option int)))
    (label ^ ": steps, moves, rounds, segments")
    (let steps, moves, rounds, segments = r.counts in
     ((steps, moves), (rounds, segments)))
    ((o.Runner.steps, o.Runner.moves), (o.Runner.rounds, o.Runner.segments));
  Option.iter
    (fun bound -> check_true (label ^ ": round bound") (o.Runner.rounds <= bound))
    (Runner.graph_bounds r.system graph).Runner.rounds_bound;
  match o.Runner.segments with
  | Some segments ->
      check_true (label ^ ": at most n+1 segments")
        (segments <= Graph.n graph + 1);
      check_true (label ^ ": SDR moves <= moves")
        (o.Runner.sdr_moves <= o.Runner.moves);
      check Alcotest.(option bool) (label ^ ": Remark 4") (Some true)
        o.Runner.ar_monotone
  | None ->
      check Alcotest.(option bool) (label ^ ": unmeasured") None
        o.Runner.ar_monotone;
      check_int (label ^ ": no SDR moves") 0 o.Runner.sdr_moves

let ring8 = ("ring-8", Workload.ring.Workload.build ~seed:1 ~n:8)
let sparse10 =
  ("sparse-random-10", Workload.sparse_random.Workload.build ~seed:2 ~n:10)

(* Steps, moves, rounds and segments at seed 3 for every system of the CLI
   table plus the experiment-only bare unison, on two graphs under two
   daemons. *)
let pinned =
  [ ("unison", "ring-8", "central-random", (23, 23, 4, Some 7));
    ("unison", "ring-8", "distributed-random", (17, 27, 4, Some 5));
    ("unison", "sparse-random-10", "central-random", (35, 35, 4, Some 10));
    ("unison", "sparse-random-10", "distributed-random", (17, 33, 5, Some 7));
    ("tail-unison", "ring-8", "central-random", (71, 71, 9, None));
    ("tail-unison", "ring-8", "distributed-random", (29, 59, 8, None));
    ("tail-unison", "sparse-random-10", "central-random", (81, 81, 11, None));
    ("tail-unison", "sparse-random-10", "distributed-random", (42, 108, 11, None));
    ("min-unison", "ring-8", "central-random", (57, 57, 7, None));
    ("min-unison", "ring-8", "distributed-random", (22, 59, 7, None));
    ("min-unison", "sparse-random-10", "central-random", (90, 90, 9, None));
    ("min-unison", "sparse-random-10", "distributed-random", (36, 93, 9, None));
    ("agr-unison", "ring-8", "central-random", (65, 65, 13, None));
    ("agr-unison", "ring-8", "distributed-random", (48, 76, 23, None));
    ("agr-unison", "sparse-random-10", "central-random", (86, 86, 16, None));
    ("agr-unison", "sparse-random-10", "distributed-random", (52, 117, 17, None));
    ("alliance", "ring-8", "central-random", (57, 57, 14, Some 7));
    ("alliance", "ring-8", "distributed-random", (39, 57, 19, Some 7));
    ("alliance", "sparse-random-10", "central-random", (109, 109, 27, Some 8));
    ("alliance", "sparse-random-10", "distributed-random", (59, 109, 26, Some 5));
    ("alliance-bare", "ring-8", "central-random", (33, 33, 14, None));
    ("alliance-bare", "ring-8", "distributed-random", (24, 33, 13, None));
    ("alliance-bare", "sparse-random-10", "central-random", (77, 77, 17, None));
    ("alliance-bare", "sparse-random-10", "distributed-random", (45, 79, 17, None));
    ("coloring", "ring-8", "central-random", (32, 32, 11, Some 7));
    ("coloring", "ring-8", "distributed-random", (22, 32, 10, Some 7));
    ("coloring", "sparse-random-10", "central-random", (40, 40, 7, Some 10));
    ("coloring", "sparse-random-10", "distributed-random", (22, 40, 7, Some 7));
    ("mis", "ring-8", "central-random", (28, 28, 10, Some 6));
    ("mis", "ring-8", "distributed-random", (23, 28, 11, Some 6));
    ("mis", "sparse-random-10", "central-random", (36, 36, 10, Some 7));
    ("mis", "sparse-random-10", "distributed-random", (27, 36, 12, Some 7));
    ("matching", "ring-8", "central-random", (26, 26, 6, Some 6));
    ("matching", "ring-8", "distributed-random", (24, 30, 12, Some 6));
    ("matching", "sparse-random-10", "central-random", (33, 33, 7, Some 8));
    ("matching", "sparse-random-10", "distributed-random", (26, 39, 10, Some 7));
    ("unison-bare", "ring-8", "central-random", (480, 480, 57, None));
    ("unison-bare", "ring-8", "distributed-random", (480, 1102, 130, None));
    ("unison-bare", "sparse-random-10", "central-random", (600, 600, 59, None));
    ("unison-bare", "sparse-random-10", "distributed-random", (600, 1541, 154, None)) ]

let table_rows =
  List.concat_map
    (fun (system : Runner.system) ->
      List.concat_map
        (fun ((glabel, _) as graph) ->
          List.map
            (fun daemon ->
              match
                List.find_opt
                  (fun (s, g, d, _) ->
                    s = system.Runner.name && g = glabel && d = daemon)
                  pinned
              with
              | Some (_, _, _, counts) ->
                  { system; graph; daemon; seed = 3; counts }
              | None ->
                  Alcotest.failf "no pinned counts for %s on %s, %s"
                    system.Runner.name glabel daemon)
            [ "central-random"; "distributed-random" ])
        [ ring8; sparse10 ])
    (Runner.systems ~spec:Spec.dominating_set @ [ Runner.unison_bare ])

let row_test name rows = test name (fun () -> List.iter check_row rows)

(* The four single-run checks keep their places right after daemon_by_name,
   ahead of the table rows. *)
let system_tests =
  [ row_test "unison_composed reports a consistent observation"
      [ { system = Runner.unison;
          graph = ("ring-10", Workload.ring.Workload.build ~seed:1 ~n:10);
          daemon = "distributed-random";
          seed = 3;
          counts = (21, 43, 5, Some 8) } ];
    row_test "fga_bare checks Lemma 25 and 1-minimality"
      [ { system = Runner.alliance_bare Spec.global_powerful;
          graph = ("complete-7", Workload.complete.Workload.build ~seed:1 ~n:7);
          daemon = "central-random";
          seed = 4;
          counts = (40, 40, 9, None) } ];
    row_test "tail_unison stabilizes and reports legitimacy"
      [ { system = Runner.tail_unison;
          graph = ("path-9", Workload.path.Workload.build ~seed:1 ~n:9);
          daemon = "synchronous";
          seed = 5;
          counts = (12, 86, 12, None) } ];
    row_test "coloring and MIS runners report silence"
      [ { system = Runner.coloring;
          graph = sparse10;
          daemon = "locally-central";
          seed = 6;
          counts = (17, 36, 13, Some 4) };
        { system = Runner.mis;
          graph = sparse10;
          daemon = "round-robin";
          seed = 7;
          counts = (37, 37, 10, Some 5) } ] ]
  @ List.map (fun r -> row_test (row_name r) [ r ]) table_rows

(* The convergence bounds are written once, on the system entry: a classic
   run and a flat run of the same system on the same network read the same
   pair, the flat ring taking ⌊n/2⌋ as its diameter. *)
let bounds_tests =
  let pair (b : Runner.bounds) =
    (b.Runner.rounds_bound, Option.map Lazy.force b.Runner.moves_bound)
  in
  let on_both system (family : Workload.family) ~n =
    let graph = family.Workload.build ~seed:2 ~n in
    let flat = Runner.prepare_flat system ~family ~n ~seed:2 in
    check_int "same network size" (Graph.n graph) flat.Runner.n;
    (Graph.n graph, graph, pair (Runner.graph_bounds system graph),
     pair flat.Runner.flat_bounds)
  in
  let bound_pair = Alcotest.(pair (option int) (option int)) in
  [ test "both engines read unison's 3n and D·n² from the system entry"
      (fun () ->
        List.iter
          (fun (family, n) ->
            let n, graph, classic, flat = on_both Runner.unison family ~n in
            let d = Ssreset_graph.Metrics.diameter graph in
            let label = family.Workload.family_name in
            check bound_pair (label ^ ": classic")
              (Some (3 * n), Some (d * n * n)) classic;
            check bound_pair (label ^ ": flat") classic flat)
          [ (Workload.ring, 12); (Workload.ring, 13); (Workload.grid, 12);
            (Workload.sparse_random, 16); (Workload.path, 2) ]);
    test "tail-unison and min-unison carry no bounds on either engine"
      (fun () ->
        List.iter
          (fun (system : Runner.system) ->
            List.iter
              (fun family ->
                let _, _, classic, flat = on_both system family ~n:10 in
                check bound_pair (system.Runner.name ^ ": classic")
                  (None, None) classic;
                check bound_pair (system.Runner.name ^ ": flat") (None, None)
                  flat)
              [ Workload.ring; Workload.grid ])
          [ Runner.tail_unison; Runner.min_unison ]) ]

(* ------------------------------ Experiments ---------------------------- *)

let tiny_profile =
  { Experiments.sizes = [ 8 ];
    fga_sizes = [ 7 ];
    seeds = 1;
    bare_steps_factor = 25;
    jobs = 1 }

let last_col_ok table =
  let cols = List.length table.Table.headers in
  Table.all_ok table ~col:(cols - 1)

let experiment_tests =
  [ test "E12 verifies Property 1 and finds the (0,2) witness" (fun () ->
        let t = Experiments.e12 () in
        check_true "all ok" (last_col_ok t);
        (* fourth column: the custom (0,2) row must be strictly positive,
           the f >= g rows must be zero *)
        let row name =
          List.find (fun r -> String.equal (List.hd r) name) t.Table.rows
        in
        check Alcotest.string "domset zero" "0"
          (List.nth (row "dominating-set") 4);
        check_true "(0,2) positive"
          (int_of_string (List.nth (row "(0,2)-alliance") 4) > 0));
    test "E1-E3 pass on a tiny profile" (fun () ->
        List.iter
          (fun t -> check_true t.Table.title (last_col_ok t))
          (Experiments.e1_e2_e3 tiny_profile));
    test "E4/E5 cells aggregate independent Runner.run calls" (fun () ->
        (* Each (daemon, seed) run of a sweep cell must be the run that
           [Runner.run] gives alone: no daemon state (the round-robin
           cursor) may leak from one seed's run into the next. *)
        let profile = { tiny_profile with Experiments.sizes = [ 12 ]; seeds = 2 } in
        let e4, e5 =
          match Experiments.e4_e5 profile with
          | [ e4; e5 ] -> (e4, e5)
          | _ -> Alcotest.fail "e4_e5 returns two tables"
        in
        let row table family =
          List.find (fun r -> String.equal (List.hd r) family) table.Table.rows
        in
        List.iter
          (fun (family : Workload.family) ->
            let graph = family.Workload.build ~seed:1 ~n:12 in
            let obs =
              List.concat_map
                (fun daemon ->
                  List.init 2 (fun i ->
                      Runner.run Runner.unison ~graph ~daemon ~seed:(i + 1) ()))
                Runner.experiment_daemons
            in
            let moves = List.map (fun (o : Runner.obs) -> o.Runner.moves) obs in
            let name = family.Workload.family_name in
            let e4_row = row e4 name and e5_row = row e5 name in
            check Alcotest.string (name ^ " max moves")
              (Table.cell_int (List.fold_left max 0 moves))
              (List.nth e4_row 3);
            check Alcotest.string (name ^ " mean moves")
              (Table.cell_float
                 (float_of_int (List.fold_left ( + ) 0 moves)
                 /. float_of_int (List.length moves)))
              (List.nth e4_row 4);
            check Alcotest.string (name ^ " max rounds")
              (Table.cell_int
                 (List.fold_left
                    (fun acc (o : Runner.obs) -> max acc o.Runner.rounds)
                    0 obs))
              (List.nth e5_row 2))
          [ Workload.ring; Workload.path; Workload.sparse_random ]);
    test "E7 passes on a tiny profile" (fun () ->
        check_true "e7" (last_col_ok (Experiments.e7 tiny_profile)));
    test "E13 passes on a tiny profile" (fun () ->
        check_true "e13" (last_col_ok (Experiments.e13 tiny_profile)));
    test "all experiments are registered with stable ids" (fun () ->
        check
          (Alcotest.list Alcotest.string)
          "ids"
          [ "E1-E3"; "E4-E5"; "E6"; "E7"; "E8"; "E9-E10"; "E11"; "E12";
            "E13"; "E14"; "E15"; "E16" ]
          (List.map
             (fun (id, tables) ->
               ignore (tables ());
               id)
             (Experiments.all_lazy tiny_profile));
        check
          (Alcotest.list Alcotest.string)
          "Experiments.ids"
          (List.map fst (Experiments.all_lazy tiny_profile))
          Experiments.ids) ]

let () =
  Alcotest.run "expt"
    [ ("table", table_tests);
      ("workload", workload_tests);
      ("runner", runner_tests @ system_tests @ bounds_tests);
      ("trackers", tracker_tests);
      ("experiments", experiment_tests) ]
