open Helpers
module Algorithm = Ssreset_sim.Algorithm
module Finite = Ssreset_check.Finite
module Footprint = Ssreset_check.Footprint
module Lint = Ssreset_check.Lint
module Model = Ssreset_check.Model
module Registry = Ssreset_check.Registry
module Report = Ssreset_check.Report
module Sym = Ssreset_check.Sym
module Symmetry = Ssreset_check.Symmetry
module Toy = Ssreset_check.Toy

(* ---------------------------- graph enumeration ------------------------- *)

let enumeration_tests =
  [ test "all_connected counts one representative per isomorphism class"
      (fun () ->
        List.iter
          (fun (n, expected) ->
            let gs = Gen.all_connected n in
            check_int (Fmt.str "count n=%d" n) expected (List.length gs);
            List.iter
              (fun g ->
                check_int "order" n (Graph.n g);
                check_true "connected" (Graph.is_connected g))
              gs)
          [ (1, 1); (2, 1); (3, 2); (4, 6); (5, 21) ]) ]

(* ------------------------------ lint pass ------------------------------- *)

(* An order-sensitive rule: the action copies the state of the *first*
   neighbor in the local array — meaningless in an anonymous network. *)
let order_sensitive g =
  let copy_first =
    { Algorithm.rule_name = "copy-first";
      guard =
        (fun (v : int Algorithm.view) ->
          Array.length v.Algorithm.nbrs > 0
          && v.Algorithm.nbrs.(0) <> v.Algorithm.state);
      action = (fun v -> v.Algorithm.nbrs.(0)) }
  in
  Finite.make ~name:"order-sensitive"
    ~algorithm:
      { Algorithm.name = "order-sensitive";
        rules = [ copy_first ];
        equal = Int.equal;
        pp = Fmt.int }
    ~graph:g
    ~domain:(fun _ -> [ 0; 1 ])
    ~legitimate:(fun _ cfg ->
      Array.for_all (fun s -> s = cfg.(0)) cfg)
    ()

let lint_tests =
  [ test "permutation lint flags neighbor-order dependence" (fun () ->
        let findings = Lint.run (order_sensitive (Gen.path 3)) in
        check_true "flagged"
          (List.exists
             (fun (f : Lint.finding) ->
               f.Lint.lint = "permutation"
               && List.mem "copy-first" f.Lint.rules)
             findings));
    test "overlap and silent-move lints flag the toy-overlap fixture"
      (fun () ->
        let findings = Lint.run (Toy.overlap (Gen.path 2)) in
        let lints = List.map (fun (f : Lint.finding) -> f.Lint.lint) findings in
        check_true "overlap" (List.mem "overlap" lints);
        check_true "silent-move" (List.mem "silent-move" lints));
    test "every paper algorithm lints clean (registry parity)" (fun () ->
        List.iter
          (fun (e : Registry.entry) ->
            List.iter
              (fun g ->
                let findings = Lint.run (e.Registry.instance g) in
                if findings <> [] then
                  Alcotest.failf "%s on n=%d: %a" e.Registry.name (Graph.n g)
                    Fmt.(list ~sep:(any "; ") Lint.pp_finding)
                    findings)
              (Gen.all_connected
                 (max e.Registry.min_n (min 3 e.Registry.max_n_quick))))
          Registry.entries) ]

(* ---------------------------- model checker ----------------------------- *)

(* Rules that walk straight out of the legitimate set and stop in an
   illegitimate terminal configuration: closure and dead-end violations. *)
let escaping g =
  let escape =
    { Algorithm.rule_name = "escape";
      guard = (fun (v : int Algorithm.view) -> v.Algorithm.state = 0);
      action = (fun _ -> 1) }
  in
  Finite.make ~name:"escaping"
    ~algorithm:
      { Algorithm.name = "escaping";
        rules = [ escape ];
        equal = Int.equal;
        pp = Fmt.int }
    ~graph:g
    ~domain:(fun _ -> [ 0; 1 ])
    ~legitimate:(fun _ cfg -> Array.for_all (fun s -> s = 0) cfg)
    ()

let properties (r : Model.t) =
  List.map (fun (v : Model.violation) -> v.Model.property) r.Model.violations

let model_tests =
  [ test "toy-livelock: the illegitimate cycle is found (no false negative)"
      (fun () ->
        let r = Model.check (Toy.livelock (Gen.ring 3)) in
        check_true "livelock" (List.mem "livelock" (properties r));
        check_true "no abort" (r.Model.aborted = None));
    test "toy-overlap: model-level violations are found" (fun () ->
        let r = Model.check (Toy.overlap (Gen.path 2)) in
        check_true "dirty" (r.Model.violations <> []));
    test "closure and dead-end violations are distinguished" (fun () ->
        let r = Model.check (escaping (Gen.path 2)) in
        let ps = properties r in
        check_true "closure" (List.mem "closure" ps);
        check_true "dead-end" (List.mem "dead-end" ps));
    test "exact worst case matches the paper bound on the single process"
      (fun () ->
        (* unison-sdr on n=1: worst recovery is exactly 3 moves and 3
           rounds (RB, RF, C), meeting the 3n bound with equality. *)
        let e =
          List.find (fun e -> e.Registry.name = "unison-sdr") Registry.entries
        in
        let g = List.hd (Gen.all_connected 1) in
        let r = Model.check (e.Registry.instance g) in
        check_true "clean" (r.Model.violations = []);
        check (Alcotest.option Alcotest.int) "moves" (Some 3)
          r.Model.worst_moves;
        check (Alcotest.option Alcotest.int) "rounds" (Some 3)
          r.Model.worst_rounds);
    test "min-unison has no livelock on any connected graph up to n = 4"
      (fun () ->
        (* regression: the first reconstruction (in-ring reset to 0)
           livelocked on C4 — a clock at 2 and its reset chased each other
           around the hole.  The corrected tail reconstruction must verify
           clean on every connected graph up to n = 4. *)
        let e =
          List.find (fun e -> e.Registry.name = "min-unison") Registry.entries
        in
        for n = 1 to 4 do
          List.iter
            (fun g ->
              let r = Model.check (e.Registry.instance g) in
              check_true
                (Fmt.str "no abort n=%d m=%d" n (Graph.m g))
                (r.Model.aborted = None);
              if r.Model.violations <> [] then
                Alcotest.failf "n=%d m=%d: %s" n (Graph.m g)
                  (String.concat "; " (properties r)))
            (Gen.all_connected n)
        done) ]

(* ------------------------------ symmetry -------------------------------- *)

let sorted_props r = List.sort compare (properties r)

(* The reduction must be invisible: same verdicts, same exact worst cases. *)
let check_reduction_parity name inst =
  let base = Model.check inst in
  let red =
    Model.check ~options:{ Model.default_options with symmetry = true } inst
  in
  check Alcotest.(list string) (name ^ " violations") (sorted_props base)
    (sorted_props red);
  check
    Alcotest.(option string)
    (name ^ " aborted") base.Model.aborted red.Model.aborted;
  check
    Alcotest.(option int)
    (name ^ " worst moves") base.Model.worst_moves red.Model.worst_moves;
  check
    Alcotest.(option int)
    (name ^ " worst rounds") base.Model.worst_rounds red.Model.worst_rounds

let entry name = List.find (fun e -> e.Registry.name = name) Registry.entries

let symmetry_tests =
  [ test "automorphism groups of the small zoo" (fun () ->
        List.iter
          (fun (name, g, expected) ->
            check_int name expected (Symmetry.order (Symmetry.of_graph g)))
          [ ("path3", Gen.path 3, 2);
            ("ring4", Gen.ring 4, 8);
            ("K4", Gen.complete 4, 24);
            ("star4", Gen.star 4, 6);
            ("ring5", Gen.ring 5, 10) ]);
    test "canonicalize picks one representative per orbit" (fun () ->
        let sym = Symmetry.of_graph (Gen.ring 4) in
        let rng = rng 42 in
        for _ = 1 to 100 do
          let cfg = Array.init 4 (fun _ -> Random.State.int rng 3) in
          let canon = Symmetry.canonicalize sym cfg in
          Array.iter
            (fun p ->
              let permuted = Array.init 4 (fun i -> cfg.(p.(i))) in
              check
                Alcotest.(array int)
                "orbit-invariant" canon
                (Symmetry.canonicalize sym permuted))
            (Symmetry.auts sym);
          (* the canonical form is itself a member of the orbit *)
          check_true "in orbit"
            (Array.exists
               (fun p -> Array.init 4 (fun i -> cfg.(p.(i))) = canon)
               (Symmetry.auts sym))
        done);
    test "iter_canonical agrees with canonicalizing the full product"
      (fun () ->
        let sym = Symmetry.of_graph (Gen.ring 4) in
        let seen = Hashtbl.create 64 in
        Symmetry.iter_canonical sym ~arity:3 (fun digits ->
            Hashtbl.replace seen (Array.to_list digits) ());
        let expected = Hashtbl.create 64 in
        for code = 0 to (3 * 3 * 3 * 3) - 1 do
          let cfg = Array.make 4 0 in
          let c = ref code in
          for i = 0 to 3 do
            cfg.(i) <- !c mod 3;
            c := !c / 3
          done;
          Hashtbl.replace expected
            (Array.to_list (Symmetry.canonicalize sym cfg))
            ()
        done;
        check_int "orbit count" (Hashtbl.length expected) (Hashtbl.length seen);
        Hashtbl.iter
          (fun k () -> check_true "canonical" (Hashtbl.mem expected k))
          seen);
    test "reduced verdicts and worst cases match the unreduced checker"
      (fun () ->
        for n = 1 to 3 do
          List.iter
            (fun g ->
              let tag e = Fmt.str "%s n=%d m=%d" e n (Graph.m g) in
              check_reduction_parity (tag "tail-unison")
                ((entry "tail-unison").Registry.instance g);
              check_reduction_parity (tag "min-unison")
                ((entry "min-unison").Registry.instance g))
            (Gen.all_connected n)
        done;
        check_reduction_parity "unison-sdr n=2"
          ((entry "unison-sdr").Registry.instance (Gen.path 2));
        check_reduction_parity "toy-livelock ring3"
          (Toy.livelock (Gen.ring 3)));
    test "orbit counts: tail-unison on K3 explores C(13,3) = 286 seeds"
      (fun () ->
        let r =
          Model.check
            ~options:{ Model.default_options with symmetry = true }
            ((entry "tail-unison").Registry.instance (Gen.complete 3))
        in
        check_int "configs" 286 r.Model.stats.Model.configs;
        check
          Alcotest.(option int)
          "automorphisms" (Some 6) r.Model.automorphisms);
    test "symmetry-reduced checking reproduces the C5 tail-unison livelock"
      (fun () ->
        (* Discovered by this pass: the homegrown tail-reset unison
           livelocks on the 5-cycle (a reset wave chases a clock at 2
           around the odd hole forever) — beyond the old exhaustive
           envelope (n <= 4).  Reduction makes the 17^5-configuration
           space fit the budget as 144,449 orbits; pin the verdict. *)
        let r =
          Model.check
            ~options:{ Model.default_options with symmetry = true }
            ((entry "tail-unison").Registry.instance (Gen.ring 5))
        in
        check_true "no abort" (r.Model.aborted = None);
        check_true "livelock" (List.mem "livelock" (properties r))) ]

(* ----------------------------- certificates ----------------------------- *)

let cert_tests =
  [ test "lex_lt is a strict lexicographic order" (fun () ->
        check_true "lt" (Sym.lex_lt [ 1; 9 ] [ 2; 0 ]);
        check_true "tie then lt" (Sym.lex_lt [ 2; 1 ] [ 2; 3 ]);
        check_false "eq" (Sym.lex_lt [ 2; 3 ] [ 2; 3 ]);
        check_false "gt" (Sym.lex_lt [ 3; 0 ] [ 2; 9 ]);
        (* length mismatch is never "less": it must surface as a
           violation rather than vacuously pass *)
        check_false "short" (Sym.lex_lt [ 1 ] [ 2; 3 ]);
        check_false "empty" (Sym.lex_lt [] [ 1 ]));
    test "rank_step: strict decrease, stutter and a component below 0"
      (fun () ->
        let rk =
          { Sym.rk_name = "c";
            rk_rules = [ "R" ];
            rk_components = [ Sym.Var (Sym.Self, "c") ] }
        in
        let step pre post =
          Sym.rank_step ~params:[] rk
            ~pre:[ ("c", Sym.VInt pre) ]
            ~post:[ ("c", Sym.VInt post) ]
        in
        let fails_with what r =
          match r with
          | Ok () -> false
          | Error msg -> Astring_like.contains msg what
        in
        check_true "2 -> 1" (step 2 1 = Ok ());
        check_true "1 -> 1 stutters"
          (fails_with "does not strictly decrease" (step 1 1));
        (* a decrease that leaves the naturals is not a well-founded step *)
        check_true "0 -> -1 unbounded"
          (fails_with "not bounded below" (step 0 (-1)));
        check_true "-1 -> -2 unbounded"
          (fails_with "not bounded below" (step (-1) (-2))));
    test "every entry's certificate is its spec's rank, clean on path 2"
      (fun () ->
        let expected =
          [ ("min-unison", Some "climb-debt");
            ("tail-unison", Some "climb-debt");
            ("unison-sdr", Some "wave-completion");
            ("coloring-sdr", Some "undecided");
            ("mis-sdr", Some "undecided");
            ("matching-sdr", None);
            ("fga-sdr", None) ]
        in
        check
          Alcotest.(list string)
          "every entry covered" (List.map fst expected)
          (List.map (fun (e : Registry.entry) -> e.Registry.name)
             Registry.entries);
        List.iter
          (fun (name, rank) ->
            let e = entry name in
            let spec_rank =
              List.find_map
                (fun (s : Sym.spec) ->
                  Option.map (fun r -> r.Sym.rk_name) s.Sym.sp_rank)
                (List.filter_map Fun.id
                   [ e.Registry.comp_spec; e.Registry.smt_spec ])
            in
            check Alcotest.(option string) (name ^ " spec rank") rank spec_rank;
            let r = Model.check (e.Registry.instance (Gen.path 2)) in
            check Alcotest.(option string) name rank r.Model.certificate;
            check_true (name ^ " clean") (r.Model.violations = []))
          expected) ]

(* ------------------------------ footprint ------------------------------- *)

let footprint_tests =
  [ test "monolithic footprint of tail-unison reads self and neighbors"
      (fun () ->
        let fp =
          Footprint.analyze
            (Footprint.of_finite
               ((entry "tail-unison").Registry.instance (Gen.path 2)))
        in
        check_true "clean" (fp.Footprint.findings = []);
        check_false "not composed" fp.Footprint.composed;
        let tick =
          List.find
            (fun (r : Footprint.rule_footprint) ->
              r.Footprint.rule = Ssreset_unison.Tail_unison.rule_tick)
            fp.Footprint.rules
        in
        check
          Alcotest.(list string)
          "guard self" [ "state" ] tick.Footprint.guard_self;
        check
          Alcotest.(list string)
          "guard nbrs" [ "state" ] tick.Footprint.guard_nbrs;
        check
          Alcotest.(list string)
          "writes" [ "state" ] tick.Footprint.writes);
    test "composed unison-sdr passes every non-interference check" (fun () ->
        let fp =
          Footprint.analyze (Registry.footprint_target (entry "unison-sdr")
                               (Gen.path 2))
        in
        check_true "composed" fp.Footprint.composed;
        if fp.Footprint.findings <> [] then
          Alcotest.failf "findings: %a"
            Fmt.(list ~sep:(any "; ") Footprint.pp_finding)
            fp.Footprint.findings);
    test "toy-interference: the input-layer write to d is caught" (fun () ->
        let fp =
          Footprint.analyze (Toy.interference_footprint (Gen.path 2))
        in
        check_true "write-escape"
          (List.exists
             (fun (f : Footprint.finding) ->
               f.Footprint.check = "write-escape"
               && List.mem "TI-poke" f.Footprint.rules)
             fp.Footprint.findings));
    test "merge accumulates views and unions findings" (fun () ->
        let t g = Toy.interference_footprint g in
        let a = Footprint.analyze (t (Gen.path 2))
        and b = Footprint.analyze (t (Gen.path 3)) in
        let m = Footprint.merge [ a; b ] in
        check_int "views" (a.Footprint.views + b.Footprint.views)
          m.Footprint.views;
        check_true "findings survive" (m.Footprint.findings <> []));
    test "recorded footprints survive randomized differential probing"
      (fun () ->
        (* Soundness: at n = 2 the analyzer covers the whole view space,
           so no random probe may exhibit a read outside the recorded
           footprint — for all seven paper algorithms, composed targets
           included. *)
        List.iter
          (fun (e : Registry.entry) ->
            let n = max 2 e.Registry.min_n in
            let g = Gen.path n in
            let target = Registry.footprint_target e g in
            let fp =
              Footprint.analyze ~max_views_per_process:200_000 target
            in
            List.iter
              (fun seed ->
                match Footprint.differential ~trials:200 ~seed target fp with
                | None -> ()
                | Some d ->
                    Alcotest.failf "%s (seed %d): %s" e.Registry.name seed d)
              [ 1; 7; 23 ])
          Registry.entries) ]

(* ------------------------------- registry ------------------------------- *)

let registry_tests =
  [ test "find matches case-insensitive substrings" (fun () ->
        check_int "unison" 3 (List.length (Registry.find "UNISON"));
        check_int "toy" 5 (List.length (Registry.find "toy"));
        check_int "none" 0 (List.length (Registry.find "zzz")));
    test "fixtures are reported dirty, entries clean (quick mode)" (fun () ->
        List.iter
          (fun e ->
            let r = Registry.run ~mode:`Quick e in
            check_false
              (Fmt.str "%s dirty" e.Registry.name)
              (Report.entry_ok r))
          Registry.fixtures;
        let e = List.hd Registry.entries in
        check_true "first entry clean"
          (Report.entry_ok (Registry.run ~mode:`Quick ~max_n:3 e)));
    test "footprint:false skips the pass; graphs restricts the sweep"
      (fun () ->
        let e = entry "tail-unison" in
        let r =
          Registry.run ~mode:`Quick ~max_n:3 ~footprint:false
            ~graphs:(fun n -> [ Gen.complete n ])
            e
        in
        check_true "no footprint" (r.Report.footprint = None);
        check_int "one graph per size" 3 (List.length r.Report.models)) ]

let () =
  Alcotest.run "check"
    [ ("enumeration", enumeration_tests);
      ("lint", lint_tests);
      ("model", model_tests);
      ("symmetry", symmetry_tests);
      ("cert", cert_tests);
      ("footprint", footprint_tests);
      ("registry", registry_tests) ]
