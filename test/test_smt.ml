(* check v4 — full-registry symbolic IRs + ranking/composition obligations.

   Four layers, no solver required for the first three:
   - differential: every registry-attached symbolic IR (all seven
     algorithms as of v4) must agree with its OCaml rules (enabled set +
     post-state, plus the rank differential where a spec carries one) on
     every connected graph up to n = 5, over strided view sweeps and under
     every registered daemon; the toy-badsym fixture's lying IR and the
     toy-badrank fixture's stuttering rank claim must both be caught.
   - printer/parser: Smt.to_string ∘ Smt.parse_string is the identity on
     the command list (modulo formatting), on every compiled obligation.
   - obligations: every compiled obligation (base families plus the
     comp.* composition family) for every spec × topology family must
     lint clean — no free symbols, no dead declarations, a check-sat —
     and the inventory must cover the acceptance floor (closure,
     climb-debt decrease, ≥ 3 §3.5 requirements, ranking and composition
     obligations on the ring; ≥ 100 obligations in total).
   - solving (skipped unless z3 is on PATH): the tail-unison climb-debt
     decrease, the tail-unison rank-decrease.TU-climb ranking obligation
     and the unison-sdr comp.rank-decrease.SDR-RF composition obligation
     on the ring must all come back unsat. *)

open Helpers
module Sym = Ssreset_check.Sym
module Smt = Ssreset_check.Smt
module Obligation = Ssreset_check.Obligation
module Registry = Ssreset_check.Registry
module Report = Ssreset_check.Report
module Toy = Ssreset_check.Toy

let entry name =
  match
    List.find_opt
      (fun (e : Registry.entry) -> e.Registry.name = name)
      (Registry.entries @ Registry.fixtures)
  with
  | Some e -> e
  | None -> Alcotest.failf "no registry entry %S" name

let sym_entries () =
  List.filter
    (fun (e : Registry.entry) -> e.Registry.sym <> None)
    Registry.entries

let spec_entries () =
  List.filter
    (fun (e : Registry.entry) ->
      e.Registry.smt_spec <> None || e.Registry.comp_spec <> None)
    (Registry.entries @ Registry.fixtures)

(* ----------------------------- differential ----------------------------- *)

let differential_tests =
  [ test "every registry IR agrees with its OCaml rules (all graphs n<=5)"
      (fun () ->
        let es = sym_entries () in
        check_true "all seven registry entries carry an IR"
          (List.length es >= 7);
        List.iter
          (fun (e : Registry.entry) ->
            let mk = Option.get e.Registry.sym in
            for n = e.Registry.min_n to 5 do
              List.iter
                (fun g ->
                  let d = Sym.check ~max_views_per_process:500 (mk g) in
                  if not (Sym.diff_ok d) then
                    Alcotest.failf "%s (n=%d): %a" e.Registry.name n
                      Fmt.(list ~sep:(any "; ") Sym.pp_mismatch)
                      d.Sym.mismatches;
                  check_true "probed views" (d.Sym.views > 0);
                  check_true "drove every daemon"
                    (d.Sym.daemons = List.length Daemon.registry))
                (Gen.all_connected n)
            done)
          es) ]

let fixture_tests =
  [ test "toy-badsym: the lying IR is caught by the differential" (fun () ->
        let d = Sym.check (Toy.badsym_sym (Gen.path 2)) in
        check_false "mismatch found" (Sym.diff_ok d);
        check_true "a guard mismatch names T-up"
          (List.exists
             (fun (m : Sym.mismatch) -> List.mem "T-up" m.Sym.rules)
             d.Sym.mismatches));
    test "toy-badsym fails Registry.run but only via the sym pass" (fun () ->
        let r = Registry.run ~mode:`Quick (entry "toy-badsym") in
        check_false "entry not ok" (Report.entry_ok r);
        check_true "lint clean" (r.Report.lint = []);
        check_true "model clean"
          (List.for_all
             (fun (m : Report.model_item) ->
               m.Report.result.Ssreset_check.Model.violations = [])
             r.Report.models);
        match r.Report.sym with
        | None -> Alcotest.fail "sym pass did not run"
        | Some d -> check_false "sym dirty" (Sym.diff_ok d));
    test "toy-badrank: the stuttering rank claim is caught" (fun () ->
        let d = Sym.check (Toy.badrank_sym (Gen.path 2)) in
        check_false "mismatch found" (Sym.diff_ok d);
        check_true "a rank mismatch is reported"
          (List.exists
             (fun (m : Sym.mismatch) -> m.Sym.where = "rank")
             d.Sym.mismatches));
    test "toy-badrank fails Registry.run only via its rank: differential \
          and model"
      (fun () ->
        let r = Registry.run ~mode:`Quick (entry "toy-badrank") in
        check_false "entry not ok" (Report.entry_ok r);
        check_true "lint clean" (r.Report.lint = []);
        (* the model pass evaluates the same rank_spec, so it flags the
           stutter too, and nothing else *)
        check_true "model flags only the certificate"
          (List.for_all
             (fun (m : Report.model_item) ->
               List.for_all
                 (fun (v : Ssreset_check.Model.violation) ->
                   v.Ssreset_check.Model.property = "certificate")
                 m.Report.result.Ssreset_check.Model.violations)
             r.Report.models
          && List.exists
               (fun (m : Report.model_item) ->
                 m.Report.result.Ssreset_check.Model.violations <> [])
               r.Report.models);
        match r.Report.sym with
        | None -> Alcotest.fail "sym pass did not run"
        | Some d ->
            check_false "sym dirty" (Sym.diff_ok d);
            check_true "every mismatch is a rank mismatch"
              (List.for_all
                 (fun (m : Sym.mismatch) -> m.Sym.where = "rank")
                 d.Sym.mismatches));
    test "well_formed rejects scoping errors" (fun () ->
        let ir =
          { Sym.ir_name = "bad";
            fields = [ ("c", Sym.TInt) ];
            params = [];
            ranges = [];
            rules =
              [ { Sym.rule = "R";
                  guard = Sym.Lt (Sym.Var (Sym.Nbr, "c"), Sym.Num 0);
                  assigns = [ ("d", Sym.Num 0) ] } ] }
        in
        let findings = Sym.well_formed ir in
        check_true "Nbr outside a quantifier flagged"
          (List.exists (fun f -> Astring_like.contains f "Nbr") findings);
        check_true "unknown assign target flagged"
          (List.exists (fun f -> Astring_like.contains f "d") findings)) ]

(* --------------------------- printer / parser --------------------------- *)

let all_obligations () =
  List.concat_map (fun e -> Registry.obligations e) (spec_entries ())

let roundtrip_tests =
  [ test "print/parse round-trip is the identity on every obligation"
      (fun () ->
        let obs = all_obligations () in
        check_true "at least 100 obligations" (List.length obs >= 100);
        List.iter
          (fun (ob : Obligation.t) ->
            let printed = Smt.to_string ob.Obligation.ob_script in
            match Smt.parse_string printed with
            | Error msg ->
                Alcotest.failf "%s: re-parse failed: %s"
                  (Obligation.filename ob) msg
            | Ok cmds ->
                check_int
                  (Obligation.filename ob ^ ": command count")
                  (List.length ob.Obligation.ob_script.Smt.body)
                  (List.length cmds);
                (* second print must be byte-identical: the parse kept
                   every atom (incl. string/quoted delimiters) intact *)
                let reprinted =
                  Smt.to_string { Smt.header = []; body = cmds }
                in
                let stripped =
                  String.concat "\n"
                    (List.filter
                       (fun l ->
                         String.length l = 0 || l.[0] <> ';')
                       (String.split_on_char '\n' printed))
                in
                check Alcotest.string
                  (Obligation.filename ob ^ ": idempotent print")
                  stripped reprinted)
          obs);
    test "parser reports malformed input with a line number" (fun () ->
        (match Smt.parse_string "(assert (= a" with
        | Error msg ->
            check_true "mentions a line" (Astring_like.contains msg "1")
        | Ok _ -> Alcotest.fail "unbalanced parens accepted");
        match Smt.parse_string "(assert x))" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "stray close paren accepted") ]

(* ------------------------------ obligations ----------------------------- *)

let obligation_tests =
  [ test "every obligation lints clean (no free vars, no dead decls)"
      (fun () ->
        List.iter
          (fun (ob : Obligation.t) ->
            match Smt.lint_script ob.Obligation.ob_script.Smt.body with
            | [] -> ()
            | findings ->
                Alcotest.failf "%s: %s" (Obligation.filename ob)
                  (String.concat "; " findings))
          (all_obligations ()));
    test "inventory covers the acceptance floor on the ring" (fun () ->
        let ring_obs name =
          Obligation.compile ~algo:name
            (Option.get (entry name).Registry.smt_spec)
            Obligation.Ring
        in
        let kinds obs = List.map (fun ob -> ob.Obligation.ob_kind) obs in
        let tail = kinds (ring_obs "tail-unison") in
        check_true "tail-unison ring closure"
          (List.mem Obligation.Closure tail);
        check_true "tail-unison ring climb-debt decrease"
          (List.exists
             (function Obligation.Cert_decrease _ -> true | _ -> false)
             tail);
        let uni = kinds (ring_obs "unison-sdr") in
        check_true "unison-sdr ring closure" (List.mem Obligation.Closure uni);
        check_true ">=3 requirement obligations"
          (List.length
             (List.filter
                (function Obligation.Requirement _ -> true | _ -> false)
                uni)
          >= 3);
        check_true "tail-unison ring carries ranking obligations"
          (List.mem (Obligation.Rank "rank-decrease.TU-climb") tail
          && List.mem (Obligation.Rank "rank-bounded") tail
          && List.mem (Obligation.Rank "rank-step") tail);
        let comp =
          kinds
            (Obligation.compile_composition ~algo:"unison-sdr"
               (Option.get (entry "unison-sdr").Registry.comp_spec)
               Obligation.Ring)
        in
        check_true "unison-sdr ring carries composition obligations"
          (List.mem (Obligation.Composition "rank-decrease.SDR-RF") comp
          && List.mem (Obligation.Composition "rank-bounded") comp));
    test "filenames are unique across the full inventory" (fun () ->
        let names = List.map Obligation.filename (all_obligations ()) in
        check_int "no duplicates"
          (List.length names)
          (List.length (List.sort_uniq String.compare names)));
    test "manifest JSON round-trips through the Json reader" (fun () ->
        let obs = all_obligations () in
        let json = Ssreset_obs.Json.to_string (Obligation.to_json obs) in
        match Ssreset_obs.Json.of_string json with
        | Error msg -> Alcotest.failf "manifest re-parse: %s" msg
        | Ok j ->
            check_int "count field"
              (List.length obs)
              (Option.get
                 (Option.bind
                    (Ssreset_obs.Json.member "count" j)
                    Ssreset_obs.Json.to_int_opt))) ]

(* ------------------------------- solving -------------------------------- *)

let solver_tests =
  let solver = "z3" in
  if not (Smt.solver_available solver) then
    [ test "z3 not on PATH — end-to-end solving skipped" (fun () -> ()) ]
  else
    [ test "climb-debt decrease on the ring is unsat under z3" (fun () ->
          let obs =
            List.filter
              (fun ob ->
                match ob.Obligation.ob_kind with
                | Obligation.Cert_decrease _ -> true
                | _ -> false)
              (Obligation.compile ~algo:"tail-unison"
                 (Option.get (entry "tail-unison").Registry.smt_spec)
                 Obligation.Ring)
          in
          check_true "at least one decrease obligation" (obs <> []);
          List.iter
            (fun ob ->
              let verdict = Smt.solve ~solver ob.Obligation.ob_script in
              check Alcotest.string
                (Obligation.filename ob)
                "unsat"
                (Smt.verdict_to_string verdict))
            obs);
      test "ranking + composition obligations on the ring are unsat under z3"
        (fun () ->
          let solve_one ob =
            let verdict = Smt.solve ~solver ob.Obligation.ob_script in
            check Alcotest.string
              (Obligation.filename ob)
              "unsat"
              (Smt.verdict_to_string verdict)
          in
          let rank_ob =
            List.find
              (fun ob ->
                ob.Obligation.ob_kind
                = Obligation.Rank "rank-decrease.TU-climb")
              (Obligation.compile ~algo:"tail-unison"
                 (Option.get (entry "tail-unison").Registry.smt_spec)
                 Obligation.Ring)
          in
          solve_one rank_ob;
          let comp_ob =
            List.find
              (fun ob ->
                ob.Obligation.ob_kind
                = Obligation.Composition "rank-decrease.SDR-RF")
              (Obligation.compile_composition ~algo:"unison-sdr"
                 (Option.get (entry "unison-sdr").Registry.comp_spec)
                 Obligation.Ring)
          in
          solve_one comp_ob) ]

let () =
  Alcotest.run "smt"
    [ ("differential", differential_tests);
      ("fixtures", fixture_tests);
      ("roundtrip", roundtrip_tests);
      ("obligations", obligation_tests);
      ("solver", solver_tests) ]
