(* CI gate: run the quick lint + footprint + model-check suite over every
   registered algorithm (all must be clean) and over the toy fixtures (all
   must be flagged — the checker must have no false negatives).  Wired
   under `dune runtest` from tools/dune; exits non-zero on any
   discrepancy. *)

module Registry = Ssreset_check.Registry
module Report = Ssreset_check.Report
module Model = Ssreset_check.Model
module Footprint = Ssreset_check.Footprint

let () =
  let failures = ref 0 in
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        incr failures;
        Printf.printf "FAIL %s\n" msg)
      fmt
  in
  let reports =
    List.map (fun e -> Registry.run ~mode:`Quick e) Registry.entries
  in
  List.iter
    (fun (r : Report.entry_report) ->
      let aborted =
        List.exists
          (fun (m : Report.model_item) -> m.Report.result.Model.aborted <> None)
          r.Report.models
      in
      if not (Report.entry_ok r) then
        fail "%s: findings or violations:@,%a" r.Report.name Report.pp [ r ]
      else
        Printf.printf "ok   %-14s lint clean (%d views), %d graphs verified%s\n"
          r.Report.name r.Report.lint_views
          (List.length r.Report.models)
          (if aborted then " (some runs aborted on budget)" else ""))
    reports;
  List.iter
    (fun e ->
      let r = Registry.run ~mode:`Quick e in
      let model_dirty =
        List.exists
          (fun (m : Report.model_item) ->
            m.Report.result.Model.violations <> [])
          r.Report.models
      and footprint_dirty =
        match r.Report.footprint with
        | None -> false
        | Some fp -> fp.Footprint.findings <> []
      and sym_dirty =
        match r.Report.sym with
        | None -> false
        | Some d -> not (Ssreset_check.Sym.diff_ok d)
      in
      let dirty =
        r.Report.lint <> [] || model_dirty || footprint_dirty || sym_dirty
      in
      if r.Report.name = "toy-badsym" && not sym_dirty then
        fail "toy-badsym: symbolic differential did NOT flag the lying IR";
      (* toy-badrank is the one bad-measure fixture: its IR is exact, so
         both rank checks must see the stutter — a differential mismatch
         tagged "rank" and a model "certificate" violation. *)
      if r.Report.name = "toy-badrank" then begin
        let rank_dirty =
          match r.Report.sym with
          | None -> false
          | Some d ->
              List.exists
                (fun (m : Ssreset_check.Sym.mismatch) ->
                  m.Ssreset_check.Sym.where = "rank")
                d.Ssreset_check.Sym.mismatches
        and cert_dirty =
          List.exists
            (fun (m : Report.model_item) ->
              List.exists
                (fun (v : Model.violation) -> v.Model.property = "certificate")
                m.Report.result.Model.violations)
            r.Report.models
        in
        if not rank_dirty then
          fail
            "toy-badrank: ranking differential did NOT flag the stuttering \
             rank";
        if not cert_dirty then
          fail "toy-badrank: model rank pass did NOT flag the stuttering rank"
      end;
      if not dirty then
        fail "%s: fixture was NOT flagged (false negative)" r.Report.name
      else
        Printf.printf
          "ok   %-16s fixture flagged as expected (%d lint, model %s, \
           footprint %s, sym %s)\n"
          r.Report.name
          (List.length r.Report.lint)
          (if model_dirty then "dirty" else "clean")
          (if footprint_dirty then "dirty" else "clean")
          (if sym_dirty then "dirty" else "clean"))
    Registry.fixtures;
  if !failures > 0 then begin
    Printf.printf "check_all: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "check_all: all clean"
