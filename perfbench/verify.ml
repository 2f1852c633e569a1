(* verify: every Registry entry through the same passes as [ssreset check]
   — lint, footprint, the symbolic differential and the exhaustive model
   check on every connected graph up to isomorphism — plus its SMT
   obligations compiled, printed, re-parsed and linted.  Deterministic: the
   seed changes nothing.  Each call on one graph (or one entry's obligation
   set) is one timed unit. *)

open Harness
module Gen = Ssreset_graph.Gen
module Registry = Ssreset_check.Registry
module Lint = Ssreset_check.Lint
module Footprint = Ssreset_check.Footprint
module Sym = Ssreset_check.Sym
module Model = Ssreset_check.Model
module Obligation = Ssreset_check.Obligation
module Smt = Ssreset_check.Smt

type case = {
  key : string;  (** entry.n<k>.g<i> *)
  entry : Registry.entry;
  n : int;
  inst : Ssreset_check.Finite.t;
  target : Footprint.target;
  sym : Sym.instance option;
}

(* Graph-size ceiling: the entry's full one ([ssreset check]'s default),
   except min-unison at 3: its n = 4 sweep (6 graphs, 1.7M transitions
   each) is two thirds of a full pass and would leave time for one pass
   per run, so no unit could be timed twice. *)
let max_n (e : Registry.entry) =
  if String.equal e.Registry.name "min-unison" then min 3 e.Registry.max_n_full
  else e.Registry.max_n_full

(* Set-up: the graphs (timed apart as graph.gen_s) and the checker
   instances built on them. *)
let cases gen_s () =
  let graphs, dt =
    time (fun () ->
        List.map
          (fun (e : Registry.entry) ->
            ( e,
              List.init
                (max_n e - e.Registry.min_n + 1)
                (fun i ->
                  let n = e.Registry.min_n + i in
                  (n, Gen.all_connected n)) ))
          Registry.entries)
  in
  gen_s := dt :: !gen_s;
  List.concat_map
    (fun (e, by_n) ->
      List.concat_map
        (fun (n, graphs) ->
          List.mapi
            (fun i g ->
              { key = Printf.sprintf "%s.n%d.g%d" e.Registry.name n i;
                entry = e;
                n;
                inst = e.Registry.instance g;
                target = Registry.footprint_target e g;
                sym = Option.map (fun mk -> mk g) e.Registry.sym })
            graphs)
        by_n)
    graphs

let options (e : Registry.entry) =
  { Model.default_options with Model.expect_silent = e.Registry.expect_silent }

let opt_int = function Some v -> string_of_int v | None -> "-"

(* The model oracle: no violation, worst case within the paper's round
   bound when the entry declares one, and exact counts. *)
let check_model ctx c (m : Model.t) =
  let bound = Option.map (fun f -> f c.n) c.entry.Registry.round_bound in
  [ (match m.Model.violations with
    | [] -> None
    | v :: _ -> problem "%s: %s violation: %s" c.key v.Model.property v.Model.detail);
    (match (bound, m.Model.worst_rounds) with
    | Some b, Some w when w > b -> problem "%s: worst case %d rounds above the bound %d" c.key w b
    | _ -> None);
    count ctx (c.key ^ ".model")
      (Printf.sprintf "%d %d %s %s" m.Model.stats.Model.configs m.Model.stats.Model.transitions
         (opt_int m.Model.worst_moves) (opt_int m.Model.worst_rounds)) ]

let obligations (e : Registry.entry) =
  (match e.Registry.smt_spec with
  | None -> []
  | Some spec -> Obligation.compile_all ~algo:e.Registry.name spec)
  @
  match e.Registry.comp_spec with
  | None -> []
  | Some spec -> Obligation.compile_composition_all ~algo:e.Registry.name spec

(* compile → print → re-parse → lint; returns the obligation count and the
   first defect. *)
let smt_round_trip e =
  let obs = obligations e in
  let defect =
    List.find_map
      (fun (ob : Obligation.t) ->
        match Smt.parse_string (Smt.to_string ob.Obligation.ob_script) with
        | Error msg -> Some (Obligation.filename ob ^ ": " ^ msg)
        | Ok cmds -> (
            match Smt.lint_script cmds with
            | [] -> None
            | finding :: _ -> Some (Obligation.filename ob ^ ": " ^ finding)))
      obs
  in
  (List.length obs, defect)

let run ctx =
  let gen_s = ref [] in
  let cases = setup ctx ~reps:51 (cases gen_s) in
  let transitions = ref 0 and configs = ref 0 and passes_run = ref 0 in
  let pass () =
    incr passes_run;
    let timed name key f check =
      Option.map fst (op ~unit:(key ^ "/" ^ name) ctx ~name f check)
    in
    let per_case c =
      ignore
        (timed "check.lint" c.key
          (fun () -> Lint.run c.inst)
          (function
            | [] -> []
            | (f : Lint.finding) :: _ -> [ problem "%s: lint %s" c.key f.Lint.lint ]));
      ignore
        (timed "check.footprint" c.key
          (fun () -> Footprint.analyze c.target)
          (fun fp ->
            match fp.Footprint.findings with
            | [] -> []
            | f :: _ -> [ problem "%s: footprint %s" c.key f.Footprint.check ]));
      Option.iter
        (fun si ->
          ignore
            (timed "check.sym" c.key
              (fun () -> Sym.check si)
              (fun d ->
                [ (if Sym.diff_ok d then None else problem "%s: symbolic IR mismatch" c.key);
                  count ctx (c.key ^ ".sym") (Printf.sprintf "%d %d" d.Sym.views d.Sym.steps) ])))
        c.sym;
      timed "check.model" c.key
        (fun () -> Model.check ~options:(options c.entry) c.inst)
        (check_model ctx c)
      |> Option.iter (fun (m : Model.t) ->
             add_moves ctx m.Model.stats.Model.transitions;
             transitions := !transitions + m.Model.stats.Model.transitions;
             configs := !configs + m.Model.stats.Model.configs)
    in
    let per_entry (e : Registry.entry) =
      ignore
        (timed "check.smt" e.Registry.name
           (fun () -> smt_round_trip e)
           (fun (count_obs, defect) ->
             [ (match defect with Some d -> problem "%s" d | None -> None);
               count ctx (e.Registry.name ^ ".obligations") (string_of_int count_obs) ]))
    in
    List.iter per_case cases;
    List.iter per_entry Registry.entries
  in
  drive ctx ~pass_s:5. ~plain_share:0.5 ~pass ~traced_pass:pass
    ~traced_metrics:(fun ~per_pass ->
      set ctx "graph.gen_s" (median !gen_s);
      List.iter
        (fun s -> set ctx ("check." ^ s ^ "_s") (per_pass (Spans.total ("check." ^ s))))
        [ "lint"; "footprint"; "sym"; "model"; "smt" ];
      (* One pass's exact totals: the counters ran over every pass, plain
         and traced alike. *)
      let passes = !passes_run in
      set ctx "check.configs" (float_of_int (!configs / passes));
      set ctx "check.transitions" (float_of_int (!transitions / passes));
      set ctx "check.configs_per_s"
        (float_of_int (!configs / passes) /. per_pass (Spans.total "check.model"));
      set ctx "check.obligations"
        (float_of_int
           (List.fold_left (fun acc e -> acc + List.length (obligations e)) 0 Registry.entries)))
