(* Benchmark harness.

   Usage: main.exe [--quick] [--no-timing] [--jobs N] [--out FILE]
                   [EXPERIMENT-ID ...]

   Without ids, regenerates every experiment table of the paper reproduction
   (E1..E16, see DESIGN.md and EXPERIMENTS.md) followed by the checker
   throughput sections (configs/s over the registry; check-v2 footprint
   views/s and symmetry-reduced orbits/s; check-v3 SMT obligation
   compilation and symbolic-differential rates), the engine scheduler
   throughput section and the Bechamel wall-clock suite (B1).  Exit status
   is non-zero if any table reports a violated bound.

   [--jobs N] fans the grid cells of each experiment across N OCaml domains
   (default: the profile's setting, 1).  Tables and the results file are
   byte-identical for any N — parallelism only changes wall-clock.

   Besides the text tables, the harness always writes a machine-readable
   results file (default BENCH_results.json): per-experiment wall-clock,
   pass/fail, the tables themselves, and the margin of every proved bound
   (measured / bound, extracted from "bound …" column pairs and from
   pre-computed ratio columns such as "max/(D·n²)"). *)

module Expt = Ssreset_expt
module Table = Ssreset_expt.Table
module Json = Ssreset_obs.Json

let available =
  [ "E1-E3"; "E4-E5"; "E6"; "E7"; "E8"; "E9-E10"; "E11"; "E12"; "E13"; "E14"; "E15"; "E16" ]

let parse_args () =
  let quick = ref false in
  let timing = ref true in
  let out = ref "BENCH_results.json" in
  let jobs = ref None in
  let ids = ref [] in
  let i = ref 1 in
  let argc = Array.length Sys.argv in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--quick" -> quick := true
    | "--full" -> quick := false
    | "--no-timing" -> timing := false
    | "--out" when !i + 1 < argc ->
        incr i;
        out := Sys.argv.(!i)
    | "--jobs" when !i + 1 < argc ->
        incr i;
        (match int_of_string_opt Sys.argv.(!i) with
        | Some j when j >= 1 -> jobs := Some j
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n"
              Sys.argv.(!i);
            exit 2)
    | "--help" | "-h" ->
        Printf.printf
          "usage: %s [--quick] [--no-timing] [--jobs N] [--out FILE] \
           [EXPERIMENT-ID ...]\n\
           experiments: %s\n"
          Sys.argv.(0)
          (String.concat " " available);
        exit 0
    | id when List.mem id available -> ids := id :: !ids
    | other ->
        Printf.eprintf "unknown argument %S (try --help)\n" other;
        exit 2);
    incr i
  done;
  (!quick, !timing, !out, !jobs, List.rev !ids)

(* A table passes when its last column is all "ok". *)
let table_ok table =
  let cols = List.length table.Table.headers in
  match List.nth_opt table.Table.headers (cols - 1) with
  | Some "ok" -> Table.all_ok table ~col:(cols - 1)
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Bound margins.                                                      *)
(*                                                                     *)
(* Two shapes of bound reporting appear in the tables:                 *)
(*   …; "max rounds"; "bound 3n"; …   — a measured column followed by  *)
(*       its bound column: margin = measured / bound, per row;         *)
(*   …; "max/(D·n²)"; …               — a pre-computed ratio column.   *)
(* Either way we record the worst (largest) ratio over the rows; a     *)
(* margin ≤ 1 means the proved bound held with room to spare.          *)
(* ------------------------------------------------------------------ *)

let is_bound_header h = String.length h > 6 && String.sub h 0 6 = "bound "
let is_ratio_header h =
  (* e.g. "max/(D·n²)", "max/(Δ·n·m)", "tail/ours" *)
  String.contains h '/'

let cell_float row i =
  match List.nth_opt row i with
  | Some cell -> float_of_string_opt cell
  | None -> None

let margins_of_table (t : Table.t) =
  let headers = Array.of_list t.Table.headers in
  let worst f =
    List.fold_left
      (fun acc row -> match f row with
        | Some r when not (Float.is_nan r) -> Float.max acc r
        | _ -> acc)
      neg_infinity t.Table.rows
  in
  let margins = ref [] in
  Array.iteri
    (fun i h ->
      if is_bound_header h && i > 0 then begin
        let ratio row =
          match (cell_float row (i - 1), cell_float row i) with
          | Some measured, Some bound when bound > 0. ->
              Some (measured /. bound)
          | _ -> None
        in
        let r = worst ratio in
        if r > neg_infinity then
          margins :=
            Json.Obj
              [ ("measured", Json.String headers.(i - 1));
                ("bound", Json.String h);
                ("max_ratio", Json.Float r) ]
            :: !margins
      end
      else if is_ratio_header h then begin
        let r = worst (fun row -> cell_float row i) in
        if r > neg_infinity then
          margins :=
            Json.Obj
              [ ("ratio", Json.String h); ("max_ratio", Json.Float r) ]
            :: !margins
      end)
    headers;
  List.rev !margins

let run_experiments ~profile ~ids =
  let failures = ref 0 in
  let records = ref [] in
  let wanted (id, _) = ids = [] || List.mem id ids in
  let selected = List.filter wanted (Expt.Experiments.all_lazy profile) in
  List.iter
    (fun (id, force_tables) ->
      Printf.printf "== %s ==\n%!" id;
      let t0 = Unix.gettimeofday () in
      let tables = force_tables () in
      let ok = ref true in
      List.iter
        (fun table ->
          Table.print table;
          if not (table_ok table) then begin
            incr failures;
            ok := false;
            Printf.printf "  *** BOUND VIOLATED in this table ***\n"
          end;
          print_newline ())
        tables;
      let wall_s = Unix.gettimeofday () -. t0 in
      records :=
        Json.Obj
          [ ("id", Json.String id);
            ("ok", Json.Bool !ok);
            ("wall_s", Json.Float wall_s);
            ("domains", Json.Int profile.Expt.Experiments.jobs);
            ("margins",
             Json.List (List.concat_map margins_of_table tables));
            ("tables", Json.List (List.map Table.to_json tables)) ]
        :: !records)
    selected;
  (!failures, List.rev !records)

(* ------------------------------------------------------------------ *)
(* Engine scheduler throughput: full per-step rescan vs the dirty-set  *)
(* incremental scheduler, on a U∘SDR ring under the central-random     *)
(* daemon (one mover per step — the worst case for a full rescan, and  *)
(* the common case under central daemons).  Both runs execute exactly  *)
(* the same step sequence (same seed, same table semantics), so the    *)
(* steps/s ratio isolates the scheduling cost.                         *)
(* ------------------------------------------------------------------ *)

let run_engine_bench ~quick =
  Printf.printf "== engine: scheduler throughput, U∘SDR ring, central-random \
                 daemon ==\n%!";
  let sizes = [ 64; 256; 1024 ] in
  let records =
    List.map
      (fun n ->
        let graph = Ssreset_graph.Gen.ring n in
        let module U = Ssreset_unison.Unison.Make (struct
          let k = (2 * n) + 2
        end) in
        let gen = U.Composed.generator ~inner:U.clock_gen ~max_d:(2 * n) in
        let cfg0 =
          Ssreset_sim.Fault.arbitrary (Random.State.make [| 3; n |]) gen graph
        in
        let max_steps = if quick then 2_000 else 20_000 in
        let measure scheduler =
          Ssreset_sim.Engine.run ~seed:5 ~max_steps ~scheduler
            ~algorithm:U.Composed.algorithm ~graph
            ~daemon:Ssreset_sim.Daemon.central_random (Array.copy cfg0)
        in
        let full = measure `Full in
        let inc = measure `Incremental in
        (* Bit-identity cross-check — the two schedulers must agree on
           everything but wall-clock. *)
        if
          full.Ssreset_sim.Engine.steps <> inc.Ssreset_sim.Engine.steps
          || full.Ssreset_sim.Engine.moves <> inc.Ssreset_sim.Engine.moves
          || full.Ssreset_sim.Engine.rounds <> inc.Ssreset_sim.Engine.rounds
          || full.Ssreset_sim.Engine.final <> inc.Ssreset_sim.Engine.final
        then failwith "engine bench: schedulers diverged";
        let rate (r : _ Ssreset_sim.Engine.result) =
          if r.wall_s > 0. then float_of_int r.steps /. r.wall_s else 0.
        in
        let full_rate = rate full and inc_rate = rate inc in
        let speedup = if full_rate > 0. then inc_rate /. full_rate else 0. in
        Printf.printf
          "  n=%-5d %7d steps   full %10.0f steps/s   incremental %10.0f \
           steps/s   speedup %5.1fx\n\
           %!"
          n full.Ssreset_sim.Engine.steps full_rate inc_rate speedup;
        Json.Obj
          [ ("n", Json.Int n);
            ("daemon", Json.String "central-random");
            ("steps", Json.Int full.Ssreset_sim.Engine.steps);
            ("full_steps_per_s", Json.Float full_rate);
            ("incremental_steps_per_s", Json.Float inc_rate);
            ("speedup", Json.Float speedup) ])
      sizes
  in
  print_newline ();
  records

(* ------------------------------------------------------------------ *)
(* B1: Bechamel wall-clock suite.                                       *)
(* ------------------------------------------------------------------ *)

let bechamel_tests ~quick =
  let open Bechamel in
  let n = if quick then 24 else 48 in
  let graph = Ssreset_graph.Gen.ring n in
  let er_graph =
    Ssreset_graph.Gen.erdos_renyi (Random.State.make [| 11 |]) n 0.15
  in
  let stabilize_unison g () =
    let obs =
      Expt.Runner.run Expt.Runner.unison ~graph:g
        ~daemon:(Ssreset_sim.Daemon.distributed_random 0.5)
        ~seed:7 ()
    in
    assert obs.Expt.Runner.result_ok
  in
  let stabilize_fga g () =
    let obs =
      Expt.Runner.run
        (Expt.Runner.alliance Ssreset_alliance.Spec.dominating_set)
        ~graph:g
        ~daemon:(Ssreset_sim.Daemon.distributed_random 0.5)
        ~seed:7 ()
    in
    assert obs.Expt.Runner.result_ok
  in
  let stabilize_tail g () =
    let obs =
      Expt.Runner.run Expt.Runner.tail_unison ~graph:g
        ~daemon:(Ssreset_sim.Daemon.distributed_random 0.5)
        ~seed:7 ()
    in
    assert obs.Expt.Runner.result_ok
  in
  let engine_step =
    (* One synchronous step of U∘SDR from a fixed arbitrary configuration:
       the engine's hot path (guard evaluation over all processes). *)
    let module U = Ssreset_unison.Unison.Make (struct
      let k = (2 * n) + 2
    end) in
    let gen = U.Composed.generator ~inner:U.clock_gen ~max_d:(2 * n) in
    let cfg =
      Ssreset_sim.Fault.arbitrary (Random.State.make [| 3 |]) gen graph
    in
    let rng = Random.State.make [| 4 |] in
    fun () ->
      ignore
        (Ssreset_sim.Engine.step ~rng ~algorithm:U.Composed.algorithm ~graph
           ~daemon:Ssreset_sim.Daemon.synchronous ~step_index:0 cfg)
  in
  [ Test.make ~name:(Printf.sprintf "engine-step/unison-sdr-ring%d" n)
      (Staged.stage engine_step);
    Test.make ~name:(Printf.sprintf "stabilize/unison-sdr-ring%d" n)
      (Staged.stage (stabilize_unison graph));
    Test.make ~name:(Printf.sprintf "stabilize/unison-sdr-er%d" n)
      (Staged.stage (stabilize_unison er_graph));
    Test.make ~name:(Printf.sprintf "stabilize/fga-sdr-er%d" n)
      (Staged.stage (stabilize_fga er_graph));
    Test.make ~name:(Printf.sprintf "stabilize/tail-unison-ring%d" n)
      (Staged.stage (stabilize_tail graph)) ]

let run_bechamel ~quick =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "== B1 wall-clock (Bechamel, OLS on monotonic clock) ==\n%!";
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ~kde:None ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = ref [] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg instances elt in
          let estimate = Analyze.one ols Instance.monotonic_clock result in
          let ns =
            match Analyze.OLS.estimates estimate with
            | Some (e :: _) -> e
            | _ -> nan
          in
          Printf.printf "  %-36s %14.0f ns/run\n%!" (Test.Elt.name elt) ns;
          results :=
            Json.Obj
              [ ("name", Json.String (Test.Elt.name elt));
                ("ns_per_run", Json.Float ns) ]
            :: !results)
        (Test.elements test))
    (bechamel_tests ~quick);
  List.rev !results

(* ------------------------------------------------------------------ *)
(* Model-checker throughput: lint + exhaustive verification over the   *)
(* whole registry, reporting states explored per second.               *)
(* ------------------------------------------------------------------ *)

module CRegistry = Ssreset_check.Registry
module CReport = Ssreset_check.Report
module CModel = Ssreset_check.Model

let run_check ~quick =
  let mode = if quick then `Quick else `Full in
  Printf.printf "== check: lint + exhaustive small-model verification ==\n%!";
  let failures = ref 0 in
  let records =
    List.map
      (fun (e : CRegistry.entry) ->
        let t0 = Unix.gettimeofday () in
        let r = CRegistry.run ~mode e in
        let wall_s = Unix.gettimeofday () -. t0 in
        let sum f =
          List.fold_left
            (fun acc (m : CReport.model_item) ->
              acc + f m.CReport.result.CModel.stats)
            0 r.CReport.models
        in
        let configs = sum (fun s -> s.CModel.configs) in
        let transitions = sum (fun s -> s.CModel.transitions) in
        let ok = CReport.entry_ok r in
        if not ok then incr failures;
        let per_s =
          if wall_s > 0. then float_of_int configs /. wall_s else 0.
        in
        Printf.printf
          "  %-14s %2d graphs %9d configs %10d transitions %6.2fs %10.0f \
           configs/s  %s\n\
           %!"
          r.CReport.name
          (List.length r.CReport.models)
          configs transitions wall_s per_s
          (if ok then "ok" else "VIOLATIONS");
        Json.Obj
          [ ("name", Json.String r.CReport.name);
            ("ok", Json.Bool ok);
            ("graphs", Json.Int (List.length r.CReport.models));
            ("lint_views", Json.Int r.CReport.lint_views);
            ("configs", Json.Int configs);
            ("transitions", Json.Int transitions);
            ("wall_s", Json.Float wall_s);
            ("configs_per_s", Json.Float per_s) ])
      CRegistry.entries
  in
  print_newline ();
  (!failures, records)

(* ------------------------------------------------------------------ *)
(* check-v2 throughput: the two new static passes.                     *)
(*   footprint — probing views per second over every registry entry    *)
(*     (composed targets where the entry declares one);                *)
(*   symmetry  — orbit representatives explored per second on the      *)
(*     most symmetric graph family, where the quotient is deepest      *)
(*     (|Aut(Kn)| = n!).                                               *)
(* ------------------------------------------------------------------ *)

module CFootprint = Ssreset_check.Footprint

let run_check_v2 ~quick =
  Printf.printf "== check-v2: footprint probing + symmetry-reduced \
                 exploration ==\n%!";
  let footprint =
    List.map
      (fun (e : CRegistry.entry) ->
        let g = Ssreset_graph.Gen.path (max 3 e.CRegistry.min_n) in
        let t0 = Unix.gettimeofday () in
        let fp = CFootprint.analyze (CRegistry.footprint_target e g) in
        let wall_s = Unix.gettimeofday () -. t0 in
        let per_s =
          if wall_s > 0. then float_of_int fp.CFootprint.views /. wall_s
          else 0.
        in
        Printf.printf
          "  footprint %-14s %8d views %6.2fs %10.0f views/s  %s\n%!"
          e.CRegistry.name fp.CFootprint.views wall_s per_s
          (if fp.CFootprint.findings = [] then "clean" else "FINDINGS");
        Json.Obj
          [ ("name", Json.String e.CRegistry.name);
            ("composed", Json.Bool fp.CFootprint.composed);
            ("views", Json.Int fp.CFootprint.views);
            ("wall_s", Json.Float wall_s);
            ("views_per_s", Json.Float per_s) ])
      CRegistry.entries
  in
  let symmetry =
    let n = if quick then 4 else 5 in
    let e =
      List.find (fun e -> e.CRegistry.name = "tail-unison") CRegistry.entries
    in
    let g = Ssreset_graph.Gen.complete n in
    let inst = e.CRegistry.instance g in
    let options = { CModel.default_options with CModel.symmetry = true } in
    let t0 = Unix.gettimeofday () in
    let r = CModel.check ~options inst in
    let wall_s = Unix.gettimeofday () -. t0 in
    let orbits = r.CModel.stats.CModel.configs in
    let per_s = if wall_s > 0. then float_of_int orbits /. wall_s else 0. in
    Printf.printf
      "  symmetry  tail-unison K%d %8d orbits (|Aut| = %d) %6.2fs %10.0f \
       orbits/s  %s\n\
       %!"
      n orbits
      (Option.value ~default:1 r.CModel.automorphisms)
      wall_s per_s
      (if r.CModel.violations = [] && r.CModel.aborted = None then "ok"
       else "DIRTY");
    [ Json.Obj
        [ ("instance", Json.String (Printf.sprintf "tail-unison K%d" n));
          ("orbits", Json.Int orbits);
          ("automorphisms",
           Json.Int (Option.value ~default:1 r.CModel.automorphisms));
          ("transitions", Json.Int r.CModel.stats.CModel.transitions);
          ("wall_s", Json.Float wall_s);
          ("orbits_per_s", Json.Float per_s) ] ]
  in
  print_newline ();
  Json.Obj [ ("footprint", Json.List footprint);
             ("symmetry", Json.List symmetry) ]

(* ------------------------------------------------------------------ *)
(* trace-v1: observability overhead.  The same U∘SDR stabilization     *)
(* three ways — no sink, sink with online bound monitors, sink with    *)
(* monitors plus wave-tagged step records — reporting engine steps/s   *)
(* for each and the event rate of the full trace.  The gate holds the  *)
(* monitors-off rate to the committed baseline: observability must     *)
(* stay pay-for-what-you-use.                                          *)
(* ------------------------------------------------------------------ *)

let run_trace_bench ~quick =
  Printf.printf
    "== trace-v1: monitor + step-trace overhead, U∘SDR ring ==\n%!";
  let n = if quick then 128 else 512 in
  let graph = Ssreset_graph.Gen.ring n in
  (* Central-random: one mover per step, so the same stabilization takes
     thousands of steps — enough work for a stable steps/s estimate (the
     synchronous run finishes in ~20 big steps, far below timer noise). *)
  let run ?sink ?(trace_steps = false) () =
    Expt.Runner.run ?sink ~trace_steps Expt.Runner.unison ~graph
      ~daemon:Ssreset_sim.Daemon.central_random ~seed:11 ()
  in
  let rate (o : Expt.Runner.obs) =
    if o.Expt.Runner.wall_s > 0. then
      float_of_int o.Expt.Runner.steps /. o.Expt.Runner.wall_s
    else 0.
  in
  (* Best of 3: stabilization is deterministic per seed, so the runs only
     differ by scheduler noise and the fastest is the least noisy. *)
  let best_of f =
    let best = ref 0. in
    for _ = 1 to 3 do
      best := Float.max !best (rate (f ()))
    done;
    !best
  in
  let steps = (run ()).Expt.Runner.steps in
  let off = best_of (fun () -> run ()) in
  let null = open_out Filename.null in
  let on =
    best_of (fun () -> run ~sink:(Ssreset_obs.Sink.of_channel null) ())
  in
  close_out null;
  let tmp = Filename.temp_file "ssreset-trace" ".jsonl" in
  let traced =
    let sink = Ssreset_obs.Sink.create tmp in
    let o = run ~sink ~trace_steps:true () in
    Ssreset_obs.Sink.close sink;
    o
  in
  let events =
    let ic = open_in tmp in
    let k = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr k
       done
     with End_of_file -> ());
    close_in ic;
    !k
  in
  Sys.remove tmp;
  let traced_rate = rate traced in
  let events_per_s =
    if traced.Expt.Runner.wall_s > 0. then
      float_of_int events /. traced.Expt.Runner.wall_s
    else 0.
  in
  let overhead off on = if off > 0. then 100. *. (1. -. (on /. off)) else 0. in
  Printf.printf
    "  n=%-5d %7d steps   off %10.0f steps/s   monitors %10.0f steps/s \
     (%.1f%%)   +step-trace %10.0f steps/s (%.1f%%)   %d events %10.0f \
     events/s\n\n\
     %!"
    n steps off on (overhead off on) traced_rate
    (overhead off traced_rate)
    events events_per_s;
  [ Json.Obj
      [ ("n", Json.Int n);
        ("steps", Json.Int steps);
        ("monitors_off_steps_per_s", Json.Float off);
        ("monitors_on_steps_per_s", Json.Float on);
        ("monitor_overhead_pct", Json.Float (overhead off on));
        ("trace_steps_per_s", Json.Float traced_rate);
        ("trace_events", Json.Int events);
        ("trace_events_per_s", Json.Float events_per_s) ] ]

(* ------------------------------------------------------------------ *)
(* prof: engine profiling overhead.  The same U∘SDR stabilization with *)
(* and without an attached Prof (no sink): prof-on pays the lap clock  *)
(* reads and instrument bumps per step, prof-off must pay nothing.     *)
(* The gate holds the prof-off rate to the committed baseline and caps *)
(* the measured overhead.                                              *)
(* ------------------------------------------------------------------ *)

let run_prof_bench ~quick =
  Printf.printf "== prof: engine profiling overhead, U∘SDR ring ==\n%!";
  let n = if quick then 128 else 512 in
  let graph = Ssreset_graph.Gen.ring n in
  (* Central-random, as in the trace bench: one mover per step gives
     enough steps for a stable steps/s estimate. *)
  let run ?prof () =
    Expt.Runner.run ?prof Expt.Runner.unison ~graph
      ~daemon:Ssreset_sim.Daemon.central_random ~seed:11 ()
  in
  let rate (o : Expt.Runner.obs) =
    if o.Expt.Runner.wall_s > 0. then
      float_of_int o.Expt.Runner.steps /. o.Expt.Runner.wall_s
    else 0.
  in
  let best_of f =
    let best = ref 0. in
    for _ = 1 to 3 do
      best := Float.max !best (rate (f ()))
    done;
    !best
  in
  let steps = (run ()).Expt.Runner.steps in
  let off = best_of (fun () -> run ()) in
  let on = best_of (fun () -> run ~prof:(Ssreset_obs.Prof.create ()) ()) in
  (* One instrumented run to report where the time goes. *)
  let p = Ssreset_obs.Prof.create () in
  ignore (run ~prof:p ());
  let phase_ns name =
    Ssreset_obs.Prof.timer_total_ns (Ssreset_obs.Prof.timer p ("phase." ^ name))
  in
  let phases =
    [ "scan"; "select"; "apply"; "refresh"; "neutralize"; "callbacks";
      "stop" ]
  in
  let overhead = if off > 0. then 100. *. (1. -. (on /. off)) else 0. in
  Printf.printf
    "  n=%-5d %7d steps   prof-off %10.0f steps/s   prof-on %10.0f steps/s \
     (%.1f%% overhead)\n"
    n steps off on overhead;
  Printf.printf "  attribution:";
  List.iter
    (fun name -> Printf.printf "  %s %.2fms" name (float_of_int (phase_ns name) /. 1e6))
    phases;
  Printf.printf "\n\n%!";
  [ Json.Obj
      ([ ("n", Json.Int n);
         ("steps", Json.Int steps);
         ("prof_off_steps_per_s", Json.Float off);
         ("prof_on_steps_per_s", Json.Float on);
         ("prof_overhead_pct", Json.Float overhead) ]
      @ List.map
          (fun name -> ("phase_" ^ name ^ "_ns", Json.Int (phase_ns name)))
          phases) ]

(* ------------------------------------------------------------------ *)
(* smt: check-v4 throughput.  Four rates the gate holds to baseline:   *)
(* obligation compilation (symbolic spec → SMT-LIB scripts, all four   *)
(* topology families, re-parsed and linted — the full emission         *)
(* pipeline minus the disk) in obligations/s; the ranking family alone *)
(* (rank + comp.* composition obligations, the v4 global-convergence   *)
(* measures) in obligations/s; the symbolic-IR differential (views +   *)
(* daemon steps cross-checked against the OCaml rules) in views/s; and *)
(* the same differential over the four SDR input-layer IRs added in v4 *)
(* (coloring, MIS, matching, FGA), one views/s figure each.            *)
(* ------------------------------------------------------------------ *)

module CSym = Ssreset_check.Sym
module CObligation = Ssreset_check.Obligation
module CSmt = Ssreset_check.Smt

let run_smt_bench ~quick =
  Printf.printf "== smt: check-v4 obligation compilation + symbolic \
                 differential ==\n%!";
  let specs =
    List.filter_map
      (fun (e : CRegistry.entry) ->
        Option.map (fun s -> (e.CRegistry.name, s)) e.CRegistry.smt_spec)
      CRegistry.entries
  in
  let reps = if quick then 20 else 100 in
  let t0 = Unix.gettimeofday () in
  let per_rep = ref 0 in
  for _ = 1 to reps do
    per_rep := 0;
    List.iter
      (fun (name, spec) ->
        let obs = CObligation.compile_all ~algo:name spec in
        List.iter
          (fun (ob : CObligation.t) ->
            match
              CSmt.parse_string (CSmt.to_string ob.CObligation.ob_script)
            with
            | Error msg ->
                Printf.printf "  COMPILE FAILURE %s: %s\n%!"
                  (CObligation.filename ob) msg;
                exit 1
            | Ok cmds ->
                if CSmt.lint_script cmds <> [] then begin
                  Printf.printf "  LINT FAILURE %s\n%!"
                    (CObligation.filename ob);
                  exit 1
                end)
          obs;
        per_rep := !per_rep + List.length obs)
      specs
  done;
  let compile_wall = Unix.gettimeofday () -. t0 in
  let total_obs = reps * !per_rep in
  let obs_per_s =
    if compile_wall > 0. then float_of_int total_obs /. compile_wall else 0.
  in
  Printf.printf
    "  compile   %3d specs ×%4d reps %8d obligations %6.2fs %10.0f \
     obligations/s\n%!"
    (List.length specs) reps total_obs compile_wall obs_per_s;
  (* ranking family alone: rank obligations from every spec that carries a
     sp_rank, plus the comp.* composition family from every comp_spec —
     the v4 global-convergence measures the z3 CI job certifies. *)
  let comp_specs =
    List.filter_map
      (fun (e : CRegistry.entry) ->
        Option.map (fun s -> (e.CRegistry.name, s)) e.CRegistry.comp_spec)
      CRegistry.entries
  in
  let t0 = Unix.gettimeofday () in
  let rank_per_rep = ref 0 in
  for _ = 1 to reps do
    rank_per_rep := 0;
    List.iter
      (fun (name, spec) ->
        let obs =
          List.filter
            (fun (ob : CObligation.t) ->
              match ob.CObligation.ob_kind with
              | CObligation.Rank _ -> true
              | _ -> false)
            (CObligation.compile_all ~algo:name spec)
        in
        rank_per_rep := !rank_per_rep + List.length obs)
      specs;
    List.iter
      (fun (name, spec) ->
        rank_per_rep :=
          !rank_per_rep
          + List.length (CObligation.compile_composition_all ~algo:name spec))
      comp_specs
  done;
  let rank_wall = Unix.gettimeofday () -. t0 in
  let total_rank = reps * !rank_per_rep in
  let rank_per_s =
    if rank_wall > 0. then float_of_int total_rank /. rank_wall else 0.
  in
  Printf.printf
    "  ranking   %3d specs ×%4d reps %8d obligations %6.2fs %10.0f \
     obligations/s\n%!"
    (List.length specs + List.length comp_specs)
    reps total_rank rank_wall rank_per_s;
  let diff_n = if quick then 4 else 5 in
  let e =
    List.find (fun e -> e.CRegistry.name = "tail-unison") CRegistry.entries
  in
  let inst = Option.get e.CRegistry.sym (Ssreset_graph.Gen.ring diff_n) in
  let t0 = Unix.gettimeofday () in
  let d = CSym.check inst in
  let diff_wall = Unix.gettimeofday () -. t0 in
  let probes = d.CSym.views + d.CSym.steps in
  let views_per_s =
    if diff_wall > 0. then float_of_int probes /. diff_wall else 0.
  in
  Printf.printf
    "  diff      %-16s ring%-2d %8d views %6d steps %6.2fs %10.0f \
     views/s  %s\n%!"
    "tail-unison" diff_n d.CSym.views d.CSym.steps diff_wall views_per_s
    (if CSym.diff_ok d then "agrees" else "MISMATCH");
  (* the four SDR input-layer IRs added in v4, one differential each *)
  let inputs =
    List.map
      (fun nm ->
        let e =
          List.find (fun e -> e.CRegistry.name = nm) CRegistry.entries
        in
        let inst =
          Option.get e.CRegistry.sym (Ssreset_graph.Gen.ring diff_n)
        in
        let t0 = Unix.gettimeofday () in
        let di = CSym.check inst in
        let wall = Unix.gettimeofday () -. t0 in
        let probes = di.CSym.views + di.CSym.steps in
        let vps = if wall > 0. then float_of_int probes /. wall else 0. in
        Printf.printf
          "  diff      %-16s ring%-2d %8d views %6d steps %6.2fs %10.0f \
           views/s  %s\n%!"
          nm diff_n di.CSym.views di.CSym.steps wall vps
          (if CSym.diff_ok di then "agrees" else "MISMATCH");
        Json.Obj
          [ ("algo", Json.String nm);
            ("views", Json.Int di.CSym.views);
            ("steps", Json.Int di.CSym.steps);
            ("ok", Json.Bool (CSym.diff_ok di));
            ("wall_s", Json.Float wall);
            ("views_per_s", Json.Float vps) ])
      [ "coloring-sdr"; "mis-sdr"; "matching-sdr"; "fga-sdr" ]
  in
  print_newline ();
  Json.Obj
    [ ( "compile",
        Json.Obj
          [ ("specs", Json.Int (List.length specs));
            ("reps", Json.Int reps);
            ("obligations", Json.Int total_obs);
            ("wall_s", Json.Float compile_wall);
            ("obligations_per_s", Json.Float obs_per_s) ] );
      ( "differential",
        Json.Obj
          [ ("instance", Json.String (Printf.sprintf "tail-unison ring%d" diff_n));
            ("views", Json.Int d.CSym.views);
            ("steps", Json.Int d.CSym.steps);
            ("daemons", Json.Int d.CSym.daemons);
            ("ok", Json.Bool (CSym.diff_ok d));
            ("wall_s", Json.Float diff_wall);
            ("views_per_s", Json.Float views_per_s) ] );
      ( "ranking",
        Json.Obj
          [ ("specs", Json.Int (List.length specs + List.length comp_specs));
            ("reps", Json.Int reps);
            ("obligations", Json.Int total_rank);
            ("wall_s", Json.Float rank_wall);
            ("obligations_per_s", Json.Float rank_per_s) ] );
      ("differential_inputs", Json.List inputs) ]

(* ------------------------------------------------------------------ *)
(* engine_flat: the IR-compiled flat data path against the incremental *)
(* scheduler — same U∘SDR ring workload, same seed, same daemon, and a *)
(* bit-identity cross-check (steps/moves/rounds and the final encoded  *)
(* state of every process must agree), so the steps/s ratio isolates   *)
(* the execution substrate.  A second block measures the scale-tier    *)
(* workload the CI scale-smoke job pins: a streamed ring (CSR built    *)
(* without ever materializing adjacency lists), legitimate ground      *)
(* state with 5%% of the nodes perturbed, run to stabilization         *)
(* sequentially and with partitioned domain-parallel stepping — whose  *)
(* digests must be byte-identical for every domain count.              *)
(* ------------------------------------------------------------------ *)

module Flat = Ssreset_flat.Flat
module FlatProgs = Ssreset_flat.Progs
module Csr = Ssreset_graph.Csr

let flat_value_lists_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (f1, v1) (f2, v2) ->
         String.equal f1 f2 && CSym.value_equal v1 v2)
       a b

let run_flat_bench ~quick =
  Printf.printf
    "== engine_flat: IR-compiled flat engine vs incremental scheduler, \
     U∘SDR ring, central-random daemon ==\n%!";
  let sizes = [ 64; 256; 1024 ] in
  let head_to_head =
    List.map
      (fun n ->
        let graph = Ssreset_graph.Gen.ring n in
        let inst = CRegistry.unison_sdr_composed_sym graph in
        let module I = (val inst : CSym.INSTANCE) in
        let seed_rng = Random.State.make [| 3; n |] in
        (* The U∘SDR domain is node-independent (status × clock × distance,
           ~3·K·n states at n = 1024) — materialize it once, not per node. *)
        let dom = Array.of_list (I.domain 0) in
        let cfg0 =
          Array.init n (fun _ ->
              dom.(Random.State.int seed_rng (Array.length dom)))
        in
        let max_steps = if quick then 2_000 else 20_000 in
        let inc =
          Ssreset_sim.Engine.run ~seed:5 ~max_steps ~scheduler:`Incremental
            ~algorithm:I.algorithm ~graph
            ~daemon:Ssreset_sim.Daemon.central_random (Array.copy cfg0)
        in
        let prog =
          Flat.compile ~csr:(Csr.of_graph graph) ~params:I.param_values
            I.spec
        in
        Array.iteri (fun u s -> Flat.load prog u (I.encode s)) cfg0;
        let flat =
          Flat.run ~seed:5 ~max_steps ~stop_on_legitimate:false
            ~daemon:Flat.Central_random prog
        in
        (* Bit-identity cross-check — flat must replay the incremental
           run exactly, not just end up somewhere legitimate. *)
        if
          inc.Ssreset_sim.Engine.steps <> flat.Flat.steps
          || inc.Ssreset_sim.Engine.moves <> flat.Flat.moves
          || inc.Ssreset_sim.Engine.rounds <> flat.Flat.rounds
        then failwith "engine_flat bench: counters diverged";
        Array.iteri
          (fun u s ->
            if not (flat_value_lists_equal (I.encode s) (Flat.read prog u))
            then
              failwith
                (Printf.sprintf
                   "engine_flat bench: final state diverged at process %d" u))
          inc.Ssreset_sim.Engine.final;
        let inc_rate =
          if inc.Ssreset_sim.Engine.wall_s > 0. then
            float_of_int inc.Ssreset_sim.Engine.steps
            /. inc.Ssreset_sim.Engine.wall_s
          else 0.
        in
        let flat_rate =
          if flat.Flat.wall_s > 0. then
            float_of_int flat.Flat.steps /. flat.Flat.wall_s
          else 0.
        in
        let speedup = if inc_rate > 0. then flat_rate /. inc_rate else 0. in
        Printf.printf
          "  n=%-5d %7d steps   incremental %10.0f steps/s   flat %10.0f \
           steps/s   speedup %5.1fx\n\
           %!"
          n inc.Ssreset_sim.Engine.steps inc_rate flat_rate speedup;
        Json.Obj
          [ ("n", Json.Int n);
            ("daemon", Json.String "central-random");
            ("steps", Json.Int flat.Flat.steps);
            ("incremental_steps_per_s", Json.Float inc_rate);
            ("flat_steps_per_s", Json.Float flat_rate);
            ("speedup", Json.Float speedup) ])
      sizes
  in
  let scale =
    let n = if quick then 20_000 else 100_000 in
    let k = n / 20 in
    let entry = Option.get (FlatProgs.find "unison-sdr") in
    let digest0 = ref None in
    List.map
      (fun parts ->
        let prog = FlatProgs.build entry (Csr.ring n) in
        FlatProgs.init_ground prog;
        FlatProgs.perturb prog ~rng:(Random.State.make [| 0xF1A7; 1 |]) k;
        let r =
          if parts = 1 then Flat.run ~daemon:Flat.Synchronous prog
          else Flat.run_partitioned ~parts prog
        in
        let digest = FlatProgs.digest prog r in
        (match !digest0 with
        | None -> digest0 := Some digest
        | Some d ->
            if not (String.equal d digest) then
              failwith
                (Printf.sprintf
                   "engine_flat bench: digest diverged at parts=%d" parts));
        let rate =
          if r.Flat.wall_s > 0. then
            float_of_int r.Flat.steps /. r.Flat.wall_s
          else 0.
        in
        let moves_rate =
          if r.Flat.wall_s > 0. then
            float_of_int r.Flat.moves /. r.Flat.wall_s
          else 0.
        in
        Printf.printf
          "  scale n=%-7d perturb=%-6d parts=%d %6d steps %9d moves \
           %6.2fs %8.0f steps/s %10.0f moves/s\n\
           %!"
          n k parts r.Flat.steps r.Flat.moves r.Flat.wall_s rate moves_rate;
        Json.Obj
          [ ("n", Json.Int n);
            ("perturb", Json.Int k);
            ("parts", Json.Int parts);
            ("steps", Json.Int r.Flat.steps);
            ("moves", Json.Int r.Flat.moves);
            ("digest", Json.String digest);
            ("steps_per_s", Json.Float rate);
            ("moves_per_s", Json.Float moves_rate) ])
      [ 1; 2 ]
  in
  print_newline ();
  Json.Obj
    [ ("head_to_head", Json.List head_to_head);
      ("scale", Json.List scale) ]

(* ------------------------------------------------------------------ *)
(* flat_obs: observability overhead on the flat data path.  The same  *)
(* scale-tier workload as engine_flat.scale (streamed U∘SDR ring,     *)
(* perturbed ground state, synchronous daemon) run once with no prof  *)
(* and once with a windowless Prof attached.  The digests must be     *)
(* byte-identical — instrumentation is pay-as-you-go — and the gate   *)
(* holds the prof-off rate to baseline while capping the measured     *)
(* prof-on overhead.                                                  *)
(* ------------------------------------------------------------------ *)

let run_flat_obs_bench ~quick =
  Printf.printf
    "== flat_obs: flat-engine profiling overhead, streamed U∘SDR ring, \
     synchronous daemon ==\n%!";
  let n = if quick then 20_000 else 100_000 in
  let k = n / 20 in
  let entry = Option.get (FlatProgs.find "unison-sdr") in
  let run ?prof () =
    let prog = FlatProgs.build entry (Csr.ring n) in
    FlatProgs.init_ground prog;
    FlatProgs.perturb prog ~rng:(Random.State.make [| 0xF1A7; 1 |]) k;
    let r = Flat.run ~daemon:Flat.Synchronous ?prof prog in
    (r, FlatProgs.digest prog r)
  in
  let rate (r : Flat.result) =
    if r.Flat.wall_s > 0. then float_of_int r.Flat.steps /. r.Flat.wall_s
    else 0.
  in
  let best_of f =
    let best = ref 0. in
    let digest = ref "" in
    for _ = 1 to 3 do
      let r, d = f () in
      digest := d;
      best := Float.max !best (rate r)
    done;
    (!best, !digest)
  in
  let steps = (fst (run ())).Flat.steps in
  let off, digest_off = best_of (fun () -> run ()) in
  let on, digest_on =
    best_of (fun () -> run ~prof:(Ssreset_obs.Prof.create ()) ())
  in
  (* Pay-as-you-go means bit-identical, not just statistically close. *)
  if not (String.equal digest_off digest_on) then
    failwith "flat_obs bench: digest diverged between prof-off and prof-on";
  let overhead = if off > 0. then 100. *. (1. -. (on /. off)) else 0. in
  Printf.printf
    "  n=%-7d %6d steps   prof-off %10.0f steps/s   prof-on %10.0f \
     steps/s (%.1f%% overhead)\n\n\
     %!"
    n steps off on overhead;
  [ Json.Obj
      [ ("n", Json.Int n);
        ("perturb", Json.Int k);
        ("steps", Json.Int steps);
        ("digest", Json.String digest_off);
        ("prof_off_steps_per_s", Json.Float off);
        ("prof_on_steps_per_s", Json.Float on);
        ("prof_overhead_pct", Json.Float overhead) ] ]

let () =
  let quick, timing, out, jobs, ids = parse_args () in
  let profile =
    if quick then Expt.Experiments.quick else Expt.Experiments.full
  in
  let profile =
    match jobs with
    | Some jobs -> { profile with Expt.Experiments.jobs }
    | None -> profile
  in
  Printf.printf
    "Self-Stabilizing Distributed Cooperative Reset — experiment harness (%s \
     profile, %d domain%s)\n\n%!"
    (if quick then "quick" else "full")
    profile.Expt.Experiments.jobs
    (if profile.Expt.Experiments.jobs = 1 then "" else "s");
  let t0 = Unix.gettimeofday () in
  let failures, experiments = run_experiments ~profile ~ids in
  let check_failures, check_records =
    if ids = [] then run_check ~quick else (0, [])
  in
  let failures = failures + check_failures in
  let check_v2 =
    if ids = [] then run_check_v2 ~quick
    else Json.Obj [ ("footprint", Json.List []); ("symmetry", Json.List []) ]
  in
  let engine = if ids = [] then run_engine_bench ~quick else [] in
  let engine_flat =
    if ids = [] then run_flat_bench ~quick
    else
      Json.Obj
        [ ("head_to_head", Json.List []); ("scale", Json.List []) ]
  in
  let flat_obs = if ids = [] then run_flat_obs_bench ~quick else [] in
  let trace_v1 = if ids = [] then run_trace_bench ~quick else [] in
  let prof_bench = if ids = [] then run_prof_bench ~quick else [] in
  let smt_bench =
    if ids = [] then run_smt_bench ~quick
    else Json.Obj [ ("compile", Json.Null); ("differential", Json.Null) ]
  in
  let timings =
    if timing && ids = [] then run_bechamel ~quick else []
  in
  let results =
    Json.Obj
      [ ("schema", Json.Int Ssreset_obs.Sink.schema_version);
        ("profile", Json.String (if quick then "quick" else "full"));
        ("git", Json.String (Ssreset_obs.Sink.git_describe ()));
        ("domains", Json.Int profile.Expt.Experiments.jobs);
        ("failures", Json.Int failures);
        ("wall_s", Json.Float (Unix.gettimeofday () -. t0));
        ("experiments", Json.List experiments);
        ("engine", Json.List engine);
        ("engine_flat", engine_flat);
        ("flat_obs", Json.List flat_obs);
        ("trace_v1", Json.List trace_v1);
        ("prof", Json.List prof_bench);
        ("check", Json.List check_records);
        ("check_v2", check_v2);
        ("smt", smt_bench);
        ("timing", Json.List timings) ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string_hum results);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nresults written to %s\n" out;
  if failures > 0 then begin
    Printf.printf "%d table(s) with violated bounds\n" failures;
    exit 1
  end
  else Printf.printf "all experiment tables pass\n"
