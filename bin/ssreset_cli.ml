(* ssreset — command-line driver for the reproduction.

   Subcommands run one system on one network under one daemon and print the
   stabilization statistics; `experiments` regenerates the full table suite
   (same as bench/main.exe).  Every run subcommand accepts `--json` (emit
   the observation as a JSON object on stdout) and `--trace-out FILE`
   (stream a JSONL run trace: manifest, per-round snapshots, summary). *)

open Cmdliner

module Graph = Ssreset_graph.Graph
module Metrics = Ssreset_graph.Metrics
module Daemon = Ssreset_sim.Daemon
module Spec = Ssreset_alliance.Spec
module Runner = Ssreset_expt.Runner
module Workload = Ssreset_expt.Workload
module Json = Ssreset_obs.Json
module Sink = Ssreset_obs.Sink
module Prof = Ssreset_obs.Prof
module Proffile = Ssreset_obs.Proffile
module Span = Ssreset_obs.Span
module Tracefile = Ssreset_obs.Tracefile
module Causality = Ssreset_obs.Causality
module Registry = Ssreset_check.Registry
module Report = Ssreset_check.Report
module Csr = Ssreset_graph.Csr
module Engine = Ssreset_sim.Engine
module Flat = Ssreset_flat.Flat
module FlatProgs = Ssreset_flat.Progs

(* ---------------------------- common options ---------------------------- *)

let family_conv =
  let families =
    [ ("ring", Workload.ring); ("path", Workload.path); ("star", Workload.star);
      ("complete", Workload.complete); ("grid", Workload.grid);
      ("binary-tree", Workload.binary_tree); ("random-tree", Workload.random_tree);
      ("sparse-random", Workload.sparse_random); ("lollipop", Workload.lollipop);
      ("er", Workload.erdos_renyi 0.2) ]
  in
  let parse s =
    match List.assoc_opt s families with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown family %S (one of: %s)" s
               (String.concat ", " (List.map fst families))))
  in
  let print ppf (f : Workload.family) =
    Format.pp_print_string ppf f.Workload.family_name
  in
  Arg.conv (parse, print)

let family =
  Arg.(
    value
    & opt family_conv Workload.ring
    & info [ "g"; "family" ] ~docv:"FAMILY"
        ~doc:"Graph family (ring, path, star, complete, grid, binary-tree, \
              random-tree, sparse-random, lollipop, er).")

let size =
  Arg.(
    value & opt int 16
    & info [ "n"; "size" ] ~docv:"N" ~doc:"Number of processes.")

let seed =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let daemon_name =
  (* The daemon list in this doc string derives from the one registry, so it
     cannot drift from what `daemon_by_name` accepts. *)
  Arg.(
    value & opt string "distributed-random"
    & info [ "d"; "daemon" ] ~docv:"DAEMON"
        ~doc:(Printf.sprintf "Daemon: %s." (String.concat ", " (Daemon.names ()))))

let spec_conv =
  let parse s =
    match s with
    | "dominating-set" -> Ok Spec.dominating_set
    | "global-offensive" -> Ok Spec.global_offensive
    | "global-defensive" -> Ok Spec.global_defensive
    | "global-powerful" -> Ok Spec.global_powerful
    | s -> (
        match String.index_opt s ',' with
        | Some i -> (
            try
              let f = int_of_string (String.sub s 0 i) in
              let g = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
              Ok (Spec.custom ~name:(Printf.sprintf "(%d,%d)" f g) ~f ~g)
            with _ -> Error (`Msg "expected F,G with integer F and G"))
        | None ->
            Error
              (`Msg
                "unknown spec (named instance or F,G for constant functions)"))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf s.Spec.spec_name)

let spec =
  Arg.(
    value
    & opt spec_conv Spec.dominating_set
    & info [ "spec" ] ~docv:"SPEC"
        ~doc:"Alliance instance: dominating-set, global-offensive, \
              global-defensive, global-powerful, or F,G constants.")

let scheduler_conv =
  let parse = function
    | "full" -> Ok `Full
    | "incremental" -> Ok `Incremental
    | s ->
        Error
          (`Msg
            (Printf.sprintf "unknown scheduler %S (full or incremental)" s))
  in
  let print ppf (s : Ssreset_sim.Engine.scheduler) =
    Format.pp_print_string ppf
      (match s with `Full -> "full" | `Incremental -> "incremental")
  in
  Arg.conv (parse, print)

let scheduler =
  Arg.(
    value
    & opt scheduler_conv `Incremental
    & info [ "scheduler" ] ~docv:"SCHED"
        ~doc:
          "Engine scheduler: $(b,incremental) (dirty-set, the default) or \
           $(b,full) (per-step rescan).  Results are bit-identical either \
           way; only wall-clock differs.")

(* ------------------------- telemetry output opts ------------------------ *)

type output = {
  json : bool;
  trace_out : string option;
  trace_steps : bool;
  prof_out : string option;
  prof_window : int;
}

let output_term =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the observation as a single JSON object on stdout instead \
             of the text report.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSONL run trace to $(docv): one manifest record, one \
             record per completed round, one final summary record.")
  in
  let trace_steps =
    Arg.(
      value & flag
      & info [ "trace-steps" ]
          ~doc:
            "With $(b,--trace-out): also record one step record per engine \
             step (movers tagged with their reset-wave events for composed \
             systems) — the full ssreset-trace-v1 stream that $(b,ssreset \
             trace) analyzes.")
  in
  let prof_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prof-out" ] ~docv:"FILE"
          ~doc:
            "Profile the run and write an ssreset-prof-v1 JSONL stream to \
             $(docv): one manifest record, streaming window records (see \
             $(b,--prof-window)) and one final summary with per-phase and \
             per-rule timing attribution, scheduler and GC counters.  \
             Results are bit-identical with and without profiling.")
  in
  let prof_window =
    Arg.(
      value & opt int 0
      & info [ "prof-window" ] ~docv:"STEPS"
          ~doc:
            "With $(b,--prof-out): emit one window record every $(docv) \
             engine steps (throughput, per-rule move deltas, GC word \
             deltas) — the streaming view for long runs.  0 (default) \
             disables windows; the summary is always written.")
  in
  Term.(
    const (fun json trace_out trace_steps prof_out prof_window ->
        { json; trace_out; trace_steps; prof_out; prof_window })
    $ json $ trace_out $ trace_steps $ prof_out $ prof_window)

let report ~json name (obs : Runner.obs) =
  if json then print_endline (Json.to_string (Runner.obs_json obs))
  else begin
    Fmt.pr "%s@." name;
    Fmt.pr "  outcome ok:        %b@." obs.Runner.outcome_ok;
    Fmt.pr "  result ok:         %b@." obs.Runner.result_ok;
    Fmt.pr "  rounds:            %d@." obs.Runner.rounds;
    Fmt.pr "  steps:             %d@." obs.Runner.steps;
    Fmt.pr "  moves:             %d@." obs.Runner.moves;
    Fmt.pr "  wall clock:        %.3fs (%.0f steps/s)@." obs.Runner.wall_s
      (if obs.Runner.wall_s > 0. then
         float_of_int obs.Runner.steps /. obs.Runner.wall_s
       else 0.);
    Fmt.pr "  workload p50/p90:  %.1f / %.1f moves/proc@."
      obs.Runner.workload_p50 obs.Runner.workload_p90;
    (match obs.Runner.segments with
    | Some segments ->
        Fmt.pr "  SDR moves:         %d@." obs.Runner.sdr_moves;
        Fmt.pr "  max SDR moves/proc:%d@." obs.Runner.max_proc_sdr_moves;
        Fmt.pr "  segments:          %d@." segments
    | None ->
        (* bare run: segments / alive roots are not measured *)
        Fmt.pr "  segments:          -@.")
  end;
  if obs.Runner.outcome_ok && obs.Runner.result_ok then 0 else 1

(* Every failure of a run command is one `ssreset: …` line on stderr and
   exit code 2. *)
let fail fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "ssreset: %s@." msg;
      2)
    fmt

let announce ~quiet family g =
  if not quiet then
    Fmt.pr "network: %s (%s)@." (Metrics.summary g) family.Workload.family_name

(* The one system table; [spec] only parameterizes the alliance entries. *)
let find_system ~spec name =
  List.find_opt
    (fun (s : Runner.system) -> String.equal s.Runner.name name)
    (Runner.systems ~spec)

let system_names ?(only = fun _ -> true) () =
  String.concat ", "
    (List.filter_map
       (fun (s : Runner.system) -> if only s then Some s.Runner.name else None)
       (Runner.systems ~spec:Spec.dominating_set))

let unknown_system name =
  fail "unknown system %S (one of: %s)" name (system_names ())

let unknown_daemon name =
  fail "unknown daemon: %s (one of: %s)" name
    (String.concat ", " (Daemon.names ()))

(* With --prof-out: open the ssreset-prof-v1 stream, write its manifest,
   hand [k] the profiler, and write the summary once [k] returns. *)
let with_prof ~output ?extra ~system ~family ~n ~m ~seed ~daemon k =
  match output.prof_out with
  | None -> k None
  | Some path ->
      let psink = Sink.create path in
      Fun.protect
        ~finally:(fun () -> Sink.close psink)
        (fun () ->
          Sink.write psink
            (Prof.manifest ?extra ~system ~family:family.Workload.family_name
               ~n ~m ~seed ~daemon ~window_steps:output.prof_window ());
          let p = Prof.create ~window_steps:output.prof_window ~sink:psink () in
          let result = k (Some p) in
          Prof.write_summary p;
          result)

(* Run one measured system: resolves the daemon before building the graph,
   checks the system can run on it, opens the trace and profile sinks if
   requested, writes the manifests, delegates to {!Runner.run} (which
   streams rounds + summary; the profiler streams windows), writes the
   profile summary, and reports. *)
let measured ~output ~(system : Runner.system) ~family ~n ~seed ~daemon_name
    ~spec ~scheduler =
  match Daemon.by_name daemon_name with
  | None -> unknown_daemon daemon_name
  | Some daemon -> (
      let graph = family.Workload.build ~seed ~n in
      if not (system.Runner.feasible graph) then
        fail "spec %s infeasible on this network" spec.Spec.spec_name
      else
        let name = system.Runner.name in
        try
          let with_trace ~prof k =
            match output.trace_out with
            | None -> k ~sink:None ~prof
            | Some path ->
                let sink = Sink.create path in
                (* The manifest carries the graph itself (trace_schema +
                   edges), so offline analyses need no side channel. *)
                Sink.write sink
                  (Sink.manifest ~system:name
                     ~family:family.Workload.family_name ~n:(Graph.n graph)
                     ~m:(Graph.m graph) ~seed ~daemon:daemon.Daemon.daemon_name
                     ~extra:
                       [ ("trace_schema", Json.String Tracefile.schema);
                         ( "edges",
                           Json.List
                             (List.map
                                (fun (u, v) ->
                                  Json.List [ Json.Int u; Json.Int v ])
                                (Graph.edges graph)) ) ]
                     ());
                Fun.protect
                  ~finally:(fun () -> Sink.close sink)
                  (fun () -> k ~sink:(Some sink) ~prof)
          in
          let obs =
            with_prof ~output ~system:name ~family ~n:(Graph.n graph)
              ~m:(Graph.m graph) ~seed ~daemon:daemon.Daemon.daemon_name
              (fun prof ->
                with_trace ~prof (fun ~sink ~prof ->
                    announce ~quiet:output.json family graph;
                    Runner.run ?sink ?prof ~scheduler
                      ~trace_steps:output.trace_steps system ~graph ~daemon
                      ~seed ()))
          in
          report ~json:output.json system.Runner.doc obs
        with Invalid_argument msg | Sys_error msg ->
          (* unwritable --trace-out path, … *)
          fail "%s" msg)

let run_system ~output ~system ~family ~n ~seed ~daemon_name ~spec ~scheduler =
  match find_system ~spec system with
  | None -> unknown_system system
  | Some system ->
      measured ~output ~system ~family ~n ~seed ~daemon_name ~spec ~scheduler

(* ------------------------------ flat engine ----------------------------- *)

(* The flat data-path engine runs the systems whose symbolic IR is in the
   catalogue (the three unisons).  It shares the report/JSON pipeline by
   constructing a Runner.obs; per-process SDR attribution and segment
   counting are classic-engine observers, so those fields stay unmeasured
   here ([segments = None]). *)
let obs_of_flat (r : Flat.result) =
  Runner.observation ~outcome_ok:(r.Flat.outcome = Engine.Stabilized)
    ~result_ok:r.Flat.legitimate ~rounds:r.Flat.rounds ~steps:r.Flat.steps
    ~moves:r.Flat.moves ~moves_per_process:r.Flat.moves_per_process
    ~moves_per_rule:r.Flat.moves_per_rule ~wall_s:r.Flat.wall_s

(* --heartbeat progress line, to stderr so --json/--digest stdout stays
   machine-readable. *)
let print_beat (b : Flat.beat) =
  Fmt.epr "heartbeat: step %d  moves %d  %.0f moves/s  enabled %d%s%s@."
    b.Flat.hb_steps b.Flat.hb_moves b.Flat.hb_moves_per_s b.Flat.hb_enabled
    (if b.Flat.hb_legit >= 0 then
       Printf.sprintf "  legit %d" b.Flat.hb_legit
     else "")
    (if b.Flat.hb_availability >= 0. then
       Printf.sprintf "  avail %.3f" b.Flat.hb_availability
     else "")

let run_flat ~output ~(system : Runner.system) ~family ~n ~seed ~daemon_name
    ~parts ~perturb ~digest ~monitors ~heartbeat =
  match
    ( Option.bind system.Runner.flat FlatProgs.find,
      Flat.daemon_of_name daemon_name )
  with
  | None, _ ->
      fail
        "engine flat runs %s (got %S); the other systems have no symbolic IR \
         to compile yet"
        (system_names ~only:(fun s -> s.Runner.flat <> None) ())
        system.Runner.name
  | _, None -> unknown_daemon daemon_name
  | Some _, Some _ when parts > 1 && daemon_name <> "synchronous" ->
      fail "--parts > 1 is the partitioned synchronous mode; pass -d synchronous"
  | Some entry, Some daemon -> (
      try
        (* The ring family streams straight into CSR — no per-node adjacency
           lists are ever materialized, which is what makes n = 10⁶ fit. *)
        let graph_opt =
          if String.equal family.Workload.family_name "ring" then None
          else begin
            let g = family.Workload.build ~seed ~n in
            announce ~quiet:(output.json || digest) family g;
            Some g
          end
        in
        let csrg =
          match graph_opt with
          | None -> Csr.ring n
          | Some g -> Csr.of_graph g
        in
        let prog = FlatProgs.build entry csrg in
        let init_rng = Random.State.make [| 0xF1A7; seed |] in
        (match perturb with
        | Some k ->
            FlatProgs.init_ground prog;
            FlatProgs.perturb prog ~rng:init_rng k
        | None -> FlatProgs.init_random prog ~rng:init_rng);
        let nn = Flat.n prog in
        (* The paper's convergence bounds, latched online: 3n rounds, D·n²
           moves (ring diameter is ⌊n/2⌋; other families pay one BFS
           sweep). *)
        let monitor, rounds_bound, moves_bound =
          if not monitors then (None, None, None)
          else
            let diameter =
              match graph_opt with
              | None -> max 1 (nn / 2)
              | Some g -> Metrics.diameter g
            in
            (Some (Ssreset_obs.Monitor.create ()), Some (3 * nn),
             Some (diameter * nn * nn))
        in
        let hb = Option.map (fun every -> (every, print_beat)) heartbeat in
        let dispatch prof =
          if parts > 1 then
            Flat.run_partitioned ?prof ?monitor ?rounds_bound ?moves_bound
              ?heartbeat:hb ~parts prog
          else
            Flat.run ~seed ?prof ?monitor ?rounds_bound ?moves_bound
              ?heartbeat:hb ~daemon prog
        in
        let result =
          with_prof ~output
            ~extra:
              [ ("engine", Json.String "flat");
                ("parts", Json.Int (max 1 parts)) ]
            ~system:entry.FlatProgs.pname ~family ~n:nn ~m:(Csr.m csrg) ~seed
            ~daemon:daemon_name dispatch
        in
        (match monitor with
        | Some m when Ssreset_obs.Monitor.anomaly_count m > 0 ->
            List.iter
              (fun (a : Ssreset_obs.Monitor.anomaly) ->
                Fmt.epr
                  "monitor: %s tripped at step %d (value %d > bound %d)@."
                  a.Ssreset_obs.Monitor.monitor a.Ssreset_obs.Monitor.step
                  a.Ssreset_obs.Monitor.value a.Ssreset_obs.Monitor.bound)
              (Ssreset_obs.Monitor.anomalies m)
        | _ -> ());
        if digest then begin
          print_endline (FlatProgs.digest prog result);
          if result.Flat.outcome = Engine.Stabilized then 0 else 1
        end
        else
          report ~json:output.json
            (Printf.sprintf "%s (flat engine, n=%d%s)" entry.FlatProgs.pname
               nn
               (if parts > 1 then Printf.sprintf ", %d domains" parts else ""))
            (obs_of_flat result)
      with Invalid_argument msg | Sys_error msg -> fail "%s" msg)

(* ------------------------------ subcommands ----------------------------- *)

(* One subcommand per entry of the system table; `alliance --bare` stands
   for alliance-bare. *)
let system_cmds =
  let cmd name ~doc system =
    let run system family n seed daemon_name spec sched output =
      run_system ~output ~system ~family ~n ~seed ~daemon_name ~spec
        ~scheduler:sched
    in
    Cmd.v (Cmd.info name ~doc)
      Term.(
        const run $ system $ family $ size $ seed $ daemon_name $ spec
        $ scheduler $ output_term)
  in
  let bare =
    Arg.(value & flag & info [ "bare" ] ~doc:"Run FGA alone from γ_init.")
  in
  List.filter_map
    (fun (s : Runner.system) ->
      match s.Runner.name with
      | "alliance-bare" -> None
      | "alliance" ->
          Some
            (cmd "alliance"
               ~doc:"Silent self-stabilizing 1-minimal (f,g)-alliance (FGA∘SDR)."
               Term.(
                 const (fun bare -> if bare then "alliance-bare" else "alliance")
                 $ bare))
      | name -> Some (cmd name ~doc:(s.Runner.doc ^ ".") (Term.const name)))
    (Runner.systems ~spec:Spec.dominating_set)

let run_cmd =
  let run system family n seed daemon_name spec sched engine parts perturb
      digest monitors heartbeat output =
    match (engine, find_system ~spec system) with
    | ("classic" | "flat"), None -> unknown_system system
    | "classic", Some system ->
        measured ~output ~system ~family ~n ~seed ~daemon_name ~spec
          ~scheduler:sched
    | "flat", Some system ->
        run_flat ~output ~system ~family ~n ~seed ~daemon_name ~parts ~perturb
          ~digest ~monitors ~heartbeat
    | e, _ -> fail "unknown engine %S (classic or flat)" e
  in
  let system =
    Arg.(
      value
      & pos 0 string "unison"
      & info [] ~docv:"SYSTEM"
          ~doc:
            (Printf.sprintf "System to run: %s (default unison)."
               (system_names ())))
  in
  let engine =
    Arg.(
      value & opt string "classic"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            (Printf.sprintf
               "$(b,classic) (per-process OCaml states, all systems, all \
                telemetry) or $(b,flat) (IR-compiled unboxed data path: %s; \
                the ring family streams directly into CSR form, so n = 10⁶ \
                is practical)."
               (system_names ~only:(fun s -> s.Runner.flat <> None) ())))
  in
  let parts =
    Arg.(
      value & opt int 1
      & info [ "parts" ] ~docv:"P"
          ~doc:
            "Flat engine only: with P > 1, step with P worker domains over \
             1024-aligned node ranges (requires $(b,-d synchronous)).  \
             Results are identical for every P.")
  in
  let perturb =
    Arg.(
      value
      & opt (some int) None
      & info [ "perturb" ] ~docv:"K"
          ~doc:
            "Flat engine only: start from the legitimate ground \
             configuration with $(docv) random processes corrupted, instead \
             of a fully arbitrary configuration — the scale workload (a \
             10⁶-node run then stabilizes in seconds).")
  in
  let digest =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:
            "Flat engine only: print one deterministic summary line \
             (outcome, steps, moves, rounds, state checksum — no \
             wall-clock) instead of the report; byte-comparable across \
             $(b,--parts) values.")
  in
  let monitors =
    Arg.(
      value & flag
      & info [ "monitors" ]
          ~doc:
            "Flat engine only: latch the paper's convergence bounds online \
             (3n rounds; D·n² moves, ring diameter ⌊n/2⌋) and report any \
             violation on stderr.  Results are unchanged; each bound trips \
             at most once.")
  in
  let heartbeat =
    Arg.(
      value
      & opt ~vopt:(Some 100) (some int) None
      & info [ "heartbeat" ] ~docv:"STEPS"
          ~doc:
            "Flat engine only: print a progress line to stderr every \
             $(docv) engine steps (default 100): step and move counts, \
             moves/s over the interval, enabled-set size, and — when the \
             spec has a legitimacy predicate — the legitimate-node count \
             and estimated availability (fraction of fully legitimate \
             steps).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one system on one network under one daemon — the generic \
          front door for scripted/telemetry use; combine with --json and \
          --trace-out.")
    Term.(
      const run $ system $ family $ size $ seed $ daemon_name $ spec
      $ scheduler $ engine $ parts $ perturb $ digest $ monitors $ heartbeat
      $ output_term)

let graph_cmd =
  let run family n seed dot =
    let g = family.Workload.build ~seed ~n in
    if dot then print_string (Graph.to_dot g)
    else begin
      Fmt.pr "%a@." Graph.pp g;
      Fmt.pr "diameter: %d  radius: %d  cyclomatic: %d  bipartite: %b@."
        (Metrics.diameter g) (Metrics.radius g) (Metrics.cyclomatic_number g)
        (Metrics.is_bipartite g);
      (match Metrics.girth g with
      | Some girth -> Fmt.pr "girth: %d@." girth
      | None -> Fmt.pr "girth: - (forest)@.");
      Fmt.pr "degrees: %a@."
        Fmt.(list ~sep:(any " ") (pair ~sep:(any "x") int int))
        (List.map (fun (d, c) -> (c, d)) (Metrics.degree_histogram g))
    end;
    0
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz.") in
  Cmd.v
    (Cmd.info "graph" ~doc:"Inspect a generated network.")
    Term.(const run $ family $ size $ seed $ dot)

let check_cmd =
  let family_conv =
    let all = [ "all"; "complete"; "ring"; "path"; "star" ] in
    Arg.enum (List.map (fun f -> (f, f)) all)
  in
  let graphs_of_family = function
    | "complete" -> Some (fun n -> [ Ssreset_graph.Gen.complete n ])
    | "ring" -> Some (fun n -> if n < 3 then [] else [ Ssreset_graph.Gen.ring n ])
    | "path" -> Some (fun n -> if n < 2 then [] else [ Ssreset_graph.Gen.path n ])
    | "star" -> Some (fun n -> if n < 2 then [] else [ Ssreset_graph.Gen.star n ])
    | _ -> None
  in
  let entry_caps (e : Registry.entry) =
    let cert =
      let g = Ssreset_graph.Gen.complete (max 2 e.Registry.min_n) in
      let module F = (val e.Registry.instance g) in
      Option.is_some F.certificate
    in
    let mark b = if b then "yes" else "-" in
    let has_rank spec =
      match spec with
      | None -> false
      | Some (s : Ssreset_check.Sym.spec) ->
          Option.is_some s.Ssreset_check.Sym.sp_rank
    in
    Printf.sprintf "%-5s %-10s %-7s %-4s %-4s" (mark cert)
      (mark (Option.is_some e.Registry.footprint))
      (mark (Option.is_some e.Registry.sym))
      (mark
         (Option.is_some e.Registry.smt_spec
         || Option.is_some e.Registry.comp_spec))
      (mark (has_rank e.Registry.smt_spec || has_rank e.Registry.comp_spec))
  in
  let run algo json quick max_n list_only symmetry footprint sym certs
      family smt_out =
    if list_only then begin
      Fmt.pr "%-16s %-5s %-10s %-7s %-4s %-4s %s@." "NAME" "cert" "footprint"
        "sym-IR" "smt" "rank" "DESCRIPTION";
      List.iter
        (fun (e : Registry.entry) ->
          Fmt.pr "%-16s %s %s@." e.Registry.name (entry_caps e)
            e.Registry.description)
        (Registry.entries @ Registry.fixtures);
      0
    end
    else begin
      let selected =
        match algo with
        | None -> Registry.entries
        | Some pattern -> Registry.find pattern
      in
      match selected with
      | [] ->
          Fmt.epr "no algorithm matches %S (try --list)@."
            (Option.value ~default:"" algo);
          2
      | selected ->
          let mode = if quick then `Quick else `Full in
          let options =
            { Ssreset_check.Model.default_options with symmetry; certs }
          in
          let graphs = graphs_of_family family in
          let reports =
            List.map
              (fun e ->
                Registry.run ~mode ?max_n ~footprint ~sym ?graphs ~options e)
              selected
          in
          (match smt_out with
          | None -> ()
          | Some dir ->
              let obs =
                List.concat_map
                  (fun (r : Report.entry_report) -> r.Report.obligations)
                  reports
              in
              if obs = [] then
                Fmt.epr "no selected entry carries a symbolic spec; nothing \
                         to emit@."
              else
                let manifest = Ssreset_check.Obligation.write ~dir obs in
                Fmt.epr "wrote %d obligations + %s@." (List.length obs)
                  manifest);
          if json then print_endline (Json.to_string (Report.to_json reports))
          else Fmt.pr "%a@." Report.pp reports;
          if Report.ok reports then 0 else 1
    end
  in
  let algo =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ALGO"
          ~doc:
            "Algorithm name or substring (e.g. $(b,unison) selects \
             min-unison, tail-unison and unison-sdr).  Default: every \
             registered paper algorithm; the toy fixtures run only when \
             named explicitly.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the findings report as one JSON object on stdout.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Use the small graph-size ceilings (the same sweep as `dune \
             runtest`).")
  in
  let max_n =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-n" ] ~docv:"N"
          ~doc:
            "Override the per-entry ceiling: check all connected graphs up \
             to $(docv) processes (one per isomorphism class; capped at \
             6).")
  in
  let list_only =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:
            "List registered algorithms and fixtures with their capability \
             columns: potential-function certificate, composed footprint \
             target, symbolic rule IR (differential pass), SMT obligation \
             spec (input-layer or composed), global ranking function \
             (rank / comp.rank obligation families).")
  in
  let symmetry =
    Arg.(
      value & flag
      & info [ "symmetry" ]
          ~doc:
            "Explore one configuration per graph-automorphism orbit instead \
             of the full configuration space.  Sound for anonymous \
             instances (uniform state domains); verdicts and worst cases \
             are identical to the unreduced run.  Lets exhaustive checking \
             reach n = 6 on symmetric graphs within the default budget.")
  in
  let footprint =
    Arg.(
      value
      & opt bool true
      & info [ "footprint" ] ~docv:"BOOL"
          ~doc:
            "Run the footprint / non-interference pass (per-rule read and \
             write sets; the paper's Requirements 2b, 2e and 3 on composed \
             instances).  Default: $(b,true).")
  in
  let sym =
    Arg.(
      value
      & opt bool true
      & info [ "sym" ] ~docv:"BOOL"
          ~doc:
            "Run the symbolic-IR differential pass (the attached \
             first-order spec must agree with the OCaml rules on the \
             enabled set and post-state, over strided view sweeps and \
             under every registered daemon).  Default: $(b,true).")
  in
  let smt_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "smt-out" ] ~docv:"DIR"
          ~doc:
            "Also compile each selected entry's symbolic spec to SMT-LIB \
             proof obligations (all four topology families) and write one \
             $(b,.smt2) per obligation plus $(b,manifest.json) into \
             $(docv).  See also the $(b,smt) subcommand.")
  in
  let certs =
    Arg.(
      value
      & opt bool true
      & info [ "certs" ] ~docv:"BOOL"
          ~doc:
            "Verify registered potential-function certificates: on every \
             explored transition out of an illegitimate configuration whose \
             movers all fired covered rules, the potential must strictly \
             decrease.  Default: $(b,true).")
  in
  let family =
    Arg.(
      value
      & opt family_conv "all"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Restrict the sweep to one graph family per size: \
             $(b,complete), $(b,ring), $(b,path) or $(b,star) \
             ($(b,all) = every connected graph up to isomorphism).  \
             Combined with $(b,--symmetry), highly symmetric families \
             stay exhaustive up to n = 6.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Lint rule sets, analyze rule footprints and non-interference, \
          differentially validate attached symbolic rule IRs, and \
          exhaustively model-check self-stabilization properties \
          (closure, convergence/livelock-freedom, silence, certificate \
          descent, exact worst-case moves and rounds vs the paper bounds) \
          on all small connected graphs.  Exits 1 when findings or \
          violations exist.")
    Term.(
      const run $ algo $ json $ quick $ max_n $ list_only $ symmetry
      $ footprint $ sym $ certs $ family $ smt_out)

(* ------------------------------ smt export ------------------------------ *)

let smt_cmd =
  let module Obligation = Ssreset_check.Obligation in
  let module Smt = Ssreset_check.Smt in
  (* Selected entries: every registry entry / fixture carrying a symbolic
     spec or a composed-system spec, optionally filtered by a name
     pattern.  The composed spec contributes the comp.* rank family. *)
  let specs_of pattern =
    let pool =
      match pattern with
      | None -> Registry.entries @ Registry.fixtures
      | Some p -> Registry.find p
    in
    List.filter
      (fun (e : Registry.entry) ->
        Option.is_some e.Registry.smt_spec
        || Option.is_some e.Registry.comp_spec)
      pool
  in
  let compile pattern family =
    List.concat_map
      (fun (e : Registry.entry) ->
        let name = e.Registry.name in
        let base =
          match e.Registry.smt_spec with
          | None -> []
          | Some spec -> (
              match family with
              | None -> Obligation.compile_all ~algo:name spec
              | Some fam -> Obligation.compile ~algo:name spec fam)
        and composed =
          match e.Registry.comp_spec with
          | None -> []
          | Some spec -> (
              match family with
              | None -> Obligation.compile_composition_all ~algo:name spec
              | Some fam -> Obligation.compile_composition ~algo:name spec fam)
        in
        base @ composed)
      (specs_of pattern)
  in
  let pattern_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ALGO"
          ~doc:
            "Algorithm name or substring; default: every entry carrying a \
             symbolic spec.")
  in
  let family_arg =
    let fam_conv =
      Arg.conv
        ( (fun s ->
            if s = "all" then Ok None
            else
              match Obligation.family_of_string s with
              | Some f -> Ok (Some f)
              | None ->
                  Error (`Msg (Printf.sprintf "unknown family %S" s))),
          fun ppf -> function
            | None -> Fmt.string ppf "all"
            | Some f -> Fmt.string ppf (Obligation.family_to_string f) )
    in
    Arg.(
      value
      & opt fam_conv None
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Topology family to axiomatize: $(b,ring), $(b,path), \
             $(b,star), $(b,complete) or $(b,all) (default).")
  in
  let emit_cmd =
    let run pattern family dir json =
      match compile pattern family with
      | [] ->
          Fmt.epr "no symbolic spec matches %S (try `check --list`)@."
            (Option.value ~default:"" pattern);
          2
      | obs ->
          let manifest = Obligation.write ~dir obs in
          if json then
            print_endline (Json.to_string (Obligation.to_json obs))
          else begin
            List.iter
              (fun ob -> Fmt.pr "%s@." (Obligation.filename ob))
              obs;
            Fmt.pr "wrote %d obligations + %s@." (List.length obs) manifest
          end;
          0
    in
    let dir =
      Arg.(
        value
        & opt string "_smt"
        & info [ "o"; "out" ] ~docv:"DIR"
            ~doc:"Output directory (created if missing).  Default: $(b,_smt).")
    in
    let json =
      Arg.(
        value & flag
        & info [ "json" ]
            ~doc:"Print the manifest object on stdout instead of file names.")
    in
    Cmd.v
      (Cmd.info "emit"
         ~doc:
           "Compile symbolic specs to SMT-LIB proof obligations and write \
            one $(b,.smt2) per obligation plus $(b,manifest.json).")
      Term.(const run $ pattern_arg $ family_arg $ dir $ json)
  in
  let lint_cmd =
    let run pattern family =
      match compile pattern family with
      | [] ->
          Fmt.epr "no symbolic spec matches %S@."
            (Option.value ~default:"" pattern);
          2
      | obs ->
          let dirty = ref 0 in
          List.iter
            (fun (ob : Obligation.t) ->
              let name = Obligation.filename ob in
              match Smt.parse_string (Smt.to_string ob.Obligation.ob_script) with
              | Error msg ->
                  incr dirty;
                  Fmt.pr "FAIL %-40s re-parse: %s@." name msg
              | Ok cmds -> (
                  match Smt.lint_script cmds with
                  | [] -> Fmt.pr "ok   %s@." name
                  | findings ->
                      incr dirty;
                      List.iter
                        (fun f -> Fmt.pr "FAIL %-40s %s@." name f)
                        findings))
            obs;
          if !dirty = 0 then begin
            Fmt.pr "%d obligations, all print/parse/lint clean@."
              (List.length obs);
            0
          end
          else begin
            Fmt.pr "%d of %d obligations dirty@." !dirty (List.length obs);
            1
          end
    in
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Compile obligations in memory, print them, re-parse the text \
            and lint the result (no free symbols, no dead declarations, a \
            check-sat) — the no-solver well-formedness gate.")
      Term.(const run $ pattern_arg $ family_arg)
  in
  let solve_cmd =
    let run pattern family solver kinds name_filter timeout =
      if not (Smt.solver_available solver) then begin
        Fmt.pr "solver %S not on PATH; skipping (obligations still \
                lint-checkable via `smt lint`)@."
          solver;
        0
      end
      else
        let keep (ob : Obligation.t) =
          (match kinds with
          | [] -> true
          | ks ->
              let k = Obligation.kind_to_string ob.Obligation.ob_kind in
              List.mem k ks)
          &&
          match name_filter with
          | None -> true
          | Some sub ->
              let name = ob.Obligation.ob_name in
              let nl = String.length name and sl = String.length sub in
              let rec at i =
                i + sl <= nl && (String.sub name i sl = sub || at (i + 1))
              in
              sl = 0 || at 0
        in
        match List.filter keep (compile pattern family) with
        | [] ->
            Fmt.epr "no obligation matches %S (kind/name filters \
                     included)@."
              (Option.value ~default:"" pattern);
            2
        | obs ->
            let args =
              match timeout with
              | None -> []
              | Some secs -> [ Printf.sprintf "-T:%d" secs ]
            in
            let tmp =
              Filename.temp_file "ssreset-smt" ""
            in
            Sys.remove tmp;
            let failures = ref 0 in
            List.iter
              (fun (ob : Obligation.t) ->
                let path = tmp ^ "." ^ Obligation.filename ob in
                Smt.write_file path ob.Obligation.ob_script;
                let verdict = Smt.solve ~solver ~args path in
                Sys.remove path;
                let name = Obligation.filename ob in
                match verdict with
                | Smt.Unsat -> Fmt.pr "ok   %-40s unsat (proved)@." name
                | Smt.Unknown -> Fmt.pr "?    %-40s unknown@." name
                | Smt.Sat ->
                    incr failures;
                    Fmt.pr "FAIL %-40s sat — obligation violated@." name
                | Smt.Solver_error msg ->
                    incr failures;
                    Fmt.pr "FAIL %-40s solver error: %s@." name msg)
              obs;
            if !failures = 0 then 0 else 1
    in
    let solver =
      Arg.(
        value
        & opt string "z3"
        & info [ "solver" ] ~docv:"BIN"
            ~doc:"SMT solver binary to execute.  Default: $(b,z3).")
    in
    let kinds =
      Arg.(
        value
        & opt (list string) []
        & info [ "kind" ] ~docv:"KIND,..."
            ~doc:
              "Only solve obligations of the listed kinds \
               ($(b,closure), $(b,cert-decrease), $(b,range), \
               $(b,requirement), $(b,rank), $(b,composition)).  Default: \
               all kinds.")
    in
    let name_filter =
      Arg.(
        value
        & opt (some string) None
        & info [ "name" ] ~docv:"SUBSTR"
            ~doc:
              "Only solve obligations whose name contains $(docv) (e.g. \
               $(b,rank-decrease)).")
    in
    let timeout =
      Arg.(
        value
        & opt (some int) None
        & info [ "timeout" ] ~docv:"SECS"
            ~doc:
              "Per-obligation soft timeout, passed to the solver as \
               $(b,-T:SECS) (z3 syntax); a timed-out obligation reports \
               $(b,unknown) and does not fail the run.")
    in
    Cmd.v
      (Cmd.info "solve"
         ~doc:
           "Discharge obligations with an external SMT solver when one is \
            on PATH (skips cleanly otherwise — nothing is linked).  Exits \
            1 on a $(b,sat) (violated obligation) or a solver error; \
            $(b,unknown) is reported but does not fail.")
      Term.(
        const run $ pattern_arg $ family_arg $ solver $ kinds $ name_filter
        $ timeout)
  in
  Cmd.group
    (Cmd.info "smt"
       ~doc:
         "Unbounded-n proof obligations: compile registered symbolic rule \
          IRs to SMT-LIB2 over a symbolic node sort with parametric \
          topology axioms, so a discharged obligation holds for every \
          graph of the family and every size.")
    [ emit_cmd; lint_cmd; solve_cmd ]

(* ----------------------------- trace explorer --------------------------- *)

(* Offline wave reconstruction: replay the recorded wave tags through the
   same span builder the online tracker feeds. *)
let span_of_trace (t : Tracefile.t) =
  let graph = Tracefile.graph_of t in
  let span = Span.create ~n:t.Tracefile.n in
  Span.seed_active ~graph span
    (List.map (fun (p, _, d) -> (p, d)) t.Tracefile.init_active);
  List.iter
    (fun (s : Tracefile.step) ->
      Span.feed_step span ~step:s.Tracefile.index
        (List.filter_map
           (fun (m : Tracefile.mover) ->
             Option.map (fun ev -> (m.Tracefile.p, ev)) m.Tracefile.wave)
           s.Tracefile.movers))
    t.Tracefile.steps;
  span

let causality_of_trace ?keep_edges (t : Tracefile.t) =
  Causality.build ?keep_edges ~graph:(Tracefile.graph_of t)
    (Tracefile.mover_pairs t)

let require_steps (t : Tracefile.t) k =
  if t.Tracefile.steps = [] then begin
    Fmt.epr
      "ssreset trace: no step records — record the run with --trace-out \
       FILE --trace-steps@.";
    2
  end
  else k ()

let wave_moves_total (w : Span.wave) =
  w.Span.r_moves + w.Span.rb_moves + w.Span.rf_moves + w.Span.c_moves

let trace_summary ~json (t : Tracefile.t) =
  let s = t.Tracefile.summary in
  let st = Span.stats (span_of_trace t) in
  let cp =
    if t.Tracefile.steps = [] then None
    else Some (Causality.critical_length (causality_of_trace t))
  in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            ([ ("system", Json.String t.Tracefile.system);
               ("family", Json.String t.Tracefile.family);
               ("n", Json.Int t.Tracefile.n);
               ("seed", Json.Int t.Tracefile.seed);
               ("daemon", Json.String t.Tracefile.daemon);
               ("outcome", Json.String s.Tracefile.outcome);
               ("rounds", Json.Int s.Tracefile.rounds);
               ("steps", Json.Int s.Tracefile.steps);
               ("moves", Json.Int s.Tracefile.moves);
               ("anomalies", Json.Int (List.length t.Tracefile.anomalies));
               ("waves", Json.Int st.Span.wave_count);
               ("waves_completed", Json.Int st.Span.completed);
               ("max_wave_depth", Json.Int st.Span.max_depth);
               ("max_wave_members", Json.Int st.Span.max_members);
               ("max_wave_duration", Json.Int st.Span.max_duration) ]
            @
            match cp with
            | Some cp -> [ ("critical_path", Json.Int cp) ]
            | None -> [])))
  else begin
    Fmt.pr "%s on %s n=%d (seed %d, %s daemon)@." t.Tracefile.system
      t.Tracefile.family t.Tracefile.n t.Tracefile.seed t.Tracefile.daemon;
    Fmt.pr "  outcome:       %s@." s.Tracefile.outcome;
    Fmt.pr "  rounds:        %d@." s.Tracefile.rounds;
    Fmt.pr "  steps:         %d@." s.Tracefile.steps;
    Fmt.pr "  moves:         %d@." s.Tracefile.moves;
    Fmt.pr "  anomalies:     %d@." (List.length t.Tracefile.anomalies);
    List.iter
      (fun (a : Tracefile.anomaly) ->
        Fmt.pr "    %s at step %d: value %d > bound %d%s@."
          a.Tracefile.monitor a.Tracefile.step a.Tracefile.value
          a.Tracefile.bound
          (match a.Tracefile.process with
          | Some p -> Printf.sprintf " (process %d)" p
          | None -> ""))
      t.Tracefile.anomalies;
    if t.Tracefile.steps <> [] then begin
      Fmt.pr "  waves:         %d (%d completed, %d preexisting)@."
        st.Span.wave_count st.Span.completed st.Span.preexisting_count;
      Fmt.pr "  max depth:     %d@." st.Span.max_depth;
      Fmt.pr "  max members:   %d@." st.Span.max_members;
      Fmt.pr "  max duration:  %d steps@." st.Span.max_duration;
      match cp with
      | Some cp ->
          Fmt.pr "  critical path: %d moves (rounds %d)@." cp
            s.Tracefile.rounds
      | None -> ()
    end
  end;
  0

let trace_waves ~json ~check (t : Tracefile.t) =
  require_steps t @@ fun () ->
  let span = span_of_trace t in
  let waves = Span.waves span in
  let st = Span.stats span in
  (if json then
     print_endline
       (Json.to_string
          (Json.List
             (List.map
                (fun (w : Span.wave) ->
                  Json.Obj
                    [ ("id", Json.Int w.Span.id);
                      ("root", Json.Int w.Span.root);
                      ("preexisting", Json.Bool w.Span.preexisting);
                      ("members", Json.Int w.Span.members);
                      ("depth", Json.Int w.Span.depth);
                      ("r", Json.Int w.Span.r_moves);
                      ("rb", Json.Int w.Span.rb_moves);
                      ("rf", Json.Int w.Span.rf_moves);
                      ("c", Json.Int w.Span.c_moves);
                      ("first_step", Json.Int w.Span.first_step);
                      ("last_step", Json.Int w.Span.last_step);
                      ("completed", Json.Bool (w.Span.active = 0)) ])
                waves)))
   else begin
     Fmt.pr "%d wave(s), %d completed, max depth %d@." st.Span.wave_count
       st.Span.completed st.Span.max_depth;
     Fmt.pr "  %4s %5s %7s %5s %5s  %-17s %s@." "id" "root" "members" "depth"
       "moves" "r/rb/rf/c" "steps";
     List.iter
       (fun (w : Span.wave) ->
         Fmt.pr "  %4d %5d %7d %5d %5d  %-17s %d..%d%s%s@." w.Span.id
           w.Span.root w.Span.members w.Span.depth (wave_moves_total w)
           (Printf.sprintf "%d/%d/%d/%d" w.Span.r_moves w.Span.rb_moves
              w.Span.rf_moves w.Span.c_moves)
           w.Span.first_step w.Span.last_step
           (if w.Span.preexisting then " (preexisting)" else "")
           (if w.Span.active > 0 then
              Printf.sprintf " [active %d]" w.Span.active
            else ""))
       waves
   end);
  if not check then 0
  else begin
    let require_complete = t.Tracefile.summary.Tracefile.outcome <> "step-limit" in
    let errors = ref (Span.check ~require_complete span) in
    (* Every wave-tagged move must be attributed to exactly one span: the
       per-wave totals must add up to the per-rule counters of the summary. *)
    let expect rule total =
      match
        List.assoc_opt rule t.Tracefile.summary.Tracefile.moves_per_rule
      with
      | Some expected when expected <> total ->
          errors :=
            !errors
            @ [ Printf.sprintf
                  "%s: %d moves attributed to waves but the summary counted \
                   %d"
                  rule total expected ]
      | _ -> ()
    in
    expect "SDR-R" (List.fold_left (fun a w -> a + w.Span.r_moves) 0 waves);
    expect "SDR-RB" (List.fold_left (fun a w -> a + w.Span.rb_moves) 0 waves);
    expect "SDR-RF" (List.fold_left (fun a w -> a + w.Span.rf_moves) 0 waves);
    expect "SDR-C" (List.fold_left (fun a w -> a + w.Span.c_moves) 0 waves);
    if st.Span.synthetic > 0 then
      errors :=
        !errors
        @ [ Printf.sprintf "%d synthetic wave(s): events without provenance"
              st.Span.synthetic ];
    match !errors with
    | [] ->
        Fmt.pr "wave check: OK (%d waves, every RB/RF move attributed, \
                completions balanced)@."
          st.Span.wave_count;
        0
    | errs ->
        List.iter (fun e -> Fmt.epr "wave check FAIL: %s@." e) errs;
        1
  end

let trace_critical_path ~json ~check (t : Tracefile.t) =
  require_steps t @@ fun () ->
  let c = causality_of_trace t in
  let cp = Causality.critical_length c in
  let s = t.Tracefile.summary in
  (if json then
     print_endline
       (Json.to_string
          (Json.Obj
             [ ("critical_path", Json.Int cp);
               ("moves", Json.Int (Causality.move_count c));
               ("edges", Json.Int (Causality.edge_count c));
               ("steps", Json.Int s.Tracefile.steps);
               ("rounds", Json.Int s.Tracefile.rounds);
               ( "attribution",
                 Json.Obj
                   (List.map
                      (fun (rule, count) -> (rule, Json.Int count))
                      (Causality.attribution c)) ) ]))
   else begin
     Fmt.pr "critical path: %d move(s) over %d total (%d causal edges)@." cp
       (Causality.move_count c) (Causality.edge_count c);
     Fmt.pr "  steps %d, rounds %d — the path explains %d of %d rounds@."
       s.Tracefile.steps s.Tracefile.rounds (min cp s.Tracefile.rounds)
       s.Tracefile.rounds;
     List.iter
       (fun (rule, count) -> Fmt.pr "  %-12s %d@." rule count)
       (Causality.attribution c)
   end);
  if not check then 0
  else begin
    let errors = ref [] in
    if cp > s.Tracefile.steps then
      errors :=
        [ Printf.sprintf "critical path %d exceeds steps %d" cp
            s.Tracefile.steps ];
    (* Under the synchronous daemon every move at step k was enabled or
       rewritten by a step-(k-1) neighborhood move, so the longest chain
       spans every step exactly. *)
    if t.Tracefile.daemon = "synchronous" && cp <> s.Tracefile.steps then
      errors :=
        !errors
        @ [ Printf.sprintf
              "synchronous daemon: critical path %d should equal steps %d" cp
              s.Tracefile.steps ];
    match !errors with
    | [] ->
        Fmt.pr "critical-path check: OK@.";
        0
    | errs ->
        List.iter (fun e -> Fmt.epr "critical-path check FAIL: %s@." e) errs;
        1
  end

let trace_dot ~what ~max_moves (t : Tracefile.t) =
  require_steps t @@ fun () ->
  (match what with
  | `Waves -> print_string (Span.to_dot (span_of_trace t))
  | `Causal ->
      print_string
        (Causality.to_dot ~max_moves (causality_of_trace ~keep_edges:true t)));
  0

let trace_diff ~json (a : Tracefile.t) (b : Tracefile.t) =
  let sa = a.Tracefile.summary and sb = b.Tracefile.summary in
  let sta = Span.stats (span_of_trace a)
  and stb = Span.stats (span_of_trace b) in
  let cp (t : Tracefile.t) =
    if t.Tracefile.steps = [] then 0
    else Causality.critical_length (causality_of_trace t)
  in
  let cpa = cp a and cpb = cp b in
  let fields =
    [ ("system", a.Tracefile.system, b.Tracefile.system);
      ("family", a.Tracefile.family, b.Tracefile.family);
      ("daemon", a.Tracefile.daemon, b.Tracefile.daemon);
      ("n", string_of_int a.Tracefile.n, string_of_int b.Tracefile.n);
      ("seed", string_of_int a.Tracefile.seed, string_of_int b.Tracefile.seed);
      ("outcome", sa.Tracefile.outcome, sb.Tracefile.outcome);
      ("rounds", string_of_int sa.Tracefile.rounds,
       string_of_int sb.Tracefile.rounds);
      ("steps", string_of_int sa.Tracefile.steps,
       string_of_int sb.Tracefile.steps);
      ("moves", string_of_int sa.Tracefile.moves,
       string_of_int sb.Tracefile.moves);
      ("waves", string_of_int sta.Span.wave_count,
       string_of_int stb.Span.wave_count);
      ("max_wave_depth", string_of_int sta.Span.max_depth,
       string_of_int stb.Span.max_depth);
      ("critical_path", string_of_int cpa, string_of_int cpb);
      ("anomalies", string_of_int (List.length a.Tracefile.anomalies),
       string_of_int (List.length b.Tracefile.anomalies)) ]
  in
  let diffs = List.filter (fun (_, x, y) -> x <> y) fields in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            (List.map
               (fun (name, x, y) ->
                 (name, Json.Obj [ ("a", Json.String x); ("b", Json.String y) ]))
               diffs)))
  else if diffs = [] then Fmt.pr "traces agree on every compared field@."
  else
    List.iter
      (fun (name, x, y) -> Fmt.pr "%-15s %s | %s@." name x y)
      diffs;
  if diffs = [] then 0 else 1

let trace_cmd =
  let run action file file2 json check what max_moves =
    let load path k =
      match Tracefile.load_file path with
      | Error msg ->
          Fmt.epr "ssreset trace: %s@." msg;
          2
      | Ok t -> k t
    in
    match action with
    | "summary" -> load file (trace_summary ~json)
    | "waves" -> load file (trace_waves ~json ~check)
    | "critical-path" -> load file (trace_critical_path ~json ~check)
    | "dot" -> load file (trace_dot ~what ~max_moves)
    | "diff" -> (
        match file2 with
        | None ->
            Fmt.epr "ssreset trace diff needs two trace files@.";
            2
        | Some f2 -> load file (fun a -> load f2 (fun b -> trace_diff ~json a b)))
    | other ->
        Fmt.epr
          "unknown trace action %S (summary, waves, critical-path, diff, \
           dot)@."
          other;
        2
  in
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,summary) (outcome, wave and critical-path overview), \
             $(b,waves) (per-wave spans), $(b,critical-path) (happens-before \
             analysis), $(b,diff) (compare two traces), $(b,dot) (Graphviz \
             export).")
  in
  let file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"TRACE" ~doc:"JSONL trace recorded with --trace-out.")
  in
  let file2 =
    Arg.(
      value
      & pos 2 (some string) None
      & info [] ~docv:"TRACE2" ~doc:"Second trace (for $(b,diff)).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the analysis as JSON.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Verify structural invariants (wave balance; critical path ≤ \
             steps, = steps under the synchronous daemon) and exit 1 on \
             violation.")
  in
  let what =
    Arg.(
      value
      & opt (enum [ ("waves", `Waves); ("causal", `Causal) ]) `Waves
      & info [ "what" ] ~docv:"WHAT"
          ~doc:"For $(b,dot): $(b,waves) (wave DAG) or $(b,causal) \
                (happens-before DAG).")
  in
  let max_moves =
    Arg.(
      value & opt int 400
      & info [ "max-moves" ] ~docv:"N"
          ~doc:"For $(b,dot --what causal): render at most $(docv) moves.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Explore a recorded ssreset-trace-v1 JSONL trace: reset-wave \
          provenance, happens-before critical paths, bound-monitor \
          anomalies, DOT export.  Record traces with --trace-out FILE \
          --trace-steps.")
    Term.(
      const run $ action $ file $ file2 $ json $ check $ what $ max_moves)

(* ---------------------------- profile explorer --------------------------- *)

let ns_str ns =
  let f = float_of_int ns in
  if f >= 1e9 then Printf.sprintf "%.3fs" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2fms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fus" (f /. 1e3)
  else Printf.sprintf "%dns" ns

let fns_str f = ns_str (int_of_float f)

let prof_counter (s : Proffile.summary) name =
  Option.value ~default:0 (List.assoc_opt name s.Proffile.counters)

let section_json ~total (name, (sec : Proffile.section)) =
  ( name,
    Json.Obj
      [ ("ns", Json.Int sec.Proffile.ns);
        ( "share",
          Json.Float
            (if total > 0 then float_of_int sec.Proffile.ns /. float_of_int total
             else 0.) );
        ("count", Json.Int sec.Proffile.count);
        ("mean_ns", Json.Float sec.Proffile.mean_ns);
        ("p50_ns", Json.Float sec.Proffile.p50_ns);
        ("p90_ns", Json.Float sec.Proffile.p90_ns);
        ("max_ns", Json.Int sec.Proffile.max_ns) ] )

let print_sections ~total sections =
  Fmt.pr "  %-12s %10s %6s %10s %10s %10s %10s@." "" "total" "share" "count"
    "mean" "p50" "p90";
  List.iter
    (fun (name, (sec : Proffile.section)) ->
      Fmt.pr "  %-12s %10s %5.1f%% %10d %10s %10s %10s@." name
        (ns_str sec.Proffile.ns)
        (if total > 0 then
           100. *. float_of_int sec.Proffile.ns /. float_of_int total
         else 0.)
        sec.Proffile.count
        (fns_str sec.Proffile.mean_ns)
        (fns_str sec.Proffile.p50_ns)
        (fns_str sec.Proffile.p90_ns))
    sections

(* The acceptance criterion of the profiling layer: the lap-based phase
   timers tile the engine loop, so their sum must account for (nearly all
   of) the run's wall clock. *)
let coverage_band = (0.90, 1.10)

let prof_gauge (s : Proffile.summary) name =
  match List.assoc_opt name s.Proffile.gauges with Some v -> v | None -> 0.

(* Per-worker attribution of a partitioned flat stream: the engine's
   per-domain phase laps ([flat.workerN.*]) plus the Team's busy/barrier
   split ([pool.workerN.*]). *)
type worker_row = {
  wr_id : int;
  wr_compute_s : float;
  wr_write_s : float;
  wr_refresh_s : float;
  wr_busy_s : float;
  wr_barrier_s : float;
  wr_gc_minor : float;
  wr_gc_major : float;
}

let worker_rows (s : Proffile.summary) ~parts =
  List.init parts (fun w ->
      let g name = prof_gauge s (Printf.sprintf "%s%d.%s" "flat.worker" w name) in
      let pg name =
        prof_gauge s (Printf.sprintf "%s%d.%s" "pool.worker" w name)
      in
      { wr_id = w;
        wr_compute_s = g "compute_s";
        wr_write_s = g "write_s";
        wr_refresh_s = g "refresh_s";
        wr_busy_s = pg "busy_s";
        wr_barrier_s = pg "barrier_s";
        wr_gc_minor = g "gc_minor_words";
        wr_gc_major = g "gc_major_words" })

let worker_row_json r =
  Json.Obj
    [ ("worker", Json.Int r.wr_id);
      ("compute_s", Json.Float r.wr_compute_s);
      ("write_s", Json.Float r.wr_write_s);
      ("refresh_s", Json.Float r.wr_refresh_s);
      ("busy_s", Json.Float r.wr_busy_s);
      ("barrier_s", Json.Float r.wr_barrier_s);
      ("gc_minor_words", Json.Float r.wr_gc_minor);
      ("gc_major_words", Json.Float r.wr_gc_major) ]

let prof_report ~json ~check (p : Proffile.t) =
  let s = p.Proffile.summary in
  let attributed = Proffile.phase_total_ns p in
  let wall_ns = int_of_float (s.Proffile.wall_s *. 1e9) in
  (* A partitioned flat stream records [flat.parts]; its per-worker phase
     laps (plus barrier waits) tile parts × wall, so that is the coverage
     denominator for multi-worker streams. *)
  let parts =
    let v = int_of_float (prof_gauge s "flat.parts") in
    if v > 0 then v else 1
  in
  let wall_total_ns = wall_ns * parts in
  let coverage =
    if wall_total_ns > 0 then
      float_of_int attributed /. float_of_int wall_total_ns
    else 0.
  in
  let touched = prof_counter s "sched.touched" in
  let dedup = prof_counter s "sched.dedup_hits" in
  let dedup_rate =
    if touched > 0 then 100. *. float_of_int dedup /. float_of_int touched
    else 0.
  in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("system", Json.String p.Proffile.system);
              ("family", Json.String p.Proffile.family);
              ("n", Json.Int p.Proffile.n);
              ("seed", Json.Int p.Proffile.seed);
              ("daemon", Json.String p.Proffile.daemon);
              ("steps", Json.Int s.Proffile.steps);
              ("moves", Json.Int s.Proffile.moves);
              ("wall_s", Json.Float s.Proffile.wall_s);
              ("windows", Json.Int s.Proffile.window_count);
              ("attributed_ns", Json.Int attributed);
              ("coverage", Json.Float coverage);
              ("parts", Json.Int parts);
              ( "workers",
                if parts > 1 then
                  Json.List (List.map worker_row_json (worker_rows s ~parts))
                else Json.List [] );
              ( "phases",
                Json.Obj
                  (List.map (section_json ~total:attributed) s.Proffile.phases)
              );
              ( "rules",
                Json.Obj
                  (List.map (section_json ~total:attributed) s.Proffile.rules)
              );
              ( "counters",
                Json.Obj
                  (List.map
                     (fun (n, v) -> (n, Json.Int v))
                     s.Proffile.counters) );
              ( "gauges",
                Json.Obj
                  (List.map
                     (fun (n, v) -> (n, Json.Float v))
                     s.Proffile.gauges) ) ]))
  else begin
    Fmt.pr "%s on %s n=%d (seed %d, %s daemon)@." p.Proffile.system
      p.Proffile.family p.Proffile.n p.Proffile.seed p.Proffile.daemon;
    Fmt.pr "  steps: %d  moves: %d  wall: %.3fs  windows: %d@."
      s.Proffile.steps s.Proffile.moves s.Proffile.wall_s
      s.Proffile.window_count;
    Fmt.pr "phases (engine loop attribution):@.";
    print_sections ~total:attributed s.Proffile.phases;
    if parts > 1 then
      Fmt.pr "  attributed %s = %.1f%% of %d workers x wall clock@."
        (ns_str attributed) (100. *. coverage) parts
    else
      Fmt.pr "  attributed %s = %.1f%% of wall clock@." (ns_str attributed)
        (100. *. coverage);
    if parts > 1 then begin
      Fmt.pr "per-worker attribution (%d domains):@." parts;
      Fmt.pr "  %-7s %10s %10s %10s %10s %10s %12s@." "worker" "compute"
        "write" "refresh" "busy" "barrier" "gc minor w";
      List.iter
        (fun r ->
          Fmt.pr "  %-7d %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs %12.0f@." r.wr_id
            r.wr_compute_s r.wr_write_s r.wr_refresh_s r.wr_busy_s
            r.wr_barrier_s r.wr_gc_minor)
        (worker_rows s ~parts);
      match List.assoc_opt "barrier" s.Proffile.phases with
      | Some (sec : Proffile.section) ->
          Fmt.pr
            "  barrier waits: %d spans, p50 %s  p90 %s  max %s (%s total)@."
            sec.Proffile.count
            (fns_str sec.Proffile.p50_ns)
            (fns_str sec.Proffile.p90_ns)
            (ns_str sec.Proffile.max_ns)
            (ns_str sec.Proffile.ns)
      | None -> ()
    end;
    if touched > 0 || prof_counter s "sched.evals" > 0 then
      Fmt.pr
        "scheduler: touched %d  evals %d  dedup hits %d (%.1f%%)  table \
         flips %d@."
        touched
        (prof_counter s "sched.evals")
        dedup dedup_rate
        (prof_counter s "sched.table_flips");
    Fmt.pr "gc: minor %d w  promoted %d w  major %d w  collections %d+%d@."
      (prof_counter s "gc.minor_words")
      (prof_counter s "gc.promoted_words")
      (prof_counter s "gc.major_words")
      (prof_counter s "gc.minor_collections")
      (prof_counter s "gc.major_collections")
  end;
  if not check then 0
  else begin
    let lo, hi = coverage_band in
    if wall_ns <= 0 then begin
      Fmt.epr "prof check FAIL: summary wall_s is zero@.";
      1
    end
    else if coverage < lo || coverage > hi then begin
      Fmt.epr
        "prof check FAIL: phase attribution covers %.1f%% of %s \
         (expected %.0f%%..%.0f%%)@."
        (100. *. coverage)
        (if parts > 1 then Printf.sprintf "%d workers x wall clock" parts
         else "wall clock")
        (100. *. lo) (100. *. hi);
      1
    end
    else begin
      Fmt.pr "prof check: OK (%.1f%% of %s attributed to phases)@."
        (100. *. coverage)
        (if parts > 1 then Printf.sprintf "%d workers x wall clock" parts
         else "wall clock");
      0
    end
  end

let prof_top ~json (p : Proffile.t) =
  let s = p.Proffile.summary in
  let rules =
    List.sort
      (fun (_, (a : Proffile.section)) (_, (b : Proffile.section)) ->
        compare b.Proffile.ns a.Proffile.ns)
      s.Proffile.rules
  in
  let total =
    List.fold_left
      (fun a (_, (sec : Proffile.section)) -> a + sec.Proffile.ns)
      0 rules
  in
  if json then
    print_endline
      (Json.to_string (Json.Obj (List.map (section_json ~total) rules)))
  else if rules = [] then
    Fmt.pr "no rule timers (profile recorded without an attached engine?)@."
  else begin
    Fmt.pr "rules by total apply time:@.";
    print_sections ~total rules
  end;
  0

let prof_windows ~json (p : Proffile.t) =
  let windows = p.Proffile.windows in
  if json then
    print_endline
      (Json.to_string
         (Json.List
            (List.map
               (fun (w : Proffile.window) ->
                 Json.Obj
                   [ ("index", Json.Int w.Proffile.index);
                     ("at_step", Json.Int w.Proffile.at_step);
                     ("steps", Json.Int w.Proffile.steps);
                     ("moves", Json.Int w.Proffile.moves);
                     ("wall_s", Json.Float w.Proffile.wall_s);
                     ("steps_per_s", Json.Float w.Proffile.steps_per_s);
                     ("moves_per_s", Json.Float w.Proffile.moves_per_s);
                     ( "moves_per_rule",
                       Json.Obj
                         (List.map
                            (fun (r, c) -> (r, Json.Int c))
                            w.Proffile.moves_per_rule) );
                     ("gc_minor_words", Json.Int w.Proffile.gc_minor_words);
                     ("gc_major_words", Json.Int w.Proffile.gc_major_words) ])
               windows)))
  else if windows = [] then
    Fmt.pr
      "no window records — profile the run with --prof-window STEPS > 0@."
  else begin
    Fmt.pr "  %5s %9s %7s %7s %11s %11s %11s@." "idx" "at_step" "steps"
      "moves" "steps/s" "moves/s" "gc minor w";
    List.iter
      (fun (w : Proffile.window) ->
        Fmt.pr "  %5d %9d %7d %7d %11.0f %11.0f %11d@." w.Proffile.index
          w.Proffile.at_step w.Proffile.steps w.Proffile.moves
          w.Proffile.steps_per_s w.Proffile.moves_per_s
          w.Proffile.gc_minor_words)
      windows
  end;
  0

let prof_cmd =
  let run action file json check =
    match Proffile.load_file file with
    | Error msg ->
        Fmt.epr "ssreset prof: %s@." msg;
        2
    | Ok p -> (
        match action with
        | "report" -> prof_report ~json ~check p
        | "top" -> prof_top ~json p
        | "windows" -> prof_windows ~json p
        | other ->
            Fmt.epr "unknown prof action %S (report, top, windows)@." other;
            2)
  in
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,report) (per-phase attribution, scheduler and GC counters), \
             $(b,top) (rules ranked by apply time), $(b,windows) (streaming \
             throughput windows).")
  in
  let file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"PROFILE"
          ~doc:"JSONL profile recorded with --prof-out.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the analysis as JSON.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "For $(b,report): verify the phase timers account for \
             90%..110% of the run's wall clock and exit 1 otherwise.")
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:
         "Explore a recorded ssreset-prof-v1 JSONL profile: phase/rule \
          timing attribution, scheduler and GC counters, streaming \
          windows.  Record profiles with --prof-out FILE [--prof-window \
          STEPS].")
    Term.(const run $ action $ file $ json $ check)

let experiments_cmd =
  let run quick jobs ids csv json =
    let profile =
      if quick then Ssreset_expt.Experiments.quick
      else Ssreset_expt.Experiments.full
    in
    let profile =
      match jobs with
      | Some jobs -> { profile with Ssreset_expt.Experiments.jobs }
      | None -> profile
    in
    let failures = ref 0 in
    List.iter
      (fun (id, tables) ->
        if ids = [] || List.mem id ids then begin
          if not (csv || json) then Fmt.pr "== %s ==@." id;
          List.iter
            (fun t ->
              if json then
                print_endline (Json.to_string (Ssreset_expt.Table.to_json t))
              else if csv then print_string (Ssreset_expt.Table.to_csv t)
              else begin
                Ssreset_expt.Table.print t;
                print_newline ()
              end)
            tables
        end)
      (Ssreset_expt.Experiments.all profile);
    !failures
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Small sweep.") in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Fan the grid cells of each experiment across $(docv) OCaml \
             domains.  Tables are byte-identical for any $(docv); only \
             wall-clock changes.  Default 1 (sequential).")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit tables as CSV (data only).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit tables as JSON objects, one per line.")
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.")
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the experiment tables.")
    Term.(const run $ quick $ jobs $ ids $ csv $ json)

let () =
  let doc =
    "self-stabilizing distributed cooperative reset (Devismes & Johnen, \
     ICDCS 2019) — reproduction"
  in
  let info = Cmd.info "ssreset" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          ([ run_cmd; trace_cmd; prof_cmd ]
          @ system_cmds
          @ [ graph_cmd; check_cmd; smt_cmd; experiments_cmd ])))
