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
module Profview = Ssreset_obs.Profview
module Tracefile = Ssreset_obs.Tracefile
module Traceview = Ssreset_obs.Traceview
module Registry = Ssreset_check.Registry
module Report = Ssreset_check.Report
module Obligation = Ssreset_check.Obligation
module Smt = Ssreset_check.Smt
module Engine = Ssreset_sim.Engine
module Flat = Ssreset_flat.Flat
module Monitor = Ssreset_obs.Monitor

(* ---------------------------- common options ---------------------------- *)

let switch name ~doc = Arg.(value & flag & info [ name ] ~doc)

let family_conv =
  let parse s =
    match Workload.by_name s with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown family %S (one of: %s)" s
               (String.concat ", " Workload.names)))
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
        ~doc:
          (Printf.sprintf "Graph family (%s)."
             (String.concat ", " Workload.names)))

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
        ~doc:(Printf.sprintf "Daemon: %s." (String.concat ", " Daemon.names)))

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
    switch "json"
      ~doc:
        "Emit the observation as a single JSON object on stdout instead \
         of the text report."
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
    switch "trace-steps"
      ~doc:
        "With $(b,--trace-out): also record one step record per engine \
         step (movers tagged with their reset-wave events for composed \
         systems) — the full ssreset-trace-v1 stream that $(b,ssreset \
         trace) analyzes."
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
  else Runner.pp_obs ~name Fmt.stdout obs;
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
    (String.concat ", " Daemon.names)

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
    ~spec =
  match Daemon.by_name daemon_name with
  | None -> unknown_daemon daemon_name
  | Some daemon -> (
      let graph = family.Workload.build ~seed ~n in
      if not (system.Runner.feasible graph) then
        fail "spec %s infeasible on this network" spec.Spec.spec_name
      else
        let name = system.Runner.name in
        try
          let with_trace k =
            match output.trace_out with
            | None -> k None
            | Some path ->
                let sink = Sink.create path in
                Sink.write sink
                  (Tracefile.manifest ~system:name
                     ~family:family.Workload.family_name ~seed
                     ~daemon:(Daemon.name daemon) graph);
                Fun.protect
                  ~finally:(fun () -> Sink.close sink)
                  (fun () -> k (Some sink))
          in
          let obs =
            with_prof ~output ~system:name ~family ~n:(Graph.n graph)
              ~m:(Graph.m graph) ~seed ~daemon:(Daemon.name daemon)
              (fun prof ->
                with_trace (fun sink ->
                    announce ~quiet:output.json family graph;
                    Runner.run ?sink ?prof
                      ~trace_steps:output.trace_steps system ~graph ~daemon
                      ~seed ()))
          in
          report ~json:output.json system.Runner.doc obs
        with Invalid_argument msg | Sys_error msg ->
          (* unwritable --trace-out path, … *)
          fail "%s" msg)

let run_system ~output ~system ~family ~n ~seed ~daemon_name ~spec =
  match find_system ~spec system with
  | None -> unknown_system system
  | Some system ->
      measured ~output ~system ~family ~n ~seed ~daemon_name ~spec

(* ------------------------------ flat engine ----------------------------- *)

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

let print_anomaly (a : Monitor.anomaly) =
  Fmt.epr "monitor: %s tripped at step %d (value %d > bound %d)@."
    a.Monitor.monitor a.Monitor.step a.Monitor.value a.Monitor.bound

(* The flat data-path engine runs the systems with a flat program
   ({!Runner.prepare_flat} / {!Runner.run_flat}) and shares the classic
   report/JSON pipeline through {!Runner.flat_obs}. *)
let run_flat ~output ~(system : Runner.system) ~family ~n ~seed ~daemon_name
    ~parts ~perturb ~digest ~monitors ~heartbeat =
  match (system.Runner.flat, Daemon.by_name daemon_name) with
  | None, _ ->
      fail
        "engine flat runs %s (got %S); the other systems have no symbolic IR \
         to compile yet"
        (system_names ~only:(fun s -> Option.is_some s.Runner.flat) ())
        system.Runner.name
  | _, None -> unknown_daemon daemon_name
  | _ when parts < 1 -> fail "--parts must be at least 1 (got %d)" parts
  | _ when Option.fold ~none:false ~some:(fun k -> k <= 0) heartbeat ->
      fail "--heartbeat must be a positive step count (got %d)"
        (Option.get heartbeat)
  | Some _, Some _ when parts > 1 && daemon_name <> "synchronous" ->
      fail "--parts > 1 is the partitioned synchronous mode; pass -d synchronous"
  | Some entry, Some daemon -> (
      try
        let f = Runner.prepare_flat ?perturb system ~family ~n ~seed in
        Option.iter
          (announce ~quiet:(output.json || digest) family)
          f.Runner.network;
        let monitor = if monitors then Some (Monitor.create ()) else None in
        let heartbeat = Option.map (fun every -> (every, print_beat)) heartbeat in
        let result =
          with_prof ~output
            ~extra:
              [ ("engine", Json.String "flat"); ("parts", Json.Int parts) ]
            ~system:entry.Ssreset_flat.Progs.pname ~family ~n:f.Runner.n
            ~m:f.Runner.m ~seed ~daemon:daemon_name (fun prof ->
              Runner.run_flat ?prof ?monitor ?heartbeat ~parts ~daemon ~seed f)
        in
        Option.iter
          (fun m -> List.iter print_anomaly (Monitor.anomalies m))
          monitor;
        if digest then begin
          print_endline (Ssreset_flat.Progs.digest f.Runner.prog result);
          if result.Flat.outcome = Engine.Stabilized then 0 else 1
        end
        else
          report ~json:output.json
            (Printf.sprintf "%s (flat engine, n=%d%s)"
               entry.Ssreset_flat.Progs.pname f.Runner.n
               (if parts > 1 then Printf.sprintf ", %d domains" parts else ""))
            (Runner.flat_obs result)
      with Invalid_argument msg | Sys_error msg -> fail "%s" msg)

(* ------------------------------ subcommands ----------------------------- *)

(* One subcommand per entry of the system table; `alliance --bare` stands
   for alliance-bare. *)
let system_cmds =
  let cmd name ~doc system =
    let run system family n seed daemon_name spec output =
      run_system ~output ~system ~family ~n ~seed ~daemon_name ~spec
    in
    Cmd.v (Cmd.info name ~doc)
      Term.(
        const run $ system $ family $ size $ seed $ daemon_name $ spec
        $ output_term)
  in
  let bare = switch "bare" ~doc:"Run FGA alone from γ_init." in
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
  let run system family n seed daemon_name spec engine parts perturb digest
      monitors heartbeat output =
    match (engine, find_system ~spec system) with
    | ("classic" | "flat"), None -> unknown_system system
    | "classic", Some system ->
        measured ~output ~system ~family ~n ~seed ~daemon_name ~spec
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
               (system_names ~only:(fun s -> Option.is_some s.Runner.flat) ())))
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
    switch "digest"
      ~doc:
        "Flat engine only: print one deterministic summary line \
         (outcome, steps, moves, rounds, state checksum — no \
         wall-clock) instead of the report; byte-comparable across \
         $(b,--parts) values."
  in
  let monitors =
    switch "monitors"
      ~doc:
        "Flat engine only: latch the system's convergence bounds online \
         (taking ⌊n/2⌋ as the ring's diameter) and report any violation \
         on stderr.  Results are unchanged; each bound trips at most once."
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
      const run $ system $ family $ size $ seed $ daemon_name $ spec $ engine
      $ parts $ perturb $ digest $ monitors $ heartbeat $ output_term)

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
  let dot = switch "dot" ~doc:"Emit Graphviz." in
  Cmd.v
    (Cmd.info "graph" ~doc:"Inspect a generated network.")
    Term.(const run $ family $ size $ seed $ dot)

(* The topology families of `check --family` and `smt --family`; [all]
   is no restriction. *)
let topology =
  Arg.enum
    (("all", None)
    :: List.map
         (fun f -> (Obligation.family_to_string f, Some f))
         Obligation.families)

let check_cmd =
  let run algo json quick max_n list_only symmetry footprint sym family =
    if list_only then begin
      print_string (Registry.listing ());
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
          let options = { Ssreset_check.Model.default_options with symmetry } in
          let graphs = Option.map Obligation.family_graphs family in
          let reports =
            List.map
              (fun e ->
                Registry.run ~mode ?max_n ~footprint ~sym ?graphs ~options e)
              selected
          in
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
    switch "json"
      ~doc:
        "Emit the findings report as one JSON object on stdout."
  in
  let quick =
    switch "quick"
      ~doc:
        "Use the small graph-size ceilings (the same sweep as `dune \
         runtest`)."
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
    switch "list"
      ~doc:
        "List registered algorithms and fixtures with their capability \
         columns: composed footprint target, symbolic rule IR \
         (differential pass), SMT obligation spec (input-layer or \
         composed), global ranking function (checked by the model \
         checker on every move and exported as the rank / comp.rank \
         obligation families)."
  in
  let symmetry =
    switch "symmetry"
      ~doc:
        "Explore one configuration per graph-automorphism orbit instead \
         of the full configuration space.  Sound for anonymous \
         instances (uniform state domains); verdicts and worst cases \
         are identical to the unreduced run.  Lets exhaustive checking \
         reach n = 6 on symmetric graphs within the default budget."
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
  let family =
    Arg.(
      value
      & opt topology None
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
          (closure, convergence/livelock-freedom, silence, rank descent, \
          exact worst-case moves and rounds vs the paper bounds) \
          on all small connected graphs.  Exits 1 when findings or \
          violations exist.")
    Term.(
      const run $ algo $ json $ quick $ max_n $ list_only $ symmetry
      $ footprint $ sym $ family)

(* ------------------------------ smt export ------------------------------ *)

let smt_cmd =
  (* Every obligation of the selected entries (all entries and fixtures,
     or those matching a name pattern), by the one export rule. *)
  let compile pattern family =
    List.concat_map
      (Registry.obligations ?family)
      (match pattern with
      | None -> Registry.entries @ Registry.fixtures
      | Some p -> Registry.find p)
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
    Arg.(
      value
      & opt topology None
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
      switch "json"
        ~doc:
          "Print the manifest object on stdout instead of file names."
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
              match Obligation.lint ob with
              | [] -> Fmt.pr "ok   %s@." name
              | findings ->
                  incr dirty;
                  List.iter (fun f -> Fmt.pr "FAIL %-40s %s@." name f) findings)
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
          (kinds = []
          || List.mem (Obligation.kind_to_string ob.Obligation.ob_kind) kinds)
          && Option.fold ~none:true
               ~some:(fun needle ->
                 Registry.contains ~needle ob.Obligation.ob_name)
               name_filter
        in
        match List.filter keep (compile pattern family) with
        | [] ->
            Fmt.epr "no obligation matches %S (kind/name filters \
                     included)@."
              (Option.value ~default:"" pattern);
            2
        | obs ->
            let args =
              Option.to_list (Option.map (Printf.sprintf "-T:%d") timeout)
            in
            let failures = ref 0 in
            List.iter
              (fun (ob : Obligation.t) ->
                let name = Obligation.filename ob in
                match Smt.solve ~solver ~args ob.Obligation.ob_script with
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
              "Only solve obligations whose name contains $(docv), ignoring \
               case (e.g. $(b,rank-decrease)).")
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

(* The explorers' analyses live beside their artifact formats
   (Traceview, Profview); the commands here load the artifact, pick the
   rendering and map the outcome to an exit code. *)
let print s =
  print_string s;
  flush stdout

let emit ~json to_json to_text v =
  if json then print_endline (Json.to_string (to_json v)) else print (to_text v)

(* A [--check] verdict: the OK line on stdout (exit 0) or one line per
   violation on stderr (exit 1). *)
let verdict ~check run v =
  if not check then 0
  else
    match run v with
    | Ok line ->
        print_endline line;
        0
    | Error lines ->
        List.iter prerr_endline lines;
        1

let trace_cmd =
  let run action file file2 json check what max_moves =
    let fail msg =
      Fmt.epr "ssreset trace: %s@." msg;
      2
    in
    let load path k =
      match Tracefile.load_file path with Error msg -> fail msg | Ok t -> k t
    in
    (* An analysis that needs step records, then its --check. *)
    let stepped analysis ~to_json ~to_text ~check_with t =
      match analysis t with
      | Error msg -> fail msg
      | Ok v ->
          emit ~json to_json to_text v;
          verdict ~check check_with v
    in
    match action with
    | "summary" ->
        load file (fun t ->
            emit ~json Traceview.summary_json Traceview.summary_text
              (Traceview.summary t);
            0)
    | "waves" ->
        load file
          (stepped Traceview.waves ~to_json:Traceview.waves_json
             ~to_text:Traceview.waves_text ~check_with:Traceview.waves_check)
    | "critical-path" ->
        load file
          (stepped Traceview.critical_path
             ~to_json:Traceview.critical_path_json
             ~to_text:Traceview.critical_path_text
             ~check_with:Traceview.critical_path_check)
    | "dot" ->
        load file (fun t ->
            match Traceview.dot ~what ~max_moves t with
            | Error msg -> fail msg
            | Ok dot ->
                print dot;
                0)
    | "diff" -> (
        match file2 with
        | None ->
            Fmt.epr "ssreset trace diff needs two trace files@.";
            2
        | Some f2 ->
            load file (fun a ->
                load f2 (fun b ->
                    let d = Traceview.diff a b in
                    emit ~json Traceview.diff_json Traceview.diff_text d;
                    if d = [] then 0 else 1)))
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
  let json = switch "json" ~doc:"Emit the analysis as JSON." in
  let check =
    switch "check"
      ~doc:
        "Verify structural invariants (wave balance; critical path ≤ \
         steps, = steps under the synchronous daemon) and exit 1 on \
         violation."
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

let prof_cmd =
  let run action file json check =
    match Proffile.load_file file with
    | Error msg ->
        Fmt.epr "ssreset prof: %s@." msg;
        2
    | Ok p -> (
        match action with
        | "report" ->
            let r = Profview.report p in
            emit ~json Profview.report_json Profview.report_text r;
            verdict ~check Profview.report_check r
        | "top" ->
            emit ~json Profview.top_json Profview.top_text (Profview.top p);
            0
        | "windows" ->
            emit ~json Profview.windows_json Profview.windows_text
              (Profview.windows p);
            0
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
  let json = switch "json" ~doc:"Emit the analysis as JSON." in
  let check =
    switch "check"
      ~doc:
        "For $(b,report): verify the phase timers account for \
         90%..110% of the run's wall clock and exit 1 otherwise."
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
  let module Experiments = Ssreset_expt.Experiments in
  let module Table = Ssreset_expt.Table in
  let run quick jobs ids csv json =
    match List.find_opt (fun id -> not (List.mem id Experiments.ids)) ids with
    | Some id ->
        fail "unknown experiment id %S (one of: %s)" id
          (String.concat ", " Experiments.ids)
    | None ->
        let profile = if quick then Experiments.quick else Experiments.full in
        let profile =
          Option.fold ~none:profile
            ~some:(fun jobs -> { profile with Experiments.jobs })
            jobs
        in
        (* Exit 1 when any table's ok column fails. *)
        let failures = ref 0 in
        List.iter
          (fun (id, tables) ->
            if ids = [] || List.mem id ids then begin
              if not (csv || json) then Fmt.pr "== %s ==@." id;
              List.iter
                (fun t ->
                  if not (Table.ok t) then incr failures;
                  if json then print_endline (Json.to_string (Table.to_json t))
                  else if csv then print_string (Table.to_csv t)
                  else begin
                    Table.print t;
                    print_newline ()
                  end)
                (tables ())
            end)
          (Experiments.all_lazy profile);
        if !failures = 0 then 0 else 1
  in
  let quick = switch "quick" ~doc:"Small sweep." in
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
  let csv = switch "csv" ~doc:"Emit tables as CSV (data only)." in
  let json = switch "json" ~doc:"Emit tables as JSON objects, one per line." in
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
