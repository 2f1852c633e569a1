module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Engine = Ssreset_sim.Engine
module Fault = Ssreset_sim.Fault
module Graph = Ssreset_graph.Graph
module Sdr = Ssreset_core.Sdr
module Spec = Ssreset_alliance.Spec
module Json = Ssreset_obs.Json
module Metrics = Ssreset_obs.Metrics
module Monitor = Ssreset_obs.Monitor
module Obs = Ssreset_obs.Obs
module Sink = Ssreset_obs.Sink
module Csr = Ssreset_graph.Csr
module Flat = Ssreset_flat.Flat
module Progs = Ssreset_flat.Progs

type obs = {
  outcome_ok : bool;
  result_ok : bool;
  rounds : int;
  moves : int;
  steps : int;
  sdr_moves : int;
  max_proc_moves : int;
  max_proc_sdr_moves : int;
  workload_p50 : float;
  workload_p90 : float;
  moves_per_rule : (string * int) list;
  segments : int option;
  ar_monotone : bool option;
  wall_s : float;
}

let max_int_array = Array.fold_left max 0

(* The per-process workload distribution (the Devismes-Ilcinkas-Johnen-
   Mazoit trade-off metric) is given as percentiles of the per-process move
   counts. *)
let observation ~outcome_ok ~result_ok ~rounds ~steps ~moves
    ~moves_per_process ~moves_per_rule ~wall_s =
  let samples = Array.to_list (Array.map float_of_int moves_per_process) in
  { outcome_ok;
    result_ok;
    rounds;
    moves;
    steps;
    sdr_moves = Engine.moves_of_rules moves_per_rule ~prefixes:[ "SDR-" ];
    max_proc_moves = max_int_array moves_per_process;
    max_proc_sdr_moves = 0;
    workload_p50 = Ssreset_sim.Stats.percentile samples ~p:50.;
    workload_p90 = Ssreset_sim.Stats.percentile samples ~p:90.;
    moves_per_rule;
    segments = None;
    ar_monotone = None;
    wall_s }

let is_sdr_rule name = String.starts_with ~prefix:"SDR-" name

let obs_fields o =
    [ ("outcome_ok", Json.Bool o.outcome_ok);
      ("result_ok", Json.Bool o.result_ok);
      ("rounds", Json.Int o.rounds);
      ("moves", Json.Int o.moves);
      ("steps", Json.Int o.steps);
      ("sdr_moves", Json.Int o.sdr_moves);
      ("max_proc_moves", Json.Int o.max_proc_moves);
      ("max_proc_sdr_moves", Json.Int o.max_proc_sdr_moves);
      ("workload_p50", Json.Float o.workload_p50);
      ("workload_p90", Json.Float o.workload_p90);
      ( "moves_per_rule",
        Json.Obj
          (List.map (fun (rule, count) -> (rule, Json.Int count)) o.moves_per_rule)
      );
      ("segments",
       match o.segments with Some s -> Json.Int s | None -> Json.Null);
      ("ar_monotone",
       match o.ar_monotone with Some b -> Json.Bool b | None -> Json.Null);
      ("wall_s", Json.Float o.wall_s);
      ("steps_per_s", Json.Float (Metrics.rate o.steps o.wall_s)) ]

let obs_json o = Json.Obj (obs_fields o)

let pp_obs ~name ppf o =
  Fmt.pf ppf "%s@." name;
  Fmt.pf ppf "  outcome ok:        %b@." o.outcome_ok;
  Fmt.pf ppf "  result ok:         %b@." o.result_ok;
  Fmt.pf ppf "  rounds:            %d@." o.rounds;
  Fmt.pf ppf "  steps:             %d@." o.steps;
  Fmt.pf ppf "  moves:             %d@." o.moves;
  Fmt.pf ppf "  wall clock:        %.3fs (%.0f steps/s)@." o.wall_s
    (Metrics.rate o.steps o.wall_s);
  Fmt.pf ppf "  workload p50/p90:  %.1f / %.1f moves/proc@." o.workload_p50
    o.workload_p90;
  match o.segments with
  | Some segments ->
      Fmt.pf ppf "  SDR moves:         %d@." o.sdr_moves;
      Fmt.pf ppf "  max SDR moves/proc:%d@." o.max_proc_sdr_moves;
      Fmt.pf ppf "  segments:          %d@." segments
  | None ->
      (* bare run: segments / alive roots are not measured *)
      Fmt.pf ppf "  segments:          -@."

(* ------------------------------- systems -------------------------------- *)

type 'state reset =
  | Bare : 'state reset
  | Composed : (module Sdr.S with type inner = 'i) -> 'i Sdr.state reset

type 'state setup = {
  algorithm : 'state Algorithm.t;
  init : Random.State.t -> 'state array;
  legit : ('state Algorithm.view -> bool) option;
  expect : Engine.outcome;
  check : 'state Engine.result -> bool;
  probe : 'state Obs.t option;
  max_steps : int;
  reset : 'state reset;
}

type packed = Setup : 'state setup -> packed

type bounds = { rounds_bound : int option; moves_bound : int Lazy.t option }

let no_bounds = { rounds_bound = None; moves_bound = None }

type system = {
  name : string;
  doc : string;
  flat : Progs.entry option;
  bounds : n:int -> diameter:int Lazy.t -> bounds;
  feasible : Graph.t -> bool;
  setup : Graph.t -> packed;
}

let graph_bounds system graph =
  system.bounds ~n:(Graph.n graph)
    ~diameter:(lazy (Ssreset_graph.Metrics.diameter graph))

(* ------------------------------- one run -------------------------------- *)

(* What the reset layer adds to a run: observers, the hook run at each
   round completion (bound monitors, then the round record's extra fields),
   the summary's extra fields, and the SDR measurements of the final
   observation. *)
type 'state layer = {
  observers : 'state Obs.t list;
  on_round : round:int -> steps:int -> (string * Json.t) list;
  summary_extra : unit -> (string * Json.t) list;
  finish : obs -> obs;
}

(* Bare (non-composed) runs measure neither segments nor alive-root
   monotonicity — those fields stay [None], not fabricated values — and
   trace steps without wave tags. *)
let bare_layer ?sink ~trace_steps probe =
  let tracer =
    match sink with
    | Some sink when trace_steps ->
        [ (fun ~step ~moved _cfg ->
            Sink.write sink
              (Sink.step_record ~step
                 ~movers:(List.map (fun (p, rule) -> (p, rule, None)) moved))) ]
    | _ -> []
  in
  { observers = Option.to_list probe @ tracer;
    on_round = (fun ~round:_ ~steps:_ -> []);
    summary_extra = (fun () -> []);
    finish = Fun.id }

(* I∘SDR runs stack per-process SDR move counts and the one alive-root
   tracker ({!Sdr.S.Segments}: segments, Remark 4's subset flag, and the
   alive-root count that the monitor and the round records read).  With a
   sink attached, online bound monitors ride along and [trace_steps] adds
   the wave-tagged step records of the ssreset-trace-v1 schema. *)
let composed_layer (type i) (module C : Sdr.S with type inner = i) ?sink
    ~trace_steps ~bounds (s : i Sdr.state setup) graph cfg0 : i Sdr.state layer
    =
  let per_proc_sdr, sdr_probe =
    Obs.per_process_moves ~n:(Graph.n graph) ~matches:is_sdr_rule ()
  in
  let segments = C.Segments.create graph cfg0 in
  let alive () = C.Segments.alive_count segments in
  let monitor = Option.map (fun sink -> Monitor.create ~sink ()) sink in
  let monitor_probes =
    match monitor with
    | None -> []
    | Some m ->
        (match bounds.moves_bound with
        | Some bound ->
            [ Monitor.move_bound m ~name:"moves-bound" ~bound:(Lazy.force bound) ]
        | None -> [])
        @ [ Monitor.non_increasing m ~name:"alive-roots-monotone"
              ~measure:(fun _ -> alive ()) ~init:(alive ()) ]
  in
  let tracer =
    match (sink, trace_steps) with
    | Some sink, true ->
        let tracker = C.Waves.create graph cfg0 in
        Sink.write sink
          (Sink.init_record
             ~active:
               (List.map
                  (fun (p, st, d) -> (p, Sdr.status_to_string st, d))
                  (C.Waves.initial_active cfg0)));
        [ (fun ~step ~moved after ->
            Sink.write sink
              (Sink.step_record ~step
                 ~movers:(C.Waves.classify_movers tracker moved));
            C.Waves.observer tracker ~step ~moved after) ]
    | _ -> []
  in
  { observers =
      Option.to_list s.probe
      @ [ sdr_probe; C.Segments.observer segments ]
      @ monitor_probes @ tracer;
    (* Rounds complete after the step's observers ran, so the tracker
       already holds the round's last configuration.  Bound monitors see the
       round before its record is written: an anomaly precedes the round
       record that exposes it. *)
    on_round =
      (fun ~round ~steps ->
        (match (monitor, bounds.rounds_bound) with
        | Some m, Some bound ->
            Monitor.round_bound m ~name:"rounds-bound" ~bound ~round ~steps
        | _ -> ());
        [ ("alive_roots", Json.Int (alive ()));
          ("segments", Json.Int (C.Segments.count segments)) ]);
    summary_extra =
      (fun () ->
        match monitor with
        | Some m -> [ ("anomalies", Json.Int (Monitor.anomaly_count m)) ]
        | None -> []);
    finish =
      (fun o ->
        { o with
          max_proc_sdr_moves = max_int_array per_proc_sdr;
          segments = Some (C.Segments.count segments);
          ar_monotone = Some (C.Segments.monotone segments) }) }

let layer (type s) ?sink ~trace_steps ~bounds (s : s setup) graph
    (cfg : s array) : s layer =
  match s.reset with
  | Bare -> bare_layer ?sink ~trace_steps s.probe
  | Composed c -> composed_layer c ?sink ~trace_steps ~bounds s graph cfg

(* The summary repeats these observation fields, in this order. *)
let summary_keys =
  [ "outcome_ok"; "result_ok"; "sdr_moves"; "max_proc_moves";
    "max_proc_sdr_moves"; "segments"; "ar_monotone"; "moves_per_rule" ]

(* With a sink attached, a run carries a metrics registry fed by the
   engine's [on_step]/[on_round] hooks and emits one JSONL record per round
   plus a final summary.  Without a sink all of this is skipped, so the
   sweeps and benchmarks pay nothing. *)
let telemetry sink layer =
  let metrics = Metrics.create () in
  let buckets = Metrics.pow2_buckets ~limit:4096. in
  let h_enabled = Metrics.histogram metrics "enabled_set_size" ~buckets in
  let h_selected = Metrics.histogram metrics "selected_set_size" ~buckets in
  let h_round = Metrics.histogram metrics "steps_per_round" ~buckets in
  let last_round_steps = ref 0 in
  let on_step ~step:_ ~enabled ~selected =
    Metrics.observe h_enabled (float_of_int enabled);
    Metrics.observe h_selected (float_of_int selected)
  in
  let on_round ~round ~steps ~moves _cfg =
    Metrics.observe h_round (float_of_int (steps - !last_round_steps));
    last_round_steps := steps;
    let extra = layer.on_round ~round ~steps in
    Sink.write sink (Sink.round_record ~round ~steps ~moves ~extra ())
  in
  let summary (o : obs) (result : _ Engine.result) =
    List.iter
      (fun (rule, count) ->
        Metrics.add (Metrics.counter metrics ("moves." ^ rule)) count)
      result.Engine.moves_per_rule;
    Metrics.set (Metrics.gauge metrics "wall_s") o.wall_s;
    Metrics.set (Metrics.gauge metrics "steps_per_s")
      (Metrics.rate o.steps o.wall_s);
    Option.iter
      (fun s -> Metrics.set (Metrics.gauge metrics "segments") (float_of_int s))
      o.segments;
    let fields = obs_fields o in
    Sink.write sink
      (Sink.summary ~outcome:(Engine.outcome_string result.Engine.outcome)
         ~rounds:o.rounds ~steps:o.steps ~moves:o.moves ~wall_s:o.wall_s
         ~extra:
           (List.map (fun k -> (k, List.assoc k fields)) summary_keys
           @ [ ("metrics", Metrics.to_json metrics) ]
           @ layer.summary_extra ())
         ())
  in
  (on_step, on_round, summary)

let run_setup (type s) ?max_steps ?prof ?sink ~trace_steps ~bounds
    (s : s setup) ~graph ~daemon ~seed =
  let cfg_rng = Random.State.make [| seed; 17 |] in
  let run_rng = Random.State.make [| seed; 91 |] in
  let cfg = s.init cfg_rng in
  let layer = layer ?sink ~trace_steps ~bounds s graph cfg in
  let tele = Option.map (fun sink -> telemetry sink layer) sink in
  (* The stop condition is incremental: a tracker of the illegitimate
     processes.  The last observer marks the movers' closed neighborhoods;
     [stop] re-evaluates marks only until it finds a process that is still
     illegitimate, so a long-lived witness makes it O(1). *)
  let stop, stop_observer =
    match s.legit with
    | None -> (None, [])
    | Some legit ->
        let illegit =
          Algorithm.Tracker.create graph (fun v -> not (legit v)) cfg
        in
        ( Some (fun cfg -> not (Algorithm.Tracker.exists illegit cfg)),
          [ (fun ~step:_ ~moved _ -> Algorithm.Tracker.mark illegit ~moved) ] )
  in
  let result =
    Engine.run ?prof ~rng:run_rng
      ~max_steps:(Option.value max_steps ~default:s.max_steps)
      ?observer:
        (match layer.observers @ stop_observer with
        | [] -> None
        | l -> Some (Obs.combine l))
      ?on_step:(Option.map (fun (f, _, _) -> f) tele)
      ?on_round:(Option.map (fun (_, f, _) -> f) tele)
      ?stop ~algorithm:s.algorithm ~graph ~daemon cfg
  in
  let outcome_ok = result.Engine.outcome = s.expect in
  let o =
    layer.finish
      (observation ~outcome_ok ~result_ok:(outcome_ok && s.check result)
         ~rounds:result.Engine.rounds ~steps:result.Engine.steps
         ~moves:result.Engine.moves
         ~moves_per_process:result.Engine.moves_per_process
         ~moves_per_rule:result.Engine.moves_per_rule ~wall_s:result.Engine.wall_s)
  in
  Option.iter (fun (_, _, summary) -> summary o result) tele;
  o

let run ?max_steps ?prof ?sink ?(trace_steps = false) system ~graph ~daemon
    ~seed () =
  match system.setup graph with
  | Setup s ->
      run_setup ?max_steps ?prof ?sink ~trace_steps
        ~bounds:(graph_bounds system graph) s ~graph ~daemon ~seed

(* ------------------------------ flat runs ------------------------------- *)

type flat = {
  network : Graph.t option;
  prog : Flat.prog;
  n : int;
  m : int;
  flat_bounds : bounds;
}

let prepare_flat ?perturb system ~family ~n ~seed =
  match system.flat with
  | None -> invalid_arg (system.name ^ " has no flat-engine program")
  | Some entry ->
      let network =
        if String.equal family.Workload.family_name "ring" then None
        else Some (family.Workload.build ~seed ~n)
      in
      let csr =
        match network with None -> Csr.ring n | Some g -> Csr.of_graph g
      in
      let prog = Progs.build entry csr in
      Progs.init ?perturb prog ~seed;
      let n = Flat.n prog in
      let diameter =
        lazy
          (Option.fold ~none:(max 1 (n / 2))
             ~some:Ssreset_graph.Metrics.diameter network)
      in
      { network; prog; n; m = Csr.m csr;
        flat_bounds = system.bounds ~n ~diameter }

let run_flat ?prof ?monitor ?heartbeat ?(parts = 1) ~daemon ~seed f =
  let rounds_bound, moves_bound =
    match monitor with
    | None -> (None, None)
    | Some _ ->
        ( f.flat_bounds.rounds_bound,
          Option.map Lazy.force f.flat_bounds.moves_bound )
  in
  if parts > 1 then begin
    if daemon <> Daemon.Synchronous then
      invalid_arg "Runner.run_flat: parts > 1 needs the synchronous daemon";
    Flat.run_partitioned ?prof ?monitor ?rounds_bound ?moves_bound ?heartbeat
      ~parts f.prog
  end
  else
    Flat.run ~seed ?prof ?monitor ?rounds_bound ?moves_bound ?heartbeat
      ~daemon f.prog

let flat_obs (r : Flat.result) =
  observation ~outcome_ok:(r.Flat.outcome = Engine.Stabilized)
    ~result_ok:r.Flat.legitimate ~rounds:r.Flat.rounds ~steps:r.Flat.steps
    ~moves:r.Flat.moves ~moves_per_process:r.Flat.moves_per_process
    ~moves_per_rule:r.Flat.moves_per_rule ~wall_s:r.Flat.wall_s

(* ------------------------------ the table ------------------------------- *)

let system ?flat ?(bounds = fun ~n:_ ~diameter:_ -> no_bounds)
    ?(feasible = fun _ -> true) name doc setup =
  { name; doc; flat; bounds; feasible; setup }

let arbitrary graph gen rng = Fault.arbitrary rng gen graph
let final ok (r : _ Engine.result) = ok r.Engine.final

(* A silent bare system: run until terminal, no check. *)
let bare algorithm ~init =
  { algorithm; init; legit = None; expect = Engine.Terminal;
    check = (fun _ -> true); probe = None; max_steps = 20_000_000;
    reset = Bare }

(* An I∘SDR system from an arbitrary configuration: uniform status,
   distance in [0, 2n], arbitrary input state. *)
let composed (type i) (module C : Sdr.S with type inner = i) ~inner graph :
    i Sdr.state setup =
  { (bare C.algorithm
       ~init:(arbitrary graph (C.generator ~inner ~max_d:(2 * Graph.n graph))))
    with
    reset = Composed (module C) }

(* Run until [legit] holds at every process, and require [legitimate] — the
   same condition over the whole configuration — of the final one. *)
let stabilize ~legit legitimate s =
  { s with
    legit = Some legit;
    expect = Engine.Stabilized;
    check = final legitimate }

(* Theorems 6–7: U∘SDR stabilizes within 3n rounds and D·n² moves. *)
let unison =
  system "unison" ?flat:(Progs.find "unison-sdr")
    ~bounds:(fun ~n ~diameter ->
      { rounds_bound = Some (3 * n);
        moves_bound = Some (lazy (Lazy.force diameter * n * n)) })
    "U∘SDR from an arbitrary configuration (stop at first normal)"
    (fun graph ->
      let n = Graph.n graph in
      let module U = Ssreset_unison.Unison.Make (struct
        let k = (2 * n) + 2
      end) in
      let s = composed (module U.Composed) ~inner:U.clock_gen graph in
      Setup
        (stabilize ~legit:U.Composed.p_normal (U.Composed.is_normal graph) s))

let unison_bare =
  system "unison-bare"
    "bare U from γ_init for a step budget (safety, every clock advances)"
    (fun graph ->
      let n = Graph.n graph in
      let module U = Ssreset_unison.Unison.Make (struct
        let k = (2 * n) + 2
      end) in
      let module Checker = Ssreset_unison.Checker in
      let monitor = Checker.create_monitor ~k:U.k graph in
      (* U never terminates from γ_init (Lemma 18), so exhausting the step
         budget is the expected outcome here. *)
      Setup
        { (bare U.bare ~init:(fun _ -> U.gamma_init graph)) with
          probe = Some (Checker.observe_bare monitor);
          expect = Engine.Step_limit;
          check =
            (fun _ ->
              Checker.safety_violations monitor = 0
              && Checker.min_increments monitor > 0);
          max_steps = 60 * n })

let tail_unison =
  system "tail-unison" ?flat:(Progs.find "tail-unison")
    "tail-unison baseline from an arbitrary configuration"
    (fun graph ->
      let n = Graph.n graph in
      let module T = Ssreset_unison.Tail_unison.Make (struct
        let k = (2 * n) + 2
        let alpha = n
      end) in
      let s = bare T.algorithm ~init:(arbitrary graph T.clock_gen) in
      Setup
        { (stabilize ~legit:T.p_legitimate (T.is_legitimate graph) s) with
          max_steps = 50_000_000 })

let min_unison =
  system "min-unison" ?flat:(Progs.find "min-unison")
    "min-unison baseline (K = n²+1) from an arbitrary configuration"
    (fun graph ->
      let n = Graph.n graph in
      let module M = Ssreset_unison.Min_unison.Make (struct
        let k = (n * n) + 1
        let alpha = max 1 (n - 2)
      end) in
      let s = bare M.algorithm ~init:(arbitrary graph M.clock_gen) in
      Setup
        { (stabilize ~legit:M.p_legitimate (M.is_legitimate graph) s) with
          max_steps = 50_000_000 })

let agr_unison =
  system "agr-unison"
    "U∘AGR (mono-initiator reset baseline; needs a weakly fair daemon)"
    (fun graph ->
      let n = Graph.n graph in
      let module U = Ssreset_unison.Unison.Make (struct
        let k = (2 * n) + 2
      end) in
      let module A =
        Ssreset_agreset.Agreset.Make
          (U.Input)
          (struct
            let graph = graph
            let root = 0
          end)
      in
      let s =
        bare A.algorithm ~init:(arbitrary graph (A.generator ~inner:U.clock_gen))
      in
      Setup
        { (stabilize ~legit:A.p_normal (A.is_normal graph) s) with
          max_steps = 2_000_000 })

let alliance ?(stop_at_normal = false) (spec : Spec.t) =
  system "alliance" ~feasible:(Spec.feasible spec)
    ~bounds:(fun ~n ~diameter:_ ->
      { no_bounds with rounds_bound = Some ((8 * n) + 4) })
    (Printf.sprintf "FGA(%s)∘SDR from an arbitrary configuration"
       spec.Spec.spec_name)
    (fun graph ->
      let module F = Ssreset_alliance.Fga.Make (struct
        let graph = graph
        let spec = spec
        let ids = None
      end) in
      let s =
        { (composed (module F.Composed) ~inner:F.gen graph) with
          max_steps = 50_000_000 }
      in
      Setup
        (if stop_at_normal then
           stabilize ~legit:F.Composed.p_normal (F.Composed.is_normal graph) s
         else
           { s with
             check =
               final (fun cfg ->
                   Ssreset_alliance.Checker.is_one_minimal graph spec
                     (F.alliance_of_composed cfg)) }))

(* Lemma 25: a process of degree δ moves at most 8δΔ + 18δ + 24 times. *)
let lemma25_bound graph u =
  let deg = Graph.degree graph u in
  (8 * deg * Graph.max_degree graph) + (18 * deg) + 24

let alliance_bare (spec : Spec.t) =
  system "alliance-bare" ~feasible:(Spec.feasible spec)
    (Printf.sprintf "FGA(%s) from γ_init (non self-stabilizing run)"
       spec.Spec.spec_name)
    (fun graph ->
      let module F = Ssreset_alliance.Fga.Make (struct
        let graph = graph
        let spec = spec
        let ids = None
      end) in
      let check (r : _ Engine.result) =
        Array.for_all Fun.id
          (Array.mapi
             (fun u moves -> moves <= lemma25_bound graph u)
             r.Engine.moves_per_process)
        && Ssreset_alliance.Checker.is_one_minimal graph spec
             (F.alliance r.Engine.final)
      in
      Setup { (bare F.bare ~init:(fun _ -> F.gamma_init ())) with check })

let coloring =
  system "coloring" "coloring∘SDR from an arbitrary configuration"
    (fun graph ->
      let module C = Ssreset_coloring.Coloring.Make (struct
        let graph = graph
        let ids = None
      end) in
      Setup
        { (composed (module C.Composed) ~inner:C.gen graph) with
          check = final (fun cfg -> C.is_proper (C.coloring_of_composed cfg)) })

let mis =
  system "mis" "MIS∘SDR from an arbitrary configuration" (fun graph ->
      let module M = Ssreset_mis.Mis.Make (struct
        let graph = graph
        let ids = None
      end) in
      Setup
        { (composed (module M.Composed) ~inner:M.gen graph) with
          check =
            final (fun cfg -> M.is_mis (M.independent_set_of_composed cfg)) })

let matching =
  system "matching" "matching∘SDR from an arbitrary configuration"
    (fun graph ->
      let module M = Ssreset_matching.Matching.Make (struct
        let graph = graph
        let ids = None
      end) in
      Setup
        { (composed (module M.Composed) ~inner:M.gen graph) with
          check =
            final (fun cfg ->
                M.is_maximal_matching (M.matching_of_composed cfg)) })

let systems ~spec =
  [ unison; tail_unison; min_unison; agr_unison; alliance spec;
    alliance_bare spec; coloring; mis; matching ]

let unison_composed ?prof ?sink ~graph ~daemon ~seed () =
  run ?prof ?sink unison ~graph ~daemon ~seed ()

let fga_composed ?prof ?sink ~spec ~graph ~daemon ~seed () =
  run ?prof ?sink (alliance spec) ~graph ~daemon ~seed ()

(* The name → daemon table lives in {!Ssreset_sim.Daemon.registry}; every
   consumer (this lookup, the sweep pool, the CLI doc string) derives from
   it, so the lists cannot drift. *)
let daemon_by_name name =
  match Daemon.by_name name with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf "unknown daemon: %s (one of: %s)" name
           (String.concat ", " Daemon.names))

let experiment_daemons =
  List.map daemon_by_name
    [ "synchronous"; "central-random" ]
  @ [ Daemon.distributed_random 0.3; Daemon.distributed_random 0.8 ]
  @ List.map daemon_by_name [ "locally-central"; "round-robin"; "adversarial" ]
