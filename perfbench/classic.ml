(* classic-sweep: U∘SDR and FGA∘SDR through the experiment runners, from
   arbitrary configurations, over sparse families (ring, sparse-random,
   grid) and two randomized daemons.  One pass runs every cell once; a cell
   is one operation.  The traced run adds the layered view of the same
   cells: bare [Engine.run] (same algorithm, initial configuration and stop
   predicate as the runner, no observers), the runner, the runner with a
   sink, and the CLI on one cell — and checks that their step counts are
   equal. *)

open Harness
module Graph = Ssreset_graph.Graph
module Engine = Ssreset_sim.Engine
module Fault = Ssreset_sim.Fault
module Runner = Ssreset_expt.Runner
module Workload = Ssreset_expt.Workload
module Spec = Ssreset_alliance.Spec
module Sink = Ssreset_obs.Sink

type system = Unison | Alliance

type cell = {
  id : string;
  system : system;
  family : Workload.family;
  size : int;  (** requested n; grids round to a full rectangle *)
  daemon : string;
  cseed : int;  (** graph seed and run seed, as [ssreset run --seed] *)
}

let spec = Spec.dominating_set

(* The cell grid, two instances (graph and run seeds) of each combination:
   96 cells, enough for a p90 over the cells.  n = 384 and 512 only under
   distributed-random: a central-random cell at that size costs about a
   second, which would leave too few passes per run. *)
let cells seed =
  let rng = Random.State.make [| 0xC1A5; seed |] in
  let grid =
    List.concat_map
      (fun system ->
        List.concat_map
          (fun family ->
            List.concat_map
              (fun (size, daemons) ->
                List.concat_map (fun d -> [ (system, family, size, d); (system, family, size, d) ])
                  daemons)
              [ (64, [ "central-random"; "distributed-random" ]);
                (128, [ "central-random"; "distributed-random" ]);
                (256, [ "central-random"; "distributed-random" ]);
                (384, [ "distributed-random" ]);
                (512, [ "distributed-random" ]) ])
          [ Workload.ring; Workload.sparse_random; Workload.grid ])
      [ Unison; Alliance ]
  in
  List.mapi
    (fun i (system, family, size, daemon) ->
      let cseed = Random.State.bits rng in
      { id =
          Printf.sprintf "%02d.%s.%s.%d.%s" i
            (match system with Unison -> "U" | Alliance -> "FGA")
            family.Workload.family_name size daemon;
        system;
        family;
        size;
        daemon;
        cseed })
    grid

let graph_of c = c.family.Workload.build ~seed:c.cseed ~n:c.size

(* The paper's round bounds: Theorem 7 (U∘SDR) and Theorem 8 (FGA∘SDR). *)
let round_bound c g =
  let n = Graph.n g in
  match c.system with Unison -> 3 * n | Alliance -> (8 * n) + 4

let runner ?prof ?sink c g =
  let daemon = Runner.daemon_by_name c.daemon in
  match c.system with
  | Unison -> Runner.unison_composed ?prof ?sink ~graph:g ~daemon ~seed:c.cseed ()
  | Alliance ->
      Runner.fga_composed ?prof ?sink ~spec ~graph:g ~daemon ~seed:c.cseed ()

(* [Engine.run] with exactly the runner's algorithm, initial configuration
   (same RNG streams) and stop predicate, and no observers. *)
let bare ?prof c g =
  let n = Graph.n g in
  let cfg_rng = Random.State.make [| c.cseed; 17 |] in
  let run_rng = Random.State.make [| c.cseed; 91 |] in
  let daemon = Runner.daemon_by_name c.daemon in
  let counts (r : _ Engine.result) = (r.Engine.steps, r.Engine.moves, r.Engine.rounds) in
  match c.system with
  | Unison ->
      let module U = Ssreset_unison.Unison.Make (struct
        let k = (2 * n) + 2
      end) in
      let cfg =
        Fault.arbitrary cfg_rng (U.Composed.generator ~inner:U.clock_gen ~max_d:(2 * n)) g
      in
      counts
        (Engine.run ?prof ~rng:run_rng ~max_steps:20_000_000
           ~stop:(U.Composed.is_normal g) ~algorithm:U.Composed.algorithm ~graph:g
           ~daemon cfg)
  | Alliance ->
      let module F = Ssreset_alliance.Fga.Make (struct
        let graph = g
        let spec = spec
        let ids = None
      end) in
      let cfg = Fault.arbitrary cfg_rng (F.Composed.generator ~inner:F.gen ~max_d:(2 * n)) g in
      counts
        (Engine.run ?prof ~rng:run_rng ~max_steps:50_000_000
           ~stop:(fun _ -> false)
           ~algorithm:F.Composed.algorithm ~graph:g ~daemon cfg)

let counts_string (steps, moves, rounds) = Printf.sprintf "%d %d %d" steps moves rounds
let obs_counts (o : Runner.obs) = (o.Runner.steps, o.Runner.moves, o.Runner.rounds)

(* The oracle of one runner operation: the runner's own output checks
   (normal configuration / 1-minimal alliance), the paper's round bound,
   and the exact counts. *)
let check_obs ctx c g (o : Runner.obs) =
  let bound = round_bound c g in
  [ (if o.Runner.outcome_ok then None else problem "%s: outcome not ok" c.id);
    (if o.Runner.result_ok then None else problem "%s: result check failed" c.id);
    (if o.Runner.rounds <= bound then None
     else problem "%s: %d rounds above the bound %d" c.id o.Runner.rounds bound);
    count ctx c.id (counts_string (obs_counts o)) ]

let sys_name c = match c.system with Unison -> "unison" | Alliance -> "alliance"

(* Plain pass: every cell once through the runner, the timed operation. *)
let plain_pass ctx graphs () =
  List.iter
    (fun (c, g) ->
      op ~unit:c.id ctx ~name:("runner." ^ sys_name c) (fun () -> runner c g) (check_obs ctx c g)
      |> Option.iter (fun ((o : Runner.obs), _) -> add_moves ctx o.Runner.moves))
    graphs

let same_counts c layer counts o =
  let runner = obs_counts o in
  if counts = runner then None
  else
    problem "%s: %s gave steps/moves/rounds %s, the runner %s" c.id layer
      (counts_string counts) (counts_string runner)

(* Traced pass: the layered view.  Only the runner call is timed (it is the
   one the untraced run times); the bare engine and the sink run are
   checked operations whose spans give engine.bare_s and obs.sink_s. *)
let traced_pass ctx graphs ~p_engine ~p_runner ~p_sink () =
  let sink_path = Filename.concat ctx.out_dir "classic-sink.jsonl" in
  List.iter
    (fun (c, g) ->
      match
        op ~unit:c.id ctx ~name:("runner." ^ sys_name c)
          (fun () -> runner ~prof:p_runner c g)
          (check_obs ctx c g)
      with
      | None -> ()
      | Some (o, _) ->
          add_moves ctx o.Runner.moves;
          let layer name f counts_of =
            ignore (op ctx ~name f (fun r -> [ same_counts c name (counts_of r) o ]))
          in
          layer "engine.run" (fun () -> bare ~prof:p_engine c g) Fun.id;
          layer ("runner+sink." ^ sys_name c)
            (fun () ->
              let sink = Sink.create sink_path in
              Fun.protect ~finally:(fun () -> Sink.close sink)
                (fun () -> runner ~prof:p_sink ~sink c g))
            obs_counts)
    graphs

(* The CLI on one cell: the same steps, moves and rounds as the in-process
   runner. *)
let cli_cell ctx (c, g) =
  ignore
    (op ctx ~name:"cli.run"
       (fun () ->
         let o, inproc = time (fun () -> runner c g) in
         let code, out, wall =
           spawn_cli ctx
             [ "run"; sys_name c; "-g"; c.family.Workload.family_name; "-n";
               string_of_int c.size; "-d"; c.daemon; "--seed"; string_of_int c.cseed;
               "--json" ]
         in
         set ctx "cli.wall_s" wall;
         set ctx "cli.inproc_s" inproc;
         (o, code, out))
       (fun (o, code, out) ->
         let field j k = Option.bind (Json.member k j) Json.to_int_opt in
         let cli =
           match Json.of_string out with
           | Ok j -> (
               match (field j "steps", field j "moves", field j "rounds") with
               | Some s, Some m, Some r -> Some (s, m, r)
               | _ -> None)
           | Error _ -> None
         in
         [ (if code = 0 then None else problem "%s: CLI exited %d" c.id code);
           count ctx c.id (counts_string (obs_counts o));
           (match cli with
           | Some counts -> same_counts c "the CLI" counts o
           | None -> problem "%s: no steps/moves/rounds in the CLI output" c.id) ]))

let run ctx =
  let cells = cells ctx.seed in
  let graphs =
    setup ctx ~reps:25 (fun () ->
        List.map
          (fun c ->
            let g = graph_of c in
            if c.system = Alliance && not (Spec.feasible spec g) then
              failwith (c.id ^ ": dominating-set spec infeasible");
            (c, g))
          cells)
  in
  let p_engine = new_prof ctx "engine" in
  let p_runner = new_prof ctx "runner" in
  let p_sink = new_prof ctx "runner+sink" in
  (* A traced pass runs each cell three times, so it gets two thirds of
     the budget. *)
  drive ctx ~pass_s:4.5 ~plain_share:(1. /. 3.) ~pass:(plain_pass ctx graphs)
    ~traced_pass:(traced_pass ctx graphs ~p_engine ~p_runner ~p_sink)
    ~traced_metrics:(fun ~per_pass ->
      set ctx "graph.gen_s" ctx.setup_s;
      set ctx "engine.bare_s" (per_pass (Spans.total "engine.run"));
      List.iter
        (fun ph ->
          set ctx ("engine." ^ ph ^ "_s") (per_pass (timer_s p_engine ("phase." ^ ph))))
        [ "scan"; "select"; "refresh"; "stop" ];
      let runner_s = Spans.total "runner.unison" +. Spans.total "runner.alliance" in
      let sink_s = Spans.total "runner+sink.unison" +. Spans.total "runner+sink.alliance" in
      set ctx "runner.run_s" (per_pass runner_s);
      let callbacks = timer_s p_runner "phase.callbacks" in
      set ctx "runner.callbacks_s" (per_pass callbacks);
      set ctx "runner.callbacks_share"
        (callbacks
        /. Ssreset_obs.Metrics.gauge_value
             (Ssreset_obs.Metrics.gauge (Prof.metrics p_runner) "engine.wall_s"));
      set ctx "obs.sink_s" (per_pass (sink_s -. runner_s));
      let steps, moves =
        List.fold_left
          (fun (s, m) (c, _) ->
            match Hashtbl.find_opt ctx.counts c.id with
            | Some v -> Scanf.sscanf v "%d %d %d" (fun st mv _ -> (s + st, m + mv))
            | None -> (s, m))
          (0, 0) graphs
      in
      set ctx "engine.steps" (float_of_int steps);
      set ctx "engine.moves" (float_of_int moves);
      cli_cell ctx
        (List.find
           (fun (c, _) ->
             c.system = Unison && c.size = 128 && c.daemon = "central-random"
             && c.family.Workload.family_name = "sparse-random")
           graphs))
