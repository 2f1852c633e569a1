(* flat-sync and flat-central: U∘SDR on the flat data-path engine, from the
   legitimate ground configuration with 5% of the nodes perturbed, on
   sparse random graphs (average degree 4).

   flat-sync builds four graphs with the CLI's [sparse-random] family
   (n = 40960: state plus adjacency exceed a 2 MiB L2) and runs
   each input under the synchronous daemon twice, through [Flat.run] and
   through [Flat.run_partitioned ~parts:2]; the two digests must be
   identical, and in the traced run also equal to the CLI's [--digest] on
   the same input.  (Rings were the first choice, but the stabilization
   time of a perturbed ring is a maximum over its unperturbed stretches:
   its work varies by ±20% from seed to seed, where a random graph's
   varies by 4%.)

   flat-central streams six graphs straight into CSR form
   ([Csr.random_regular_ish], n = 20000) and runs them under
   central-random: one mover per step against a large enabled set, so
   per-step selection and refresh dominate instead of bulk refresh.

   Several inputs per pass keep the seed-to-seed spread of the totals
   small. *)

open Harness
module Csr = Ssreset_graph.Csr
module Flat = Ssreset_flat.Flat
module Progs = Ssreset_flat.Progs
module Engine = Ssreset_sim.Engine
module Workload = Ssreset_expt.Workload

type input = {
  key : string;
  iseed : int;  (** perturbation seed, as [ssreset run --seed] *)
  perturb : int;  (** perturbed nodes, as [ssreset run --perturb] *)
  prog : Flat.prog;
}

let n_sync = 40_960
let sync_inputs = 4
let n_central = 20_000
let central_inputs = 6
let entry () = Option.get (Progs.find "unison-sdr")

(* Ground state plus [inp.perturb] perturbed nodes, drawn exactly as the
   CLI's [--perturb] does. *)
let init inp =
  Progs.init_ground inp.prog;
  Progs.perturb inp.prog ~rng:(Random.State.make [| 0xF1A7; inp.iseed |]) inp.perturb

(* Setup of one input, split into the layer timings: [make_graph] is
   [None] for a CSR streamed without a {!Ssreset_graph.Graph.t}. *)
let build ~key ~iseed ~perturb ?make_graph make_csr =
  let graph, gen_s =
    match make_graph with
    | Some f -> time (fun () -> Some (f ()))
    | None -> (None, 0.)
  in
  let csr, csr_s = time (fun () -> make_csr graph) in
  let prog, compile_s = time (fun () -> Progs.build (entry ()) csr) in
  let inp = { key; iseed; perturb; prog } in
  let (), init_s = time (fun () -> init inp) in
  (inp, [| gen_s; csr_s; compile_s; init_s |])

let setup_inputs ctx ~reps make =
  let parts = ref [] in
  let inputs =
    setup ctx ~reps (fun () ->
        let built = make () in
        parts := List.map snd built :: !parts;
        List.map fst built)
  in
  (* Per-layer set-up times: medians over the repetitions of each layer's
     total across the inputs. *)
  let layer f =
    median (List.map (fun l -> List.fold_left (fun acc x -> acc +. f x) 0. l) !parts)
  in
  List.iteri
    (fun i name -> if layer (fun a -> a.(i)) > 0. then set ctx name (layer (fun a -> a.(i))))
    [ "graph.gen_s"; "csr.build_s"; "flat.compile_s"; "flat.init_s" ];
  inputs

(* The oracle of one flat run: stabilized, legitimate final configuration,
   within the 3n round bound, and the exact digest. *)
let check ctx inp (r : Flat.result) =
  let n = Flat.n inp.prog in
  [ (if r.Flat.outcome = Engine.Stabilized then None
     else problem "%s: did not stabilize" inp.key);
    (if r.Flat.legitimate then None else problem "%s: final configuration illegitimate" inp.key);
    (if r.Flat.rounds <= 3 * n then None
     else problem "%s: %d rounds above the bound %d" inp.key r.Flat.rounds (3 * n));
    count ctx inp.key (Progs.digest inp.prog r) ]

(* One pass: every input once through every path, each run a timed unit
   after an untimed re-initialisation.  [counts] gets the pass's
   steps/moves/rounds summed over the inputs on the first path. *)
let flat_pass ctx inputs paths ~counts ~traced () =
  counts := (0, 0, 0);
  List.iter
    (fun inp ->
      List.iteri
        (fun i (name, run) ->
          Spans.with_span "flat.init" (fun () -> init inp);
          op ~unit:(inp.key ^ "/" ^ name) ctx ~name (fun () -> run ~traced inp) (check ctx inp)
          |> Option.iter (fun ((r : Flat.result), _) ->
                 add_moves ctx r.Flat.moves;
                 if i = 0 then begin
                   let s, m, k = !counts in
                   counts := (s + r.Flat.steps, m + r.Flat.moves, k + r.Flat.rounds)
                 end))
        paths)
    inputs

let set_counts ctx (steps, moves, rounds) =
  set ctx "flat.steps" (float_of_int steps);
  set ctx "flat.moves" (float_of_int moves);
  set ctx "flat.rounds" (float_of_int rounds)

(* Phase timers of the sequential engine, and guard evaluations per move
   (base: the moves of the same profiled runs). *)
let set_phases ctx p ~per_pass =
  List.iter
    (fun ph -> set ctx ("flat." ^ ph ^ "_s") (per_pass (timer_s p ("phase." ^ ph))))
    [ "scan"; "select"; "apply"; "refresh" ];
  set ctx "flat.evals_per_move"
    (float_of_int (counter p "sched.evals") /. float_of_int (Prof.moves p))

let derive seed tag = Random.State.bits (Random.State.make [| tag; seed |])

let sync ctx =
  let inputs =
    setup_inputs ctx ~reps:3 (fun () ->
        List.init sync_inputs (fun i ->
            let iseed = derive ctx.seed (0x5E7C + i) in
            build ~key:(Printf.sprintf "sparse%d.digest" i) ~iseed ~perturb:(n_sync / 20)
              ~make_graph:(fun () -> Workload.sparse_random.Workload.build ~seed:iseed ~n:n_sync)
              (fun g -> Csr.of_graph (Option.get g))))
  in
  let counts = ref (0, 0, 0) in
  let p_seq = new_prof ctx "flat.run" and p_part = new_prof ctx "flat.run_partitioned" in
  let prof ~traced p = if traced then Some p else None in
  let paths =
    [ ("flat.run", fun ~traced inp ->
          Flat.run ?prof:(prof ~traced p_seq) ~daemon:Flat.Synchronous inp.prog);
      ("flat.run_partitioned", fun ~traced inp ->
          Flat.run_partitioned ?prof:(prof ~traced p_part) ~parts:2 inp.prog) ]
  in
  drive ctx ~pass_s:5. ~plain_share:0.5
    ~pass:(flat_pass ctx inputs paths ~counts ~traced:false)
    ~traced_pass:(flat_pass ctx inputs paths ~counts ~traced:true)
    ~traced_metrics:(fun ~per_pass ->
      set_counts ctx !counts;
      set ctx "flat.run_s" (per_pass (Spans.total "flat.run"));
      set ctx "flat.partitioned_s" (per_pass (Spans.total "flat.run_partitioned"));
      set_phases ctx p_seq ~per_pass;
      set ctx "flat.barrier_s" (per_pass (timer_s p_part "phase.barrier"));
      set ctx "flat.frontier_replays"
        (per_pass (float_of_int (counter p_part "flat.frontier_replays")));
      (* Cross-path identity with the CLI on the first input. *)
      let inp = List.hd inputs in
      init inp;
      ignore
        (op ctx ~name:"cli.run"
           (fun () ->
             let r, inproc = time (fun () -> Flat.run ~daemon:Flat.Synchronous inp.prog) in
             let code, out, wall =
               spawn_cli ctx
                 [ "run"; "unison"; "--engine"; "flat"; "-g"; "sparse-random"; "-n";
                   string_of_int n_sync; "--perturb"; string_of_int inp.perturb; "-d";
                   "synchronous"; "--parts"; "1"; "--seed"; string_of_int inp.iseed;
                   "--digest" ]
             in
             set ctx "cli.wall_s" wall;
             set ctx "cli.inproc_s" inproc;
             (Progs.digest inp.prog r, code, out))
           (fun (digest, code, out) ->
             [ (if code = 0 then None else problem "CLI exited %d" code);
               count ctx inp.key digest;
               (if String.equal out digest then None
                else problem "CLI digest %S differs from the in-process %S" out digest) ])))

let central ctx =
  let inputs =
    setup_inputs ctx ~reps:5 (fun () ->
        List.init central_inputs (fun i ->
            let iseed = derive ctx.seed (0xCE47 + i) in
            build ~key:(Printf.sprintf "sparse%d.digest" i) ~iseed ~perturb:(n_central / 20)
              (fun _ ->
                Csr.random_regular_ish (Random.State.make [| 0x5BA5; iseed |]) n_central 4)))
  in
  let counts = ref (0, 0, 0) in
  let p = new_prof ctx "flat.run" in
  let paths =
    [ ("flat.run", fun ~traced inp ->
          Flat.run ?prof:(if traced then Some p else None) ~seed:inp.iseed
            ~daemon:Flat.Central_random inp.prog) ]
  in
  drive ctx ~pass_s:5. ~plain_share:0.5
    ~pass:(flat_pass ctx inputs paths ~counts ~traced:false)
    ~traced_pass:(flat_pass ctx inputs paths ~counts ~traced:true)
    ~traced_metrics:(fun ~per_pass ->
      set_counts ctx !counts;
      set ctx "flat.run_s" (per_pass (Spans.total "flat.run"));
      set_phases ctx p ~per_pass)
