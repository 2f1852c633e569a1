(* Daemon showcase: the same system under every scheduling adversary.

   The distributed unfair daemon is the weakest assumption of the model:
   every daemon below is one of its instances, so the paper's bounds must
   hold under each.  This example runs coloring ∘ SDR on a lollipop graph
   (clique + path: high degree and high diameter at once) under the whole
   daemon zoo and prints a comparison, including a short execution trace
   under the central daemon.

   Run with: dune exec examples/daemon_showcase.exe *)

module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Engine = Ssreset_sim.Engine
module Daemon = Ssreset_sim.Daemon
module Fault = Ssreset_sim.Fault
module Trace = Ssreset_sim.Trace

let () =
  let graph = Gen.lollipop 6 6 in
  let n = Graph.n graph in
  let module C = Ssreset_coloring.Coloring.Make (struct
    let graph = graph
    let ids = None
  end) in
  let gen = C.Composed.generator ~inner:C.gen ~max_d:n in

  Fmt.pr "coloring∘SDR on lollipop(6,6), arbitrary initial configuration@.@.";
  Fmt.pr "%-28s %10s %10s %10s %8s@." "daemon" "rounds" "steps" "moves" "proper";
  List.iter
    (fun daemon ->
      let cfg = Fault.arbitrary (Random.State.make [| 5 |]) gen graph in
      let result =
        Engine.run
          ~rng:(Random.State.make [| 6 |])
          ~algorithm:C.Composed.algorithm ~graph ~daemon cfg
      in
      Fmt.pr "%-28s %10d %10d %10d %8b@." (Daemon.name daemon)
        result.Engine.rounds result.Engine.steps result.Engine.moves
        (C.is_proper (C.coloring_of_composed result.Engine.final)))
    Daemon.all_standard;

  (* A full trace under the central daemon, small enough to read. *)
  Fmt.pr "@.trace under central-first (first 25 steps):@.";
  let cfg = Fault.arbitrary (Random.State.make [| 5 |]) gen graph in
  let trace, _ =
    Trace.record
      ~rng:(Random.State.make [| 6 |])
      ~algorithm:C.Composed.algorithm ~graph ~daemon:Daemon.central_first cfg
  in
  Fmt.pr "%a@."
    (Trace.pp ~pp_state:C.Composed.algorithm.pp ~max_entries:25 ())
    trace
