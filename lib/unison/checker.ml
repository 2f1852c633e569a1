module Algorithm = Ssreset_sim.Algorithm
module Graph = Ssreset_graph.Graph

let p_ok ~k a b = b = a || b = (a + 1) mod k || b = (a + k - 1) mod k

let safety_ok ~k g cfg =
  List.for_all (fun (u, v) -> p_ok ~k cfg.(u) cfg.(v)) (Graph.edges g)

(* [P_Ok] is symmetric, so some edge violates it iff some process is out of
   step with one of its neighbors. *)
let locally_unsafe ~k (v : int Algorithm.view) =
  let a = v.Algorithm.state in
  Array.exists (fun b -> not (p_ok ~k a b)) v.Algorithm.nbrs

type monitor = {
  k : int;
  graph : Graph.t;
  increments : int array;
  mutable violations : int;
  mutable unsafe : int Algorithm.Tracker.t option;
      (* the locally unsafe processes; built on the first step observed *)
}

let create_monitor ~k g =
  { k;
    graph = g;
    increments = Array.make (Graph.n g) 0;
    violations = 0;
    unsafe = None }

let count_increments m moved =
  List.iter
    (fun (u, name) ->
      if String.equal name Unison.rule_inc then
        m.increments.(u) <- m.increments.(u) + 1)
    moved

let observe_bare m ~step:_ ~moved cfg =
  count_increments m moved;
  let unsafe =
    match m.unsafe with
    | Some t ->
        Algorithm.Tracker.update t ~moved cfg;
        t
    | None ->
        let t = Algorithm.Tracker.create m.graph (locally_unsafe ~k:m.k) cfg in
        m.unsafe <- Some t;
        t
  in
  if Algorithm.Tracker.count unsafe > 0 then m.violations <- m.violations + 1

let observe_composed m ~step:_ ~moved _cfg = count_increments m moved

let increments m = m.increments
let safety_violations m = m.violations
let min_increments m = Array.fold_left min max_int m.increments
