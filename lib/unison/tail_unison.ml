module Algorithm = Ssreset_sim.Algorithm
module Graph = Ssreset_graph.Graph

type clock = int

let rule_tick = "TU-tick"
let rule_climb = "TU-climb"
let rule_reset = "TU-reset"

module Make (P : sig
  val k : int
  val alpha : int
end) =
struct
  let k = P.k
  let alpha = P.alpha

  let () =
    if k < 4 then invalid_arg "Tail_unison.Make: need K >= 4";
    if alpha < 1 then invalid_arg "Tail_unison.Make: need alpha >= 1"

  let ring_ok a b = b = a || b = (a + 1) mod k || b = (a + k - 1) mod k

  (* Compatibility as seen by a ring process [a >= 0]:
     - ring neighbor: within one increment (mod K);
     - tail neighbor: tolerated only while [a <= 1], i.e. while the
       neighbor can still catch up without [a] having run ahead. *)
  let compatible a b =
    if a >= 0 && b >= 0 then ring_ok a b
    else if a >= 0 then a <= 1
    else if b >= 0 then b <= 1
    else true

  let tick =
    { Algorithm.rule_name = rule_tick;
      guard =
        (fun v ->
          let c = v.Algorithm.state in
          c >= 0
          && Array.for_all
               (fun b -> b = c || b = (c + 1) mod k)
               v.Algorithm.nbrs);
      action = (fun v -> (v.Algorithm.state + 1) mod k) }

  let climb =
    { Algorithm.rule_name = rule_climb;
      guard =
        (fun v ->
          let c = v.Algorithm.state in
          c < 0
          && Array.for_all (fun b -> b >= c) v.Algorithm.nbrs
          && (c < -1 || Array.for_all (fun b -> b <= 1) v.Algorithm.nbrs));
      action = (fun v -> v.Algorithm.state + 1) }

  let reset =
    { Algorithm.rule_name = rule_reset;
      guard =
        (fun v ->
          let c = v.Algorithm.state in
          c >= 0
          && Array.exists (fun b -> not (compatible c b)) v.Algorithm.nbrs);
      action = (fun _ -> -alpha) }

  let algorithm : clock Algorithm.t =
    { Algorithm.name = "tail-unison";
      rules = [ reset; climb; tick ];
      equal = (fun (a : clock) b -> a = b);
      pp = Fmt.int }

  let gamma_init g = Array.make (Graph.n g) 0
  let clock_gen rng _u = Random.State.int rng (k + alpha) - alpha

  (* Per process: on the ring and within one increment of every neighbor.
     [ring_ok] is symmetric, so this holding everywhere is exactly the edge
     form below. *)
  let p_legitimate (v : clock Algorithm.view) =
    let c = v.Algorithm.state in
    c >= 0 && Array.for_all (fun b -> ring_ok c b) v.Algorithm.nbrs

  let is_legitimate g cfg =
    Array.for_all (fun c -> c >= 0) cfg
    && List.for_all
         (fun (u, v) -> ring_ok cfg.(u) cfg.(v))
         (Graph.edges g)
end
