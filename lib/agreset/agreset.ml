module Algorithm = Ssreset_sim.Algorithm
module Graph = Ssreset_graph.Graph
module Metrics = Ssreset_graph.Metrics
module Sdr = Ssreset_core.Sdr

type wave = N | B | F

type 'inner state = {
  id : int;
  dist : int;
  parent : int option;
  wst : wave;
  req : bool;
  inner : 'inner;
}

module Make
    (I : Sdr.INPUT) (P : sig
      val graph : Graph.t
      val root : int
    end) =
struct
  type nonrec state = I.state state

  let graph = P.graph
  let n = Graph.n graph
  let root_id = P.root

  let () =
    if P.root < 0 || P.root >= n then invalid_arg "Agreset.Make: bad root"

  (* ----------------------------- tree layer ---------------------------- *)

  (* Best (dist, parent) from the current neighborhood: 1 + the minimum
     neighbor distance (capped at n, in which case the parent is dropped),
     ties broken towards the smallest parent id. *)
  let best_tree (v : state Algorithm.view) =
    let self = v.Algorithm.state in
    if self.id = root_id then (0, None)
    else begin
      let min_dist =
        Array.fold_left (fun acc s -> min acc s.dist) (n - 1) v.Algorithm.nbrs
      in
      let dist = min (min_dist + 1) n in
      let parent =
        if dist >= n then None
        else
          Array.fold_left
            (fun acc s ->
              if s.dist = dist - 1 then
                match acc with
                | Some b when b <= s.id -> acc
                | _ -> Some s.id
              else acc)
            None v.Algorithm.nbrs
      in
      (dist, parent)
    end

  let tree_ok (v : state Algorithm.view) =
    let self = v.Algorithm.state in
    best_tree v = (self.dist, self.parent)

  let parent_state (v : state Algorithm.view) =
    match v.Algorithm.state.parent with
    | None -> None
    | Some pid -> Array.find_opt (fun s -> s.id = pid) v.Algorithm.nbrs

  let children (v : state Algorithm.view) =
    let self = v.Algorithm.state in
    Array.to_list
      (Array.of_seq
         (Seq.filter
            (fun s -> s.parent = Some self.id)
            (Array.to_seq v.Algorithm.nbrs)))

  let inner_view (v : state Algorithm.view) : I.state Algorithm.view =
    { Algorithm.state = v.Algorithm.state.inner;
      nbrs = Array.map (fun s -> s.inner) v.Algorithm.nbrs }

  let app_ok v = I.p_icorrect (inner_view v)
  let is_root (v : state Algorithm.view) = v.Algorithm.state.id = root_id

  (* ------------------------------- rules ------------------------------- *)

  let rule_tree =
    { Algorithm.rule_name = "AGR-tree";
      guard = (fun v -> not (tree_ok v));
      action =
        (fun v ->
          let dist, parent = best_tree v in
          { v.Algorithm.state with dist; parent }) }

  (* Garbled wave states (left by faults or by tree re-parenting) collapse
     against the parent: a broadcast without a broadcasting parent aborts,
     a feedback without a parent pops. *)
  let rule_abort =
    { Algorithm.rule_name = "AGR-abort";
      guard =
        (fun v ->
          tree_ok v
          && (not (is_root v))
          && v.Algorithm.state.wst = B
          &&
          match parent_state v with
          | None -> true
          | Some p -> p.wst = N);
      action = (fun v -> { v.Algorithm.state with wst = N }) }

  let rule_root_f =
    { Algorithm.rule_name = "AGR-root-F";
      guard = (fun v -> tree_ok v && is_root v && v.Algorithm.state.wst = F);
      action = (fun v -> { v.Algorithm.state with wst = N }) }

  let rule_pop =
    { Algorithm.rule_name = "AGR-pop";
      guard =
        (fun v ->
          tree_ok v
          && (not (is_root v))
          && v.Algorithm.state.wst = F
          &&
          match parent_state v with
          | None -> true
          | Some p -> p.wst = N);
      action = (fun v -> { v.Algorithm.state with wst = N }) }

  (* Feedback also clears the request bit: the subtree has just been reset,
     so every request it carried is served.  Clearing anywhere else races
     with the next broadcast (requests clear bottom-up while quiet windows
     open top-down) and livelocks the root into restarting forever. *)
  let rule_feedback =
    { Algorithm.rule_name = "AGR-feedback";
      guard =
        (fun v ->
          tree_ok v
          && v.Algorithm.state.wst = B
          && List.for_all (fun c -> c.wst = F) (children v)
          &&
          if is_root v then
            (* The root must wait for an actual subtree: with zero children
               (a still-broken tree) its wave would complete trivially and
               restart forever — an unfair daemon could then starve the tree
               repair (livelock observed under the central-first daemon). *)
            children v <> [] || n = 1
          else match parent_state v with Some p -> p.wst = B | None -> false);
      action =
        (fun v ->
          { v.Algorithm.state with
            wst = (if is_root v then N else F);
            req = false }) }

  (* The root may only open a wave once its children are quiet again ([N]);
     a child still in a stale [F] would count as instantly acknowledged and
     the root would spin start/feedback forever while an unfair daemon
     starves everyone else. *)
  let rule_start =
    { Algorithm.rule_name = "AGR-start";
      guard =
        (fun v ->
          tree_ok v && is_root v
          && v.Algorithm.state.wst = N
          && List.for_all (fun c -> c.wst = N) (children v)
          && (v.Algorithm.state.req || not (app_ok v)));
      action =
        (fun v ->
          { v.Algorithm.state with
            wst = B;
            inner = I.reset v.Algorithm.state.inner }) }

  let rule_join =
    { Algorithm.rule_name = "AGR-join";
      guard =
        (fun v ->
          tree_ok v
          && (not (is_root v))
          && v.Algorithm.state.wst = N
          && (match parent_state v with Some p -> p.wst = B | None -> false));
      action =
        (fun v ->
          { v.Algorithm.state with
            wst = B;
            inner = I.reset v.Algorithm.state.inner }) }

  let rule_req_raise =
    { Algorithm.rule_name = "AGR-req";
      guard =
        (fun v ->
          tree_ok v
          && (not v.Algorithm.state.req)
          && ((not (app_ok v)) || List.exists (fun c -> c.req) (children v)));
      action = (fun v -> { v.Algorithm.state with req = true }) }

  (* The input algorithm runs only in calm neighborhoods, mirroring SDR's
     P_Clean gate. *)
  let calm (v : state Algorithm.view) =
    let quiet (s : state) = s.wst = N && not s.req in
    quiet v.Algorithm.state && Array.for_all quiet v.Algorithm.nbrs

  let lift_rule (r : I.state Algorithm.rule) : state Algorithm.rule =
    { Algorithm.rule_name = r.Algorithm.rule_name;
      guard = (fun v -> tree_ok v && calm v && r.Algorithm.guard (inner_view v));
      action =
        (fun v ->
          { v.Algorithm.state with
            inner = r.Algorithm.action (inner_view v) }) }

  let equal_state a b =
    a.id = b.id && a.dist = b.dist && a.parent = b.parent && a.wst = b.wst
    && a.req = b.req && I.equal a.inner b.inner

  let pp_state ppf s =
    Fmt.pf ppf "{%d:d%d%s%s/%a}" s.id s.dist
      (match s.wst with N -> "" | B -> ":B" | F -> ":F")
      (if s.req then "!" else "")
      I.pp s.inner

  let algorithm : state Algorithm.t =
    { Algorithm.name = I.name ^ "∘AGR";
      rules =
        [ rule_tree; rule_abort; rule_root_f; rule_pop; rule_feedback;
          rule_start; rule_join; rule_req_raise ]
        @ List.map lift_rule I.rules;
      equal = equal_state;
      pp = pp_state }

  (* --------------------------- configurations -------------------------- *)

  let bfs = Metrics.bfs_distances graph P.root

  let correct_tree u =
    if u = P.root then (0, None)
    else begin
      let d = bfs.(u) in
      let parent =
        Graph.fold_neighbors graph u ~init:None ~f:(fun acc w ->
            if bfs.(w) = d - 1 then
              match acc with Some b when b <= w -> acc | _ -> Some w
            else acc)
      in
      (d, parent)
    end

  let lift inner_cfg =
    Array.mapi
      (fun u inner ->
        let dist, parent = correct_tree u in
        { id = u; dist; parent; wst = N; req = false; inner })
      inner_cfg

  let inner_config cfg = Array.map (fun s -> s.inner) cfg

  let generator ~inner rng u =
    let parent =
      let nbrs = Graph.neighbors graph u in
      match Random.State.int rng (Array.length nbrs + 1) with
      | 0 -> None
      | i -> Some nbrs.(i - 1)
    in
    { id = u;
      dist = Random.State.int rng (n + 1);
      parent;
      wst = (match Random.State.int rng 3 with 0 -> N | 1 -> B | _ -> F);
      req = Random.State.bool rng;
      inner = inner rng u }

  let p_normal v =
    tree_ok v
    && v.Algorithm.state.wst = N
    && (not v.Algorithm.state.req)
    && app_ok v

  let is_normal g cfg = Algorithm.for_all_views g cfg ~f:(fun _ v -> p_normal v)
end
