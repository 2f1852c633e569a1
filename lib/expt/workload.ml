module Gen = Ssreset_graph.Gen
module Graph = Ssreset_graph.Graph

type family = {
  family_name : string;
  build : seed:int -> n:int -> Graph.t;
}

let deterministic name f = { family_name = name; build = (fun ~seed:_ ~n -> f n) }

let ring = deterministic "ring" Gen.ring
let path = deterministic "path" Gen.path
let star = deterministic "star" Gen.star
let complete = deterministic "complete" Gen.complete

let grid =
  deterministic "grid" (fun n ->
      let w = max 2 (int_of_float (sqrt (float_of_int n))) in
      let h = max 2 ((n + w - 1) / w) in
      Gen.grid w h)

let binary_tree = deterministic "binary-tree" Gen.binary_tree

let random_tree =
  { family_name = "random-tree";
    build = (fun ~seed ~n -> Gen.random_tree (Random.State.make [| seed |]) n) }

let erdos_renyi p =
  { family_name = Printf.sprintf "er(p=%.2f)" p;
    build =
      (fun ~seed ~n -> Gen.erdos_renyi (Random.State.make [| seed |]) n p) }

let sparse_random =
  { family_name = "sparse-random";
    build =
      (fun ~seed ~n ->
        let m = min (2 * n) (n * (n - 1) / 2) in
        Gen.random_connected (Random.State.make [| seed |]) n m) }

let lollipop =
  deterministic "lollipop" (fun n ->
      let k = max 3 (n / 2) in
      Gen.lollipop k (max 1 (n - k)))

let standard =
  [ ring; path; star; complete; grid; binary_tree; sparse_random; lollipop ]

let named =
  [ ("ring", ring); ("path", path); ("star", star); ("complete", complete);
    ("grid", grid); ("binary-tree", binary_tree); ("random-tree", random_tree);
    ("sparse-random", sparse_random); ("lollipop", lollipop);
    ("er", erdos_renyi 0.2) ]

let names = List.map fst named
let by_name name = List.assoc_opt name named

let small_connected_graphs ~max_n =
  if max_n > 6 then invalid_arg "small_connected_graphs: max_n too large";
  let graphs = ref [] in
  for n = 2 to max_n do
    let pairs = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        pairs := (u, v) :: !pairs
      done
    done;
    let pairs = Array.of_list (List.rev !pairs) in
    let total = Array.length pairs in
    for mask = 0 to (1 lsl total) - 1 do
      let edges = ref [] in
      Array.iteri
        (fun i e -> if mask land (1 lsl i) <> 0 then edges := e :: !edges)
        pairs;
      if List.length !edges >= n - 1 then begin
        let g = Graph.make ~n ~edges:!edges in
        if Graph.is_connected g then graphs := g :: !graphs
      end
    done
  done;
  List.rev !graphs
