module Algorithm = Ssreset_sim.Algorithm
module Graph = Ssreset_graph.Graph

type finding = {
  lint : string;
  rules : string list;
  witness : string;
  count : int;
}

let pp_finding ppf f =
  Fmt.pf ppf "[%s] %a — %d view(s), e.g. %s" f.lint
    Fmt.(list ~sep:(any ", ") string)
    f.rules f.count f.witness

(* Permutations of [0 .. d-1].  Full factorial up to d = 4 (24 orders, the
   degrees occurring on graphs with n <= 5); beyond that, rotations plus the
   reversal — still order-sensitive enough to catch positional folds. *)
let index_orders d =
  if d <= 1 then []
  else if d <= 4 then begin
    let rec perms = function
      | [] -> [ [] ]
      | l ->
          List.concat_map
            (fun x ->
              List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
            l
    in
    let identity = List.init d Fun.id in
    List.filter (fun p -> p <> identity) (perms identity)
    |> List.map Array.of_list
  end
  else begin
    let rotate k = Array.init d (fun i -> (i + k) mod d) in
    let reversal = Array.init d (fun i -> d - 1 - i) in
    reversal :: List.init (d - 1) (fun k -> rotate (k + 1))
  end

let run_instance (type s) ~max_views_per_process
    (module F : Finite.FINITE with type state = s) =
  let n = Graph.n F.graph in
  let pp_view ppf (v : s Algorithm.view) =
    Fmt.pf ppf "@[<h>self=%a nbrs=[%a]@]" F.algorithm.Algorithm.pp
      v.Algorithm.state
      Fmt.(array ~sep:(any " ") F.algorithm.Algorithm.pp)
      v.Algorithm.nbrs
  in
  (* One finding per (lint, rule set); the first witness is kept and the
     occurrence count accumulated. *)
  let table : (string * string list, string * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let report lint rules view =
    let rules = List.sort_uniq compare rules in
    match Hashtbl.find_opt table (lint, rules) with
    | Some (_, count) -> incr count
    | None ->
        Hashtbl.add table (lint, rules)
          (Fmt.str "%a" pp_view view, ref 1)
  in
  let check_view u view =
    ignore u;
    (* Stability: same view, same verdict — twice, for guards and for the
       first-match rule selection. *)
    List.iter
      (fun (r : s Algorithm.rule) ->
        if r.Algorithm.guard view <> r.Algorithm.guard view then
          report "stability" [ r.Algorithm.rule_name ] view)
      F.algorithm.Algorithm.rules;
    (* Overlap: >= 2 guards true on one view. *)
    (match Algorithm.exclusive_rules F.algorithm view with
    | [] | [ _ ] -> ()
    | names -> report "overlap" names view);
    (* Silent move: an enabled rule whose action changes nothing. *)
    List.iter
      (fun (r : s Algorithm.rule) ->
        if
          r.Algorithm.guard view
          && F.algorithm.Algorithm.equal (r.Algorithm.action view)
               view.Algorithm.state
        then report "silent-move" [ r.Algorithm.rule_name ] view)
      F.algorithm.Algorithm.rules;
    (* Permutation invariance: re-evaluate under reordered neighbors. *)
    let d = Array.length view.Algorithm.nbrs in
    List.iter
      (fun order ->
        let permuted =
          { view with
            Algorithm.nbrs =
              Array.init d (fun i -> view.Algorithm.nbrs.(order.(i))) }
        in
        List.iter
          (fun (r : s Algorithm.rule) ->
            let g1 = r.Algorithm.guard view in
            if g1 <> r.Algorithm.guard permuted then
              report "permutation" [ r.Algorithm.rule_name ] view
            else if
              g1
              && not
                   (F.algorithm.Algorithm.equal (r.Algorithm.action view)
                      (r.Algorithm.action permuted))
            then report "permutation" [ r.Algorithm.rule_name ] view)
          F.algorithm.Algorithm.rules)
      (index_orders d)
  in
  for u = 0 to n - 1 do
    let nbrs = Graph.neighbors F.graph u in
    let dims =
      Array.init
        (1 + Array.length nbrs)
        (fun i ->
          Array.of_list (F.domain (if i = 0 then u else nbrs.(i - 1))))
    in
    Algorithm.sample_views ~max:max_views_per_process dims (fun _ view ->
        check_view u view)
  done;
  Hashtbl.fold
    (fun (lint, rules) (witness, count) acc ->
      { lint; rules; witness; count = !count } :: acc)
    table []
  |> List.sort (fun a b -> compare (a.lint, a.rules) (b.lint, b.rules))

let run ?(max_views_per_process = 20_000) (inst : Finite.t) =
  let (module F) = inst in
  run_instance ~max_views_per_process (module F)

let views_checked ?(max_views_per_process = 20_000) (inst : Finite.t) =
  let (module F) = inst in
  let n = Graph.n F.graph in
  let total = ref 0 in
  for u = 0 to n - 1 do
    let nbrs = Graph.neighbors F.graph u in
    let dims =
      Array.init
        (1 + Array.length nbrs)
        (fun i -> List.length (F.domain (if i = 0 then u else nbrs.(i - 1))))
    in
    let space = Array.fold_left ( * ) 1 dims in
    total := !total + min space max_views_per_process
  done;
  !total
