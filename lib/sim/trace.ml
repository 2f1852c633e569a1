type 'state entry = {
  step : int;
  moved : (int * string) list;
  config : 'state array;
}

type 'state t = {
  initial : 'state array;
  entries : 'state entry list;
}

let record ?rng ?max_steps ?stop ~algorithm ~graph ~daemon cfg0 =
  let initial = Array.copy cfg0 in
  let acc = ref [] in
  let observer ~step ~moved cfg =
    acc := { step; moved; config = Array.copy cfg } :: !acc
  in
  let result =
    Engine.run ?rng ?max_steps ?stop ~observer ~algorithm ~graph ~daemon cfg0
  in
  ({ initial; entries = List.rev !acc }, result)

let length t = List.length t.entries
let configs t = t.initial :: List.map (fun e -> e.config) t.entries

let steps_pairs t =
  let rec walk before = function
    | [] -> []
    | e :: rest -> (before, e.config, e.moved) :: walk e.config rest
  in
  walk t.initial t.entries

let pp ~pp_state ?(max_entries = 50) () ppf t =
  let pp_cfg ppf cfg =
    Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any "; ") pp_state) cfg
  in
  Fmt.pf ppf "step -1 (initial): %a" pp_cfg t.initial;
  List.iteri
    (fun i e ->
      if i < max_entries then
        Fmt.pf ppf "@.step %d: moved %a -> %a" e.step
          Fmt.(list ~sep:(any ", ") (pair ~sep:(any ":") int string))
          e.moved pp_cfg e.config
      else if i = max_entries then Fmt.pf ppf "@.... (%d more steps)" (length t - max_entries))
    t.entries

let moved_processes t =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e -> List.iter (fun (u, _) -> Hashtbl.replace seen u ()) e.moved)
    t.entries;
  Hashtbl.fold (fun u () acc -> u :: acc) seen [] |> List.sort compare

let rule_sequence t u =
  List.filter_map
    (fun e ->
      List.find_map
        (fun (v, name) -> if v = u then Some name else None)
        e.moved)
    t.entries
