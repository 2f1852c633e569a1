module Graph = Ssreset_graph.Graph

let schema = "ssreset-trace-v1"

type mover = { p : int; rule : string; wave : Span.event option }
type step = { index : int; movers : mover list }
type round = { round : int; steps : int; moves : int }

type anomaly = {
  monitor : string;
  step : int;
  process : int option;
  value : int;
  bound : int;
}

type summary = {
  outcome : string;
  rounds : int;
  steps : int;
  moves : int;
  wall_s : float;
  moves_per_rule : (string * int) list;
  anomaly_count : int option;
}

type t = {
  system : string;
  family : string;
  n : int;
  seed : int;
  daemon : string;
  graph : Graph.t;
  init_active : (int * string * int) list;
  steps : step list;
  rounds : round list;
  anomalies : anomaly list;
  summary : summary;
}

let badf = Json.invalidf
let int_field = Json.int_field
let string_field = Json.string_field
let float_field = Json.float_field
let list_field = Json.list_field
let int_assoc = Json.int_assoc

let proc ~ctx ~n name json =
  let p = int_field ~ctx name json in
  if p < 0 || p >= n then badf "%s: process %d out of range [0,%d)" ctx p n;
  p

let parse_manifest ~ctx json =
  (match Option.bind (Json.member "trace_schema" json) Json.to_string_opt with
  | Some s when s = schema -> ()
  | Some s -> badf "%s: trace_schema %S, expected %S" ctx s schema
  | None -> badf "%s: missing trace_schema (not an %s trace?)" ctx schema);
  let n = int_field ~ctx "n" json in
  if n <= 0 then badf "%s: n must be positive" ctx;
  let m = int_field ~ctx "m" json in
  let edges =
    List.map
      (function
        | Json.List [ a; b ] -> (
            match (Json.to_int_opt a, Json.to_int_opt b) with
            | Some u, Some v -> (u, v)
            | _ -> badf "%s: edge endpoints must be ints" ctx)
        | _ -> badf "%s: each edge must be a [u,v] pair" ctx)
      (list_field ~ctx "edges" json)
  in
  if List.length edges <> m then
    badf "%s: %d edges but m = %d" ctx (List.length edges) m;
  (* Every generator returns a connected graph, and the model assumes
     connected networks: this also bounds the graph built below by the
     file's own size. *)
  if n > m + 1 then
    badf "%s: n = %d exceeds m + 1 = %d (the network must be connected)" ctx
      n (m + 1);
  (* The analyses all need the graph, so it is built once, here: an edge
     list that is not a simple graph (self-loop, duplicate, endpoint out of
     range) is a malformed manifest. *)
  let graph =
    try Graph.make ~n ~edges
    with Graph.Invalid_graph msg -> badf "%s: manifest edges: %s" ctx msg
  in
  ( string_field ~ctx "system" json,
    string_field ~ctx "family" json,
    n,
    int_field ~ctx "seed" json,
    string_field ~ctx "daemon" json,
    graph )

let parse_init ~ctx ~n json =
  List.map
    (fun entry ->
      let p = proc ~ctx ~n "p" entry in
      let st = string_field ~ctx "st" entry in
      if st <> "RB" && st <> "RF" then
        badf "%s: initial status %S is neither RB nor RF" ctx st;
      let d = int_field ~ctx "d" entry in
      if d < 0 then badf "%s: negative d" ctx;
      (p, st, d))
    (list_field ~ctx "active" json)

let parse_wave ~ctx ~n json =
  match Option.bind (Json.member "w" json) Json.to_string_opt with
  | None ->
      if Json.member "w" json <> None then badf "%s: w is not a string" ctx;
      None
  | Some "init" -> Some Span.Init
  | Some "rf" -> Some Span.Feedback
  | Some "c" -> Some Span.Complete
  | Some "join" ->
      let parent = proc ~ctx ~n "parent" json in
      let d = int_field ~ctx "d" json in
      if d < 1 then badf "%s: join with d = %d < 1" ctx d;
      Some (Span.Join { parent; d })
  | Some other -> badf "%s: unknown wave tag %S" ctx other

let parse_step ~ctx ~n json =
  let index = int_field ~ctx "step" json in
  let movers =
    List.map
      (fun mv ->
        {
          p = proc ~ctx ~n "p" mv;
          rule = string_field ~ctx "rule" mv;
          wave = parse_wave ~ctx ~n mv;
        })
      (list_field ~ctx "movers" json)
  in
  if movers = [] then badf "%s: step with no movers" ctx;
  { index; movers }

let parse_anomaly ~ctx ~n json =
  List.iter
    (fun w ->
      ignore (int_field ~ctx:(ctx ^ " window") "step" w);
      ignore (proc ~ctx:(ctx ^ " window") ~n "p" w);
      ignore (string_field ~ctx:(ctx ^ " window") "rule" w))
    (list_field ~ctx "window" json);
  {
    monitor = string_field ~ctx "monitor" json;
    step = int_field ~ctx "step" json;
    process =
      (match Json.member "process" json with
      | None -> None
      | Some _ -> Some (proc ~ctx ~n "process" json));
    value = int_field ~ctx "value" json;
    bound = int_field ~ctx "bound" json;
  }

let parse_summary ~ctx json =
  let moves_per_rule =
    match Json.member "moves_per_rule" json with
    | Some (Json.Obj fields) -> int_assoc ~ctx:(ctx ^ " moves_per_rule") fields
    | Some _ -> badf "%s: moves_per_rule is not an object" ctx
    | None -> []
  in
  {
    outcome = string_field ~ctx "outcome" json;
    rounds = int_field ~ctx "rounds" json;
    steps = int_field ~ctx "steps" json;
    moves = int_field ~ctx "moves" json;
    wall_s = float_field ~ctx "wall_s" json;
    moves_per_rule;
    anomaly_count =
      (match Json.member "anomalies" json with
      | None -> None
      | Some v -> (
          match Json.to_int_opt v with
          | Some c -> Some c
          | None -> badf "%s: anomalies is not an int" ctx));
  }

let load_string ?(path = "<trace>") contents =
  let manifest = ref None in
  let init_active = ref None in
  let steps_rev = ref [] in
  let rounds_rev = ref [] in
  let anomalies_rev = ref [] in
  let summary = ref None in
  let last_step = ref min_int and last_round = ref min_int in
  let records = ref 0 in
  try
    String.split_on_char '\n' contents
    |> List.iteri (fun lineno line ->
           if String.trim line <> "" then begin
             let ctx = Printf.sprintf "%s:%d" path (lineno + 1) in
             let json =
               match Json.of_string line with
               | Ok j -> j
               | Error msg -> badf "%s: %s" ctx msg
             in
             if !summary <> None then badf "%s: record after the summary" ctx;
             incr records;
             let ty =
               match
                 Option.bind (Json.member "type" json) Json.to_string_opt
               with
               | Some ty -> ty
               | None -> badf "%s: record without a type" ctx
             in
             if !records = 1 && ty <> "manifest" then
               badf "%s: first record must be the manifest, got %S" ctx ty;
             match ty with
             | "manifest" ->
                 if !manifest <> None then badf "%s: duplicate manifest" ctx;
                 manifest := Some (parse_manifest ~ctx json)
             | "init" ->
                 if !init_active <> None then
                   badf "%s: duplicate init record" ctx;
                 if !steps_rev <> [] || !rounds_rev <> [] then
                   badf "%s: init record after step/round records" ctx;
                 let _, _, n, _, _, _ = Option.get !manifest in
                 init_active := Some (parse_init ~ctx ~n json)
             | "step" ->
                 let _, _, n, _, _, _ = Option.get !manifest in
                 let s = parse_step ~ctx ~n json in
                 if s.index <= !last_step then
                   badf "%s: step %d not strictly increasing" ctx s.index;
                 last_step := s.index;
                 steps_rev := s :: !steps_rev
             | "round" ->
                 let r = int_field ~ctx "round" json in
                 if r <= !last_round then
                   badf "%s: round %d not strictly increasing" ctx r;
                 last_round := r;
                 rounds_rev :=
                   {
                     round = r;
                     steps = int_field ~ctx "steps" json;
                     moves = int_field ~ctx "moves" json;
                   }
                   :: !rounds_rev
             | "anomaly" ->
                 let _, _, n, _, _, _ = Option.get !manifest in
                 anomalies_rev := parse_anomaly ~ctx ~n json :: !anomalies_rev
             | "summary" -> summary := Some (parse_summary ~ctx json)
             | other -> badf "%s: unknown record type %S" ctx other
           end);
    let system, family, n, seed, daemon, graph =
      match !manifest with
      | Some m -> m
      | None -> badf "%s: empty trace (no manifest)" path
    in
    let summary =
      match !summary with
      | Some s -> s
      | None -> badf "%s: no summary record" path
    in
    let steps = List.rev !steps_rev in
    if steps <> [] then begin
      let step_records = List.length steps in
      if step_records <> summary.steps then
        badf "%s: %d step records but summary says steps = %d" path
          step_records summary.steps;
      let movers =
        List.fold_left (fun acc s -> acc + List.length s.movers) 0 steps
      in
      if movers <> summary.moves then
        badf "%s: %d recorded movers but summary says moves = %d" path movers
          summary.moves
    end;
    let anomalies = List.rev !anomalies_rev in
    (match summary.anomaly_count with
    | Some c when c <> List.length anomalies ->
        badf "%s: summary says %d anomalies but %d anomaly records" path c
          (List.length anomalies)
    | _ -> ());
    Ok
      {
        system;
        family;
        n;
        seed;
        daemon;
        graph;
        init_active = Option.value ~default:[] !init_active;
        steps;
        rounds = List.rev !rounds_rev;
        anomalies;
        summary;
      }
  with Json.Invalid msg -> Error msg

let load_file path =
  match Json.read_file path with
  | exception Sys_error msg -> Error msg
  | contents -> load_string ~path contents

let manifest ~system ~family ~seed ~daemon graph =
  Sink.manifest ~system ~family ~n:(Graph.n graph) ~m:(Graph.m graph) ~seed
    ~daemon
    ~extra:
      [ ("trace_schema", Json.String schema);
        ( "edges",
          Json.List
            (List.map
               (fun (u, v) -> Json.List [ Json.Int u; Json.Int v ])
               (Graph.edges graph)) ) ]
    ()
