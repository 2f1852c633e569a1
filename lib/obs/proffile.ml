let schema = Prof.schema

type window = {
  index : int;
  at_step : int;
  steps : int;
  moves : int;
  wall_s : float;
  steps_per_s : float;
  moves_per_s : float;
  moves_per_rule : (string * int) list;
  gc_minor_words : int;
  gc_major_words : int;
}

type section = {
  ns : int;
  count : int;
  mean_ns : float;
  p50_ns : float;
  p90_ns : float;
  max_ns : int;
}

type summary = {
  steps : int;
  moves : int;
  wall_s : float;
  window_count : int;
  phases : (string * section) list;
  rules : (string * section) list;
  counters : (string * int) list;
  gauges : (string * float) list;
}

type t = {
  system : string;
  family : string;
  n : int;
  m : int;
  seed : int;
  daemon : string;
  window_steps : int;
  windows : window list;
  summary : summary;
}

let failf = Json.invalidf
let int_field = Json.int_field
let string_field = Json.string_field
let float_field = Json.float_field
let obj_field = Json.obj_field
let int_assoc = Json.int_assoc
let float_assoc = Json.float_assoc

let parse_window ~ctx json =
  let w =
    {
      index = int_field ~ctx "index" json;
      at_step = int_field ~ctx "at_step" json;
      steps = int_field ~ctx "steps" json;
      moves = int_field ~ctx "moves" json;
      wall_s = float_field ~ctx "wall_s" json;
      steps_per_s = float_field ~ctx "steps_per_s" json;
      moves_per_s = float_field ~ctx "moves_per_s" json;
      moves_per_rule = int_assoc ~ctx (obj_field ~ctx "moves_per_rule" json);
      gc_minor_words = int_field ~ctx "gc_minor_words" json;
      gc_major_words = int_field ~ctx "gc_major_words" json;
    }
  in
  if w.steps <= 0 then failf "%s: window covers %d steps" ctx w.steps;
  if w.wall_s < 0. then failf "%s: negative wall_s" ctx;
  if w.moves < w.steps then
    failf "%s: %d moves over %d steps (a step moves at least one process)"
      ctx w.moves w.steps;
  w

let parse_section ~ctx (name, json) =
  let ctx = Printf.sprintf "%s %S" ctx name in
  let s =
    {
      ns = int_field ~ctx "ns" json;
      count = int_field ~ctx "count" json;
      mean_ns = float_field ~ctx "mean_ns" json;
      p50_ns = float_field ~ctx "p50_ns" json;
      p90_ns = float_field ~ctx "p90_ns" json;
      max_ns = int_field ~ctx "max_ns" json;
    }
  in
  if s.ns < 0 || s.count < 0 then failf "%s: negative totals" ctx;
  (name, s)

let parse_summary ~ctx json =
  let metrics = Json.member "metrics" json in
  let metrics_obj name =
    match Option.bind metrics (Json.member name) with
    | Some (Json.Obj fields) -> fields
    | _ -> failf "%s: missing metrics.%s object" ctx name
  in
  {
    steps = int_field ~ctx "steps" json;
    moves = int_field ~ctx "moves" json;
    wall_s = float_field ~ctx "wall_s" json;
    window_count = int_field ~ctx "windows" json;
    phases =
      List.map (parse_section ~ctx:"phase") (obj_field ~ctx "phases" json);
    rules = List.map (parse_section ~ctx:"rule") (obj_field ~ctx "rules" json);
    counters = int_assoc ~ctx:(ctx ^ " counters") (metrics_obj "counters");
    gauges = float_assoc ~ctx:(ctx ^ " gauges") (metrics_obj "gauges");
  }

let validate t =
  let ctx = "summary" in
  if t.summary.window_count <> List.length t.windows then
    failf "%s: windows field %d but %d window records" ctx
      t.summary.window_count (List.length t.windows);
  let wsteps = List.fold_left (fun a (w : window) -> a + w.steps) 0 t.windows in
  let wmoves = List.fold_left (fun a (w : window) -> a + w.moves) 0 t.windows in
  if wsteps > t.summary.steps then
    failf "%s: windows cover %d steps but the run had %d" ctx wsteps
      t.summary.steps;
  if wmoves > t.summary.moves then
    failf "%s: windows cover %d moves but the run had %d" ctx wmoves
      t.summary.moves;
  (* Every per-rule window delta must be covered by the summary counter —
     windows report [Metrics.diff]s, so the sum over windows can never
     exceed the final counter value. *)
  let per_rule = Hashtbl.create 8 in
  List.iter
    (fun w ->
      List.iter
        (fun (rule, d) ->
          if d < 0 then failf "window %d: negative delta for rule %s" w.index rule;
          Hashtbl.replace per_rule rule
            (d + Option.value ~default:0 (Hashtbl.find_opt per_rule rule)))
        w.moves_per_rule)
    t.windows;
  Hashtbl.iter
    (fun rule total ->
      match List.assoc_opt ("moves." ^ rule) t.summary.counters with
      | Some final when final >= total -> ()
      | Some final ->
          failf
            "%s: windows attribute %d moves to rule %s but the counter ends \
             at %d"
            ctx total rule final
      | None ->
          failf "%s: windows mention rule %s but no moves.%s counter exists"
            ctx rule rule)
    per_rule

let load_string ?(path = "<string>") body =
  let parse () =
    let lines = String.split_on_char '\n' body in
    let records =
      List.concat
        (List.mapi
           (fun i line ->
             if String.trim line = "" then []
             else
               match Json.of_string line with
               | Ok json -> [ (i + 1, json) ]
               | Error msg -> failf "%s:%d: %s" path (i + 1) msg)
           lines)
    in
    let manifest, rest =
      match records with
      | (ln, m) :: rest ->
          let ctx = Printf.sprintf "%s:%d manifest" path ln in
          (match
             Option.bind (Json.member "type" m) Json.to_string_opt
           with
          | Some "manifest" -> ()
          | _ -> failf "%s: first record is not a manifest" ctx);
          (match
             Option.bind (Json.member "schema" m) Json.to_string_opt
           with
          | Some s when s = schema -> ()
          | Some s -> failf "%s: schema %S, expected %S" ctx s schema
          | None -> failf "%s: schema is not a string" ctx);
          ((ln, m), rest)
      | [] -> failf "%s: empty profile" path
    in
    let mline, mjson = manifest in
    let mctx = Printf.sprintf "%s:%d manifest" path mline in
    let windows = ref [] in
    let summary = ref None in
    let next_index = ref 0 in
    let last_at_step = ref (-1) in
    List.iter
      (fun (ln, json) ->
        let ctx ty = Printf.sprintf "%s:%d %s" path ln ty in
        if !summary <> None then
          failf "%s:%d: record after the summary" path ln;
        match Option.bind (Json.member "type" json) Json.to_string_opt with
        | Some "window" ->
            let w = parse_window ~ctx:(ctx "window") json in
            if w.index <> !next_index then
              failf "%s: window index %d, expected %d" (ctx "window") w.index
                !next_index;
            if w.at_step <= !last_at_step then
              failf "%s: at_step %d does not increase" (ctx "window") w.at_step;
            next_index := w.index + 1;
            last_at_step := w.at_step;
            windows := w :: !windows
        | Some "summary" ->
            summary := Some (parse_summary ~ctx:(ctx "summary") json)
        | Some other -> failf "%s:%d: unknown record type %S" path ln other
        | None -> failf "%s:%d: record without a type" path ln)
      rest;
    let summary =
      match !summary with
      | Some s -> s
      | None -> failf "%s: no summary record" path
    in
    let t =
      {
        system = string_field ~ctx:mctx "system" mjson;
        family = string_field ~ctx:mctx "family" mjson;
        n = int_field ~ctx:mctx "n" mjson;
        m = int_field ~ctx:mctx "m" mjson;
        seed = int_field ~ctx:mctx "seed" mjson;
        daemon = string_field ~ctx:mctx "daemon" mjson;
        window_steps = int_field ~ctx:mctx "window_steps" mjson;
        windows = List.rev !windows;
        summary;
      }
    in
    validate t;
    t
  in
  match parse () with t -> Ok t | exception Json.Invalid msg -> Error msg

let load_file path =
  match Json.read_file path with
  | body -> load_string ~path body
  | exception Sys_error msg -> Error msg

let phase_total_ns t =
  List.fold_left (fun a (_, s) -> a + s.ns) 0 t.summary.phases
