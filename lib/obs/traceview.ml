(* Offline analyses of a loaded ssreset-trace-v1 trace.  Each analysis is
   one function from the trace to a value, and each value has one JSON and
   one text rendering. *)

let span (t : Tracefile.t) =
  let span = Span.create ~n:t.Tracefile.n in
  Span.seed_active ~graph:t.Tracefile.graph span
    (List.map (fun (p, _, d) -> (p, d)) t.Tracefile.init_active);
  List.iter
    (fun (s : Tracefile.step) ->
      Span.feed_step span ~step:s.Tracefile.index
        (List.filter_map
           (fun (m : Tracefile.mover) ->
             Option.map (fun ev -> (m.Tracefile.p, ev)) m.Tracefile.wave)
           s.Tracefile.movers))
    t.Tracefile.steps;
  span

let causality ?keep_edges (t : Tracefile.t) =
  Causality.build ?keep_edges ~graph:t.Tracefile.graph
    (List.map
       (fun (s : Tracefile.step) ->
         ( s.Tracefile.index,
           List.map
             (fun (m : Tracefile.mover) -> (m.Tracefile.p, m.Tracefile.rule))
             s.Tracefile.movers ))
       t.Tracefile.steps)

let with_steps (t : Tracefile.t) f =
  if t.Tracefile.steps = [] then
    Error
      "no step records — record the run with --trace-out FILE --trace-steps"
  else Ok (f ())

(* [line b fmt ...] appends one formatted line to [b]. *)
let line b fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt

(* -------------------------------- summary ------------------------------- *)

type summary = {
  s_trace : Tracefile.t;
  s_stats : Span.stats;
  s_critical_path : int option;
}

let summary (t : Tracefile.t) =
  { s_trace = t;
    s_stats = Span.stats (span t);
    s_critical_path =
      (if t.Tracefile.steps = [] then None
       else Some (Causality.critical_length (causality t))) }

let summary_json { s_trace = t; s_stats = st; s_critical_path = cp } =
  let s = t.Tracefile.summary in
  Json.Obj
    ([ ("system", Json.String t.Tracefile.system);
       ("family", Json.String t.Tracefile.family);
       ("n", Json.Int t.Tracefile.n);
       ("seed", Json.Int t.Tracefile.seed);
       ("daemon", Json.String t.Tracefile.daemon);
       ("outcome", Json.String s.Tracefile.outcome);
       ("rounds", Json.Int s.Tracefile.rounds);
       ("steps", Json.Int s.Tracefile.steps);
       ("moves", Json.Int s.Tracefile.moves);
       ("anomalies", Json.Int (List.length t.Tracefile.anomalies));
       ("waves", Json.Int st.Span.wave_count);
       ("waves_completed", Json.Int st.Span.completed);
       ("max_wave_depth", Json.Int st.Span.max_depth);
       ("max_wave_members", Json.Int st.Span.max_members);
       ("max_wave_duration", Json.Int st.Span.max_duration) ]
    @
    match cp with
    | Some cp -> [ ("critical_path", Json.Int cp) ]
    | None -> [])

let summary_text { s_trace = t; s_stats = st; s_critical_path = cp } =
  let s = t.Tracefile.summary in
  let b = Buffer.create 256 in
  let pr fmt = line b fmt in
  pr "%s on %s n=%d (seed %d, %s daemon)" t.Tracefile.system
    t.Tracefile.family t.Tracefile.n t.Tracefile.seed t.Tracefile.daemon;
  pr "  outcome:       %s" s.Tracefile.outcome;
  pr "  rounds:        %d" s.Tracefile.rounds;
  pr "  steps:         %d" s.Tracefile.steps;
  pr "  moves:         %d" s.Tracefile.moves;
  pr "  anomalies:     %d" (List.length t.Tracefile.anomalies);
  List.iter
    (fun (a : Tracefile.anomaly) ->
      pr "    %s at step %d: value %d > bound %d%s" a.Tracefile.monitor
        a.Tracefile.step a.Tracefile.value a.Tracefile.bound
        (match a.Tracefile.process with
        | Some p -> Printf.sprintf " (process %d)" p
        | None -> ""))
    t.Tracefile.anomalies;
  if t.Tracefile.steps <> [] then begin
    pr "  waves:         %d (%d completed, %d preexisting)" st.Span.wave_count
      st.Span.completed st.Span.preexisting_count;
    pr "  max depth:     %d" st.Span.max_depth;
    pr "  max members:   %d" st.Span.max_members;
    pr "  max duration:  %d steps" st.Span.max_duration;
    match cp with
    | Some cp ->
        pr "  critical path: %d moves (rounds %d)" cp s.Tracefile.rounds
    | None -> ()
  end;
  Buffer.contents b

(* --------------------------------- waves -------------------------------- *)

type waves = {
  w_trace : Tracefile.t;
  w_span : Span.t;
  w_waves : Span.wave list;
  w_stats : Span.stats;
}

let waves t =
  with_steps t @@ fun () ->
  let span = span t in
  { w_trace = t; w_span = span; w_waves = Span.waves span;
    w_stats = Span.stats span }

let waves_json w =
  Json.List
    (List.map
       (fun (w : Span.wave) ->
         Json.Obj
           [ ("id", Json.Int w.Span.id);
             ("root", Json.Int w.Span.root);
             ("preexisting", Json.Bool w.Span.preexisting);
             ("members", Json.Int w.Span.members);
             ("depth", Json.Int w.Span.depth);
             ("r", Json.Int w.Span.r_moves);
             ("rb", Json.Int w.Span.rb_moves);
             ("rf", Json.Int w.Span.rf_moves);
             ("c", Json.Int w.Span.c_moves);
             ("first_step", Json.Int w.Span.first_step);
             ("last_step", Json.Int w.Span.last_step);
             ("completed", Json.Bool (w.Span.active = 0)) ])
       w.w_waves)

let waves_text { w_waves; w_stats = st; _ } =
  let b = Buffer.create 256 in
  let pr fmt = line b fmt in
  pr "%d wave(s), %d completed, max depth %d" st.Span.wave_count
    st.Span.completed st.Span.max_depth;
  pr "  %4s %5s %7s %5s %5s  %-17s %s" "id" "root" "members" "depth" "moves"
    "r/rb/rf/c" "steps";
  List.iter
    (fun (w : Span.wave) ->
      pr "  %4d %5d %7d %5d %5d  %-17s %d..%d%s%s" w.Span.id w.Span.root
        w.Span.members w.Span.depth
        (w.Span.r_moves + w.Span.rb_moves + w.Span.rf_moves + w.Span.c_moves)
        (Printf.sprintf "%d/%d/%d/%d" w.Span.r_moves w.Span.rb_moves
           w.Span.rf_moves w.Span.c_moves)
        w.Span.first_step w.Span.last_step
        (if w.Span.preexisting then " (preexisting)" else "")
        (if w.Span.active > 0 then Printf.sprintf " [active %d]" w.Span.active
         else ""))
    w_waves;
  Buffer.contents b

let waves_check { w_trace = t; w_span; w_waves; w_stats = st } =
  let summary = t.Tracefile.summary in
  let require_complete = summary.Tracefile.outcome <> "step-limit" in
  (* Every wave-tagged move must be attributed to exactly one span: the
     per-wave totals must add up to the per-rule counters of the summary. *)
  let attribution =
    List.filter_map
      (fun (rule, moves) ->
        let total = List.fold_left (fun a w -> a + moves w) 0 w_waves in
        match List.assoc_opt rule summary.Tracefile.moves_per_rule with
        | Some expected when expected <> total ->
            Some
              (Printf.sprintf
                 "%s: %d moves attributed to waves but the summary counted %d"
                 rule total expected)
        | _ -> None)
      [ ("SDR-R", fun w -> w.Span.r_moves);
        ("SDR-RB", fun w -> w.Span.rb_moves);
        ("SDR-RF", fun w -> w.Span.rf_moves);
        ("SDR-C", fun w -> w.Span.c_moves) ]
  in
  let synthetic =
    if st.Span.synthetic > 0 then
      [ Printf.sprintf "%d synthetic wave(s): events without provenance"
          st.Span.synthetic ]
    else []
  in
  match Span.check ~require_complete w_span @ attribution @ synthetic with
  | [] ->
      Ok
        (Printf.sprintf
           "wave check: OK (%d waves, every RB/RF move attributed, \
            completions balanced)"
           st.Span.wave_count)
  | errs -> Error (List.map (fun e -> "wave check FAIL: " ^ e) errs)

(* ----------------------------- critical path ---------------------------- *)

type critical_path = {
  c_trace : Tracefile.t;
  c_causality : Causality.t;
  c_length : int;
}

let critical_path t =
  with_steps t @@ fun () ->
  let c = causality t in
  { c_trace = t; c_causality = c; c_length = Causality.critical_length c }

let critical_path_json { c_trace = t; c_causality = c; c_length = cp } =
  let s = t.Tracefile.summary in
  Json.Obj
    [ ("critical_path", Json.Int cp);
      ("moves", Json.Int (Causality.move_count c));
      ("edges", Json.Int (Causality.edge_count c));
      ("steps", Json.Int s.Tracefile.steps);
      ("rounds", Json.Int s.Tracefile.rounds);
      ( "attribution",
        Json.Obj
          (List.map
             (fun (rule, count) -> (rule, Json.Int count))
             (Causality.attribution c)) ) ]

let critical_path_text { c_trace = t; c_causality = c; c_length = cp } =
  let s = t.Tracefile.summary in
  let b = Buffer.create 256 in
  let pr fmt = line b fmt in
  pr "critical path: %d move(s) over %d total (%d causal edges)" cp
    (Causality.move_count c) (Causality.edge_count c);
  pr "  steps %d, rounds %d — the path explains %d of %d rounds"
    s.Tracefile.steps s.Tracefile.rounds (min cp s.Tracefile.rounds)
    s.Tracefile.rounds;
  List.iter
    (fun (rule, count) -> pr "  %-12s %d" rule count)
    (Causality.attribution c);
  Buffer.contents b

let critical_path_check { c_trace = t; c_length = cp; _ } =
  let steps = t.Tracefile.summary.Tracefile.steps in
  let errors =
    (if cp > steps then
       [ Printf.sprintf "critical path %d exceeds steps %d" cp steps ]
     else [])
    (* Under the synchronous daemon every move at step k was enabled or
       rewritten by a step-(k-1) neighborhood move, so the longest chain
       spans every step exactly. *)
    @
    if t.Tracefile.daemon = "synchronous" && cp <> steps then
      [ Printf.sprintf
          "synchronous daemon: critical path %d should equal steps %d" cp
          steps ]
    else []
  in
  match errors with
  | [] -> Ok "critical-path check: OK"
  | errs -> Error (List.map (fun e -> "critical-path check FAIL: " ^ e) errs)

(* ---------------------------------- dot --------------------------------- *)

let dot ~what ~max_moves t =
  with_steps t @@ fun () ->
  match what with
  | `Waves -> Span.to_dot (span t)
  | `Causal -> Causality.to_dot ~max_moves (causality ~keep_edges:true t)

(* --------------------------------- diff --------------------------------- *)

type diff = (string * string * string) list

let diff (a : Tracefile.t) (b : Tracefile.t) =
  let sa = a.Tracefile.summary and sb = b.Tracefile.summary in
  let sta = Span.stats (span a) and stb = Span.stats (span b) in
  let cp (t : Tracefile.t) =
    if t.Tracefile.steps = [] then 0
    else Causality.critical_length (causality t)
  in
  let cpa = cp a and cpb = cp b in
  let fields =
    [ ("system", a.Tracefile.system, b.Tracefile.system);
      ("family", a.Tracefile.family, b.Tracefile.family);
      ("daemon", a.Tracefile.daemon, b.Tracefile.daemon);
      ("n", string_of_int a.Tracefile.n, string_of_int b.Tracefile.n);
      ("seed", string_of_int a.Tracefile.seed, string_of_int b.Tracefile.seed);
      ("outcome", sa.Tracefile.outcome, sb.Tracefile.outcome);
      ("rounds", string_of_int sa.Tracefile.rounds,
       string_of_int sb.Tracefile.rounds);
      ("steps", string_of_int sa.Tracefile.steps,
       string_of_int sb.Tracefile.steps);
      ("moves", string_of_int sa.Tracefile.moves,
       string_of_int sb.Tracefile.moves);
      ("waves", string_of_int sta.Span.wave_count,
       string_of_int stb.Span.wave_count);
      ("max_wave_depth", string_of_int sta.Span.max_depth,
       string_of_int stb.Span.max_depth);
      ("critical_path", string_of_int cpa, string_of_int cpb);
      ("anomalies", string_of_int (List.length a.Tracefile.anomalies),
       string_of_int (List.length b.Tracefile.anomalies)) ]
  in
  List.filter (fun (_, x, y) -> x <> y) fields

let diff_json diffs =
  Json.Obj
    (List.map
       (fun (name, x, y) ->
         (name, Json.Obj [ ("a", Json.String x); ("b", Json.String y) ]))
       diffs)

let diff_text diffs =
  let b = Buffer.create 256 in
  let pr fmt = line b fmt in
  if diffs = [] then pr "traces agree on every compared field"
  else List.iter (fun (name, x, y) -> pr "%-15s %s | %s" name x y) diffs;
  Buffer.contents b
