let schema = "ssreset-prof-v1"

(* [Monotonic_clock.now] is an [@unboxed] [@@noalloc] C stub over
   clock_gettime(CLOCK_MONOTONIC); the only per-read cost is the vDSO call
   and the (minor, 3-word) int64 box, immediately discarded. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type timer = {
  hist : Histogram.t;
  mutable total_ns : int;
}

type t = {
  metrics : Metrics.t;
  sub_bits : int;
  mutable timers : (string * timer) list;  (* reversed *)
  timer_index : (string, timer) Hashtbl.t;
  mutable hists : (string * Histogram.t) list;  (* reversed *)
  hist_index : (string, Histogram.t) Hashtbl.t;
  window_steps : int;
  sink : Sink.t option;
  (* step accounting *)
  mutable steps : int;
  mutable moves : int;
  (* window state *)
  mutable window_index : int;
  mutable win_t0 : int;
  mutable win_steps0 : int;
  mutable win_moves0 : int;
  mutable win_snap : Metrics.snapshot;
  mutable win_minor0 : float;
  mutable win_major0 : float;
  (* gc mark *)
  mutable gc_minor0 : float;
  mutable gc_promoted0 : float;
  mutable gc_major0 : float;
  mutable gc_minor_col0 : int;
  mutable gc_major_col0 : int;
}

let create ?(sub_bits = 5) ?(window_steps = 0) ?sink () =
  let metrics = Metrics.create () in
  let q = Gc.quick_stat () in
  {
    metrics;
    sub_bits;
    timers = [];
    timer_index = Hashtbl.create 16;
    hists = [];
    hist_index = Hashtbl.create 8;
    window_steps;
    sink;
    steps = 0;
    moves = 0;
    window_index = 0;
    win_t0 = now_ns ();
    win_steps0 = 0;
    win_moves0 = 0;
    win_snap = Metrics.snapshot metrics;
    win_minor0 = q.Gc.minor_words;
    win_major0 = q.Gc.major_words;
    gc_minor0 = q.Gc.minor_words;
    gc_promoted0 = q.Gc.promoted_words;
    gc_major0 = q.Gc.major_words;
    gc_minor_col0 = q.Gc.minor_collections;
    gc_major_col0 = q.Gc.major_collections;
  }

let metrics t = t.metrics

let timer t name =
  match Hashtbl.find_opt t.timer_index name with
  | Some tm -> tm
  | None ->
      let tm = { hist = Histogram.create ~sub_bits:t.sub_bits (); total_ns = 0 } in
      t.timers <- (name, tm) :: t.timers;
      Hashtbl.replace t.timer_index name tm;
      tm

let record_span tm ns =
  let ns = if ns < 0 then 0 else ns in
  tm.total_ns <- tm.total_ns + ns;
  Histogram.record tm.hist ns

let record_spans tm ns ~n =
  if n > 0 then begin
    let ns = if ns < 0 then 0 else ns in
    tm.total_ns <- tm.total_ns + ns;
    Histogram.record_n tm.hist (ns / n) ~n
  end

let timer_total_ns tm = tm.total_ns
let timer_count tm = Histogram.count tm.hist

(* Bulk-merge externally accumulated spans (a worker domain's private
   histogram) into a timer — the partitioned engine's per-domain phase laps
   land in one stream this way.  Lossless: bucket-wise sum plus the exact
   total kept on the side. *)
let merge_spans tm ~total_ns hist =
  tm.total_ns <- tm.total_ns + (if total_ns < 0 then 0 else total_ns);
  Histogram.merge_into ~dst:tm.hist hist

let histogram t name =
  match Hashtbl.find_opt t.hist_index name with
  | Some h -> h
  | None ->
      let h = Histogram.create ~sub_bits:t.sub_bits () in
      t.hists <- (name, h) :: t.hists;
      Hashtbl.replace t.hist_index name h;
      h

let gc_mark t =
  let q = Gc.quick_stat () in
  t.gc_minor0 <- q.Gc.minor_words;
  t.gc_promoted0 <- q.Gc.promoted_words;
  t.gc_major0 <- q.Gc.major_words;
  t.gc_minor_col0 <- q.Gc.minor_collections;
  t.gc_major_col0 <- q.Gc.major_collections

let gc_collect t =
  let q = Gc.quick_stat () in
  let addf name before now =
    Metrics.add (Metrics.counter t.metrics name)
      (int_of_float (now -. before))
  in
  addf "gc.minor_words" t.gc_minor0 q.Gc.minor_words;
  addf "gc.promoted_words" t.gc_promoted0 q.Gc.promoted_words;
  addf "gc.major_words" t.gc_major0 q.Gc.major_words;
  Metrics.add
    (Metrics.counter t.metrics "gc.minor_collections")
    (q.Gc.minor_collections - t.gc_minor_col0);
  Metrics.add
    (Metrics.counter t.metrics "gc.major_collections")
    (q.Gc.major_collections - t.gc_major_col0);
  gc_mark t

let steps t = t.steps
let moves t = t.moves

(* Per-rule move deltas for a window: counters follow the ["moves.R"]
   convention; everything else in the diff is reported under "counters". *)
let split_moves deltas =
  List.partition_map
    (fun (name, d) ->
      if String.starts_with ~prefix:"moves." name then
        Left (String.sub name 6 (String.length name - 6), d)
      else Right (name, d))
    deltas

let emit_window t =
  match t.sink with
  | None -> ()
  | Some sink ->
      let now = now_ns () in
      let wall_s = float_of_int (now - t.win_t0) /. 1e9 in
      let dsteps = t.steps - t.win_steps0 in
      let dmoves = t.moves - t.win_moves0 in
      let q = Gc.quick_stat () in
      let rule_moves, other_counters =
        split_moves (Metrics.diff t.win_snap t.metrics)
      in
      let rate d = Metrics.rate d wall_s in
      Sink.write sink
        (Json.Obj
           [ ("type", Json.String "window");
             ("index", Json.Int t.window_index);
             ("at_step", Json.Int t.steps);
             ("steps", Json.Int dsteps);
             ("moves", Json.Int dmoves);
             ("wall_s", Json.Float wall_s);
             ("steps_per_s", Json.Float (rate dsteps));
             ("moves_per_s", Json.Float (rate dmoves));
             ( "moves_per_rule",
               Json.Obj (List.map (fun (r, d) -> (r, Json.Int d)) rule_moves) );
             ( "counters",
               Json.Obj
                 (List.map (fun (n, d) -> (n, Json.Int d)) other_counters) );
             ( "gc_minor_words",
               Json.Int (int_of_float (q.Gc.minor_words -. t.win_minor0)) );
             ( "gc_major_words",
               Json.Int (int_of_float (q.Gc.major_words -. t.win_major0)) ) ]);
      t.window_index <- t.window_index + 1;
      t.win_t0 <- now;
      t.win_steps0 <- t.steps;
      t.win_moves0 <- t.moves;
      t.win_snap <- Metrics.snapshot t.metrics;
      t.win_minor0 <- q.Gc.minor_words;
      t.win_major0 <- q.Gc.major_words

let tick t ~moves =
  t.steps <- t.steps + 1;
  t.moves <- t.moves + moves;
  if
    t.window_steps > 0
    && Option.is_some t.sink
    && t.steps - t.win_steps0 >= t.window_steps
  then emit_window t

let manifest ?(extra = []) ~system ~family ~n ~m ~seed ~daemon ~window_steps ()
    =
  Json.Obj
    ([ ("type", Json.String "manifest");
       ("schema", Json.String schema);
       ("system", Json.String system);
       ("family", Json.String family);
       ("n", Json.Int n);
       ("m", Json.Int m);
       ("seed", Json.Int seed);
       ("daemon", Json.String daemon);
       ("window_steps", Json.Int window_steps);
       ("git", Json.String (Sink.git_describe ())) ]
    @ extra)

let timer_summary tm =
  let h = tm.hist in
  Json.Obj
    [ ("ns", Json.Int tm.total_ns);
      ("count", Json.Int (Histogram.count h));
      ("mean_ns", Json.Float (Histogram.mean h));
      ("p50_ns", Json.Float (Histogram.percentile h ~p:50.));
      ("p90_ns", Json.Float (Histogram.percentile h ~p:90.));
      ("max_ns", Json.Int (Histogram.max_value h)) ]

let strip prefix (name, tm) =
  let pl = String.length prefix in
  if String.starts_with ~prefix name then
    Some (String.sub name pl (String.length name - pl), tm)
  else None

let summary_json t =
  let ordered = List.rev t.timers in
  let section prefix =
    List.filter_map
      (fun nt ->
        Option.map (fun (n, tm) -> (n, timer_summary tm)) (strip prefix nt))
      ordered
  in
  let wall_s = Metrics.gauge_value (Metrics.gauge t.metrics "engine.wall_s") in
  Json.Obj
    [ ("type", Json.String "summary");
      ("steps", Json.Int t.steps);
      ("moves", Json.Int t.moves);
      ("wall_s", Json.Float wall_s);
      ("windows", Json.Int t.window_index);
      ("phases", Json.Obj (section "phase."));
      ("rules", Json.Obj (section "rule."));
      ("metrics", Metrics.to_json t.metrics);
      ( "timers",
        Json.Obj
          (List.map
             (fun (name, tm) ->
               ( name,
                 Json.Obj
                   [ ("total_ns", Json.Int tm.total_ns);
                     ("hist", Histogram.to_json tm.hist) ] ))
             ordered) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, h) -> (name, Histogram.to_json h))
             (List.rev t.hists)) ) ]

let write_summary t =
  match t.sink with
  | None -> ()
  | Some sink -> Sink.write sink (summary_json t)
