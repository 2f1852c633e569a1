(* Analyses of a loaded ssreset-prof-v1 profile, in the shape of
   Traceview: one function from the profile to a value, one JSON and one
   text rendering of that value. *)

let ns_str ns =
  let f = float_of_int ns in
  if f >= 1e9 then Printf.sprintf "%.3fs" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2fms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fus" (f /. 1e3)
  else Printf.sprintf "%dns" ns

let fns_str f = ns_str (int_of_float f)

(* [line b fmt ...] appends one formatted line to [b]. *)
let line b fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt

let counter (s : Proffile.summary) name =
  Option.value ~default:0 (List.assoc_opt name s.Proffile.counters)

let gauge (s : Proffile.summary) name =
  match List.assoc_opt name s.Proffile.gauges with Some v -> v | None -> 0.

let section_json ~total (name, (sec : Proffile.section)) =
  ( name,
    Json.Obj
      [ ("ns", Json.Int sec.Proffile.ns);
        ( "share",
          Json.Float
            (if total > 0 then float_of_int sec.Proffile.ns /. float_of_int total
             else 0.) );
        ("count", Json.Int sec.Proffile.count);
        ("mean_ns", Json.Float sec.Proffile.mean_ns);
        ("p50_ns", Json.Float sec.Proffile.p50_ns);
        ("p90_ns", Json.Float sec.Proffile.p90_ns);
        ("max_ns", Json.Int sec.Proffile.max_ns) ] )

let print_sections b ~total sections =
  let pr fmt = line b fmt in
  pr "  %-12s %10s %6s %10s %10s %10s %10s" "" "total" "share" "count" "mean"
    "p50" "p90";
  List.iter
    (fun (name, (sec : Proffile.section)) ->
      pr "  %-12s %10s %5.1f%% %10d %10s %10s %10s" name
        (ns_str sec.Proffile.ns)
        (if total > 0 then
           100. *. float_of_int sec.Proffile.ns /. float_of_int total
         else 0.)
        sec.Proffile.count
        (fns_str sec.Proffile.mean_ns)
        (fns_str sec.Proffile.p50_ns)
        (fns_str sec.Proffile.p90_ns))
    sections

(* -------------------------------- report -------------------------------- *)

(* The acceptance criterion of the profiling layer: the lap-based phase
   timers tile the engine loop, so their sum must account for (nearly all
   of) the run's wall clock. *)
let coverage_band = (0.90, 1.10)

(* Per-worker attribution of a partitioned flat stream: the engine's
   per-domain phase laps ([flat.workerN.*]) plus the Team's busy/barrier
   split ([pool.workerN.*]). *)
type worker = {
  wr_id : int;
  wr_compute_s : float;
  wr_write_s : float;
  wr_refresh_s : float;
  wr_busy_s : float;
  wr_barrier_s : float;
  wr_gc_minor : float;
  wr_gc_major : float;
}

(* The worker ids the stream carries gauges for, ascending: one row per
   worker actually recorded, whatever [flat.parts] claims. *)
let worker_ids (s : Proffile.summary) =
  let id_of (name, _) =
    match String.split_on_char '.' name with
    | ("flat" | "pool") :: w :: _ :: _ when String.starts_with ~prefix:"worker" w ->
        int_of_string_opt (String.sub w 6 (String.length w - 6))
    | _ -> None
  in
  List.sort_uniq compare (List.filter_map id_of s.Proffile.gauges)

let workers (s : Proffile.summary) =
  List.map
    (fun w ->
      let g name = gauge s (Printf.sprintf "%s%d.%s" "flat.worker" w name) in
      let pg name = gauge s (Printf.sprintf "%s%d.%s" "pool.worker" w name) in
      { wr_id = w;
        wr_compute_s = g "compute_s";
        wr_write_s = g "write_s";
        wr_refresh_s = g "refresh_s";
        wr_busy_s = pg "busy_s";
        wr_barrier_s = pg "barrier_s";
        wr_gc_minor = g "gc_minor_words";
        wr_gc_major = g "gc_major_words" })
    (worker_ids s)

let worker_json r =
  Json.Obj
    [ ("worker", Json.Int r.wr_id);
      ("compute_s", Json.Float r.wr_compute_s);
      ("write_s", Json.Float r.wr_write_s);
      ("refresh_s", Json.Float r.wr_refresh_s);
      ("busy_s", Json.Float r.wr_busy_s);
      ("barrier_s", Json.Float r.wr_barrier_s);
      ("gc_minor_words", Json.Float r.wr_gc_minor);
      ("gc_major_words", Json.Float r.wr_gc_major) ]

type report = {
  r_prof : Proffile.t;
  r_attributed : int;
  r_wall_ns : int;
  r_parts : int;
  r_coverage : float;
  r_workers : worker list;  (** Empty on a single-worker stream. *)
}

let report (p : Proffile.t) =
  let s = p.Proffile.summary in
  let attributed = Proffile.phase_total_ns p in
  let wall_ns = int_of_float (s.Proffile.wall_s *. 1e9) in
  (* A partitioned flat stream records [flat.parts]; its per-worker phase
     laps (plus barrier waits) tile parts × wall, so that is the coverage
     denominator for multi-worker streams. *)
  let parts =
    let v = int_of_float (gauge s "flat.parts") in
    if v > 0 then v else 1
  in
  let wall_total_ns = wall_ns * parts in
  { r_prof = p;
    r_attributed = attributed;
    r_wall_ns = wall_ns;
    r_parts = parts;
    r_coverage =
      (if wall_total_ns > 0 then
         float_of_int attributed /. float_of_int wall_total_ns
       else 0.);
    r_workers = (if parts > 1 then workers s else []) }

let report_json r =
  let p = r.r_prof in
  let s = p.Proffile.summary in
  Json.Obj
    [ ("system", Json.String p.Proffile.system);
      ("family", Json.String p.Proffile.family);
      ("n", Json.Int p.Proffile.n);
      ("seed", Json.Int p.Proffile.seed);
      ("daemon", Json.String p.Proffile.daemon);
      ("steps", Json.Int s.Proffile.steps);
      ("moves", Json.Int s.Proffile.moves);
      ("wall_s", Json.Float s.Proffile.wall_s);
      ("windows", Json.Int s.Proffile.window_count);
      ("attributed_ns", Json.Int r.r_attributed);
      ("coverage", Json.Float r.r_coverage);
      ("parts", Json.Int r.r_parts);
      ("workers", Json.List (List.map worker_json r.r_workers));
      ( "phases",
        Json.Obj
          (List.map (section_json ~total:r.r_attributed) s.Proffile.phases) );
      ( "rules",
        Json.Obj
          (List.map (section_json ~total:r.r_attributed) s.Proffile.rules) );
      ( "counters",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Int v)) s.Proffile.counters) );
      ( "gauges",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Float v)) s.Proffile.gauges) ) ]

let report_text r =
  let p = r.r_prof in
  let s = p.Proffile.summary in
  let parts = r.r_parts and attributed = r.r_attributed in
  let b = Buffer.create 1024 in
  let pr fmt = line b fmt in
  pr "%s on %s n=%d (seed %d, %s daemon)" p.Proffile.system p.Proffile.family
    p.Proffile.n p.Proffile.seed p.Proffile.daemon;
  pr "  steps: %d  moves: %d  wall: %.3fs  windows: %d" s.Proffile.steps
    s.Proffile.moves s.Proffile.wall_s s.Proffile.window_count;
  pr "phases (engine loop attribution):";
  print_sections b ~total:attributed s.Proffile.phases;
  if parts > 1 then
    pr "  attributed %s = %.1f%% of %d workers x wall clock"
      (ns_str attributed) (100. *. r.r_coverage) parts
  else
    pr "  attributed %s = %.1f%% of wall clock" (ns_str attributed)
      (100. *. r.r_coverage);
  if parts > 1 then begin
    (* A stream that claims parts but carries no worker gauges gets no
       table at all, not a heading over no rows. *)
    if r.r_workers <> [] then begin
      pr "per-worker attribution (%d domains):" parts;
      pr "  %-7s %10s %10s %10s %10s %10s %12s" "worker" "compute" "write"
        "refresh" "busy" "barrier" "gc minor w";
      List.iter
        (fun r ->
          pr "  %-7d %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs %12.0f" r.wr_id
            r.wr_compute_s r.wr_write_s r.wr_refresh_s r.wr_busy_s
            r.wr_barrier_s r.wr_gc_minor)
        r.r_workers
    end;
    match List.assoc_opt "barrier" s.Proffile.phases with
    | Some (sec : Proffile.section) ->
        pr "  barrier waits: %d spans, p50 %s  p90 %s  max %s (%s total)"
          sec.Proffile.count
          (fns_str sec.Proffile.p50_ns)
          (fns_str sec.Proffile.p90_ns)
          (ns_str sec.Proffile.max_ns)
          (ns_str sec.Proffile.ns)
    | None -> ()
  end;
  let touched = counter s "sched.touched" in
  if touched > 0 || counter s "sched.evals" > 0 then begin
    let dedup = counter s "sched.dedup_hits" in
    pr "scheduler: touched %d  evals %d  dedup hits %d (%.1f%%)  table flips %d"
      touched (counter s "sched.evals") dedup
      (if touched > 0 then 100. *. float_of_int dedup /. float_of_int touched
       else 0.)
      (counter s "sched.table_flips")
  end;
  pr "gc: minor %d w  promoted %d w  major %d w  collections %d+%d"
    (counter s "gc.minor_words")
    (counter s "gc.promoted_words")
    (counter s "gc.major_words")
    (counter s "gc.minor_collections")
    (counter s "gc.major_collections");
  Buffer.contents b

let report_check r =
  let lo, hi = coverage_band in
  let denominator =
    if r.r_parts > 1 then Printf.sprintf "%d workers x wall clock" r.r_parts
    else "wall clock"
  in
  let carried = List.length r.r_workers in
  let failures =
    (if r.r_parts > 1 && carried < r.r_parts then
       [ Printf.sprintf
           "prof check FAIL: flat.parts claims %d workers but the stream \
            carries gauges for %d"
           r.r_parts carried ]
     else [])
    @
    if r.r_wall_ns <= 0 then [ "prof check FAIL: summary wall_s is zero" ]
    else if r.r_coverage < lo || r.r_coverage > hi then
      [ Printf.sprintf
          "prof check FAIL: phase attribution covers %.1f%% of %s (expected \
           %.0f%%..%.0f%%)"
          (100. *. r.r_coverage) denominator (100. *. lo) (100. *. hi) ]
    else []
  in
  if failures <> [] then Error failures
  else
    Ok
      (Printf.sprintf "prof check: OK (%.1f%% of %s attributed to phases)"
         (100. *. r.r_coverage) denominator)

(* ---------------------------------- top --------------------------------- *)

type top = { rules : (string * Proffile.section) list; total : int }

let top (p : Proffile.t) =
  let rules =
    List.sort
      (fun (_, (a : Proffile.section)) (_, (b : Proffile.section)) ->
        compare b.Proffile.ns a.Proffile.ns)
      p.Proffile.summary.Proffile.rules
  in
  { rules;
    total =
      List.fold_left
        (fun a (_, (sec : Proffile.section)) -> a + sec.Proffile.ns)
        0 rules }

let top_json { rules; total } = Json.Obj (List.map (section_json ~total) rules)

let top_text { rules; total } =
  let b = Buffer.create 512 in
  let pr fmt = line b fmt in
  if rules = [] then
    pr "no rule timers (profile recorded without an attached engine?)"
  else begin
    pr "rules by total apply time:";
    print_sections b ~total rules
  end;
  Buffer.contents b

(* -------------------------------- windows ------------------------------- *)

type windows = Proffile.window list

let windows (p : Proffile.t) = p.Proffile.windows

let windows_json windows =
  Json.List
    (List.map
       (fun (w : Proffile.window) ->
         Json.Obj
           [ ("index", Json.Int w.Proffile.index);
             ("at_step", Json.Int w.Proffile.at_step);
             ("steps", Json.Int w.Proffile.steps);
             ("moves", Json.Int w.Proffile.moves);
             ("wall_s", Json.Float w.Proffile.wall_s);
             ("steps_per_s", Json.Float w.Proffile.steps_per_s);
             ("moves_per_s", Json.Float w.Proffile.moves_per_s);
             ( "moves_per_rule",
               Json.Obj
                 (List.map
                    (fun (r, c) -> (r, Json.Int c))
                    w.Proffile.moves_per_rule) );
             ("gc_minor_words", Json.Int w.Proffile.gc_minor_words);
             ("gc_major_words", Json.Int w.Proffile.gc_major_words) ])
       windows)

let windows_text windows =
  let b = Buffer.create 1024 in
  let pr fmt = line b fmt in
  if windows = [] then
    pr "no window records — profile the run with --prof-window STEPS > 0"
  else begin
    pr "  %5s %9s %7s %7s %11s %11s %11s" "idx" "at_step" "steps" "moves"
      "steps/s" "moves/s" "gc minor w";
    List.iter
      (fun (w : Proffile.window) ->
        pr "  %5d %9d %7d %7d %11.0f %11.0f %11d" w.Proffile.index
          w.Proffile.at_step w.Proffile.steps w.Proffile.moves
          w.Proffile.steps_per_s w.Proffile.moves_per_s
          w.Proffile.gc_minor_words)
      windows
  end;
  Buffer.contents b
