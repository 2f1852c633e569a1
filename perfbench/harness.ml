(* Shared machinery of the benchmark program: the metric catalogue, the run
   context, closed-loop pass scheduling, per-operation accounting for the
   correctness oracle, spans for the traced run, and the result line. *)

module Prof = Ssreset_obs.Prof
module Json = Ssreset_obs.Json

let now () = float_of_int (Prof.now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> 0.
  | xs -> Ssreset_sim.Stats.percentile xs ~p:50.

(* ------------------------------- metrics -------------------------------- *)

(* Every metric the benchmark can print, with its unit.  BENCHMARK.json lists
   the same names; perfbench/METRICS.md maps each per-layer metric to the
   end-to-end metric it should move. *)
let end_to_end =
  [ ("setup_s", "s");
    ("run_s", "s");
    ("moves_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("peak_rss_mb", "MB");
    ("ok_frac", "frac") ]

let per_layer =
  [ ("graph.gen_s", "s");
    ("csr.build_s", "s");
    ("flat.compile_s", "s");
    ("flat.init_s", "s");
    ("flat.run_s", "s");
    ("flat.partitioned_s", "s");
    ("flat.scan_s", "s");
    ("flat.select_s", "s");
    ("flat.apply_s", "s");
    ("flat.refresh_s", "s");
    ("flat.evals_per_move", "ratio");
    ("flat.barrier_s", "s");
    ("flat.frontier_replays", "count");
    ("engine.bare_s", "s");
    ("engine.scan_s", "s");
    ("engine.select_s", "s");
    ("engine.refresh_s", "s");
    ("engine.stop_s", "s");
    ("runner.run_s", "s");
    ("runner.callbacks_s", "s");
    ("runner.callbacks_share", "frac");
    ("obs.sink_s", "s");
    ("obs.trace_overhead", "ratio");
    ("check.lint_s", "s");
    ("check.footprint_s", "s");
    ("check.sym_s", "s");
    ("check.model_s", "s");
    ("check.smt_s", "s");
    ("check.configs_per_s", "1/s");
    ("cli.wall_s", "s");
    ("cli.inproc_s", "s");
    ("trace.coverage", "frac");
    ("op.samples", "count");
    ("flat.steps", "count");
    ("flat.moves", "count");
    ("flat.rounds", "count");
    ("engine.steps", "count");
    ("engine.moves", "count");
    ("check.configs", "count");
    ("check.transitions", "count");
    ("check.obligations", "count") ]

(* -------------------------------- spans --------------------------------- *)

(* Spans recorded by the benchmark around its calls into the libraries: name,
   start and end (monotonic ns), parent span and operation id.  They stay
   in memory and are written out once, when the run ends.  Off by default:
   [with_span] is then a plain call. *)
module Spans = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** -1 for a root *)
    op : int;  (** operation id; -1 outside operations *)
    t0 : int;
    mutable t1 : int;
  }

  let on = ref false
  let closed : span list ref = ref []
  let stack : span list ref = ref []
  let next_id = ref 0
  let op_id = ref (-1)

  let with_span name f =
    if not !on then f ()
    else begin
      let parent = match !stack with s :: _ -> s.id | [] -> -1 in
      let s =
        { id = !next_id; name; parent; op = !op_id; t0 = Prof.now_ns (); t1 = 0 }
      in
      incr next_id;
      stack := s :: !stack;
      Fun.protect f ~finally:(fun () ->
          s.t1 <- Prof.now_ns ();
          stack := List.tl !stack;
          closed := s :: !closed)
    end

  let dur s = s.t1 - s.t0

  (* Self time = duration minus the part covered by direct children
     (children of one span never overlap: the benchmark is single-threaded). *)
  let self_times () =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (dur s + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
      !closed;
    List.map
      (fun s -> (s, dur s - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
      !closed

  (* Seconds of self time per span name, summed. *)
  let self_by_name () =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s, self) ->
        Hashtbl.replace tbl s.name
          (self + Option.value ~default:0 (Hashtbl.find_opt tbl s.name)))
      (self_times ());
    Hashtbl.fold (fun k v acc -> (k, float_of_int v *. 1e-9) :: acc) tbl []
    |> List.sort compare

  (* Total seconds of the spans named [name]. *)
  let total name =
    List.fold_left
      (fun acc s -> if String.equal s.name name then acc + dur s else acc)
      0 !closed
    |> fun ns -> float_of_int ns *. 1e-9

  (* Share of the root spans' wall time covered by the self time of the
     spans below them — how much of the traced passes the per-call spans
     account for. *)
  let coverage () =
    let roots, inner =
      List.partition (fun (s, _) -> s.parent < 0) (self_times ())
    in
    let sum l = List.fold_left (fun acc (_, self) -> acc + self) 0 l in
    let root_wall = List.fold_left (fun acc (s, _) -> acc + dur s) 0 roots in
    if root_wall = 0 then 0. else float_of_int (sum inner) /. float_of_int root_wall

  let write ~path ~profs =
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [ ("type", Json.String "span");
                  ("id", Json.Int s.id);
                  ("name", Json.String s.name);
                  ("parent", Json.Int s.parent);
                  ("op", Json.Int s.op);
                  ("start_ns", Json.Int s.t0);
                  ("end_ns", Json.Int s.t1) ]));
        output_char oc '\n')
      (List.rev !closed);
    List.iter
      (fun (label, p) ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [ ("type", Json.String "prof");
                  ("layer", Json.String label);
                  ("summary", Prof.summary_json p) ]));
        output_char oc '\n')
      profs;
    close_out oc
end

(* ------------------------------- context -------------------------------- *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;  (** path of the ssreset CLI executable *)
  out_dir : string;  (** run output: traces, the sink file, CLI output *)
  expected : (string * string) list;
      (** exact counts stored for this (workload, seed); empty when the
          seed has none *)
  mutable attempted : int;
  mutable failed : int;
  samples : (string, float list) Hashtbl.t;
      (** latencies of each timed unit of work (seconds), one per pass *)
  mutable pass_moves : int;  (** moves of the current pass's timed units *)
  counts : (string, string) Hashtbl.t;  (** first value seen per key *)
  metrics : (string, float) Hashtbl.t;
  mutable profs : (string * Prof.t) list;
  mutable setup_s : float;  (** median set-up time *)
}

let problem fmt = Printf.ksprintf (fun s -> Some s) fmt

(* The exact-count oracle: a simulated count must repeat bit-for-bit every
   time the same input runs, and must equal the stored value when the seed
   has one. *)
let count ctx key value =
  match Hashtbl.find_opt ctx.counts key with
  | Some first when not (String.equal first value) ->
      problem "%s drifted: %s, first run gave %s" key value first
  | Some _ -> None
  | None -> (
      Hashtbl.replace ctx.counts key value;
      match (ctx.expected, List.assoc_opt key ctx.expected) with
      | [], _ -> None
      | _, Some v when String.equal v value -> None
      | _, Some v -> problem "%s = %s, stored value is %s" key value v
      | _, None -> problem "%s = %s has no stored value" key value)

let report_failure ctx ~name problems =
  ctx.failed <- ctx.failed + 1;
  List.iter (Printf.eprintf "perfbench: FAIL %s: %s\n%!" name) problems

(* One operation of the closed loop: run [f] inside a span, check its
   output with [check] (a list of problems, empty when correct), and
   return its result and wall time.  An exception or any problem counts
   the operation as failed.  An operation with a [unit] is timed: [unit]
   names its input and path, which every pass runs again, and the unit's
   latency is the median of its runs. *)
let op ?unit ctx ~name f check =
  ctx.attempted <- ctx.attempted + 1;
  Spans.op_id := ctx.attempted;
  let t0 = now () in
  match Spans.with_span name f with
  | exception e ->
      report_failure ctx ~name [ Printexc.to_string e ];
      None
  | r ->
      let dt = now () -. t0 in
      Option.iter
        (fun u ->
          Hashtbl.replace ctx.samples u
            (dt :: Option.value ~default:[] (Hashtbl.find_opt ctx.samples u)))
        unit;
      (match List.filter_map Fun.id (check r) with
      | [] -> ()
      | problems -> report_failure ctx ~name problems);
      Some (r, dt)

let add_moves ctx m = ctx.pass_moves <- ctx.pass_moves + m

(* Closed loop with one client: pass [i+1] starts when pass [i] has ended.
   Passes run while the next one (estimated by the mean so far) still fits
   in [budget] seconds, and at least one runs.  Returns the number of
   passes. *)
let passes ~budget pass =
  let t0 = now () in
  let rec go i =
    let elapsed = now () -. t0 in
    let fits = i = 0 || elapsed +. (elapsed /. float_of_int i) <= budget in
    if not fits then i
    else begin
      pass ();
      go (i + 1)
    end
  in
  go 0

(* The workload's set-up: [f ()] builds its state [reps] times, from a
   freshly collected heap each time; records the median time and returns
   the last state built.  [reps] is a constant of the workload, never a
   function of measured time: the heap that the operations start from, and
   so the peak memory, must not depend on how fast the set-up ran. *)
let setup ctx ~reps f =
  let rec go i acc last =
    if i = reps then begin
      ctx.setup_s <- median acc;
      Option.get last
    end
    else begin
      Gc.full_major ();
      let r, dt = time f in
      go (i + 1) (dt :: acc) (Some r)
    end
  in
  go 0 [] None

let set ctx name v = Hashtbl.replace ctx.metrics name v

let new_prof ctx label =
  let p = Prof.create () in
  ctx.profs <- ctx.profs @ [ (label, p) ];
  p

let timer_s p name = float_of_int (Prof.timer_total_ns (Prof.timer p name)) *. 1e-9

let counter p name =
  Ssreset_obs.Metrics.counter_value
    (Ssreset_obs.Metrics.counter (Prof.metrics p) name)

(* Peak resident set size of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | exception End_of_file -> None
    | line ->
        if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:"
        then Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some kb)
        else find ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "VmHWM missing from /proc/self/status"

(* Spawn the CLI with [args]; returns its exit code, its standard output
   and the wall time of the whole process. *)
let spawn_cli ctx args =
  let out = Filename.concat ctx.out_dir "cli.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid =
    Unix.create_process ctx.cli (Array.of_list (ctx.cli :: args)) Unix.stdin fd
      Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let dt = now () -. t0 in
  Unix.close fd;
  let code = match status with Unix.WEXITED c -> c | _ -> 255 in
  let ic = open_in out in
  let text = Fun.protect ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic)) in
  (code, String.trim text, dt)

(* The timed units' latencies (the median of each unit's runs), and their
   sum: the time of one pass in which every unit ran at its typical
   speed.  A unit-wise median keeps a stretch of other load on the host,
   or of unusually idle neighbours, from moving the figure unless it covers
   most of a unit's runs. *)
let latencies ctx = Hashtbl.fold (fun _ v acc -> median v :: acc) ctx.samples []
let pass_time ctx = List.fold_left ( +. ) 0. (latencies ctx)

let finish_e2e ctx =
  let lat = List.map (fun s -> s *. 1e3) (latencies ctx) in
  let pct p = if lat = [] then Float.nan else Ssreset_sim.Stats.percentile lat ~p in
  set ctx "setup_s" ctx.setup_s;
  set ctx "run_s" (pass_time ctx);
  set ctx "moves_per_s" (float_of_int ctx.pass_moves /. pass_time ctx);
  set ctx "op_p50_ms" (pct 50.);
  set ctx "op_p90_ms" (pct 90.);
  Printf.eprintf "perfbench: %s: %d timed units (op_p50/op_p90 samples)\n%!" ctx.workload
    (List.length lat)

(* Runs the workload's passes for the run's budget; every pass runs every
   timed unit once, and [pass ()] adds the pass's moves with [add_moves].

   Untraced: [pass] only, giving the end-to-end metrics.  The number of
   passes is the budget over [pass_s], the time a pass takes on the
   2-core host the benchmark was sized on, and at least two: a fixed
   count, so that every unit has the same number of runs to take the
   median of, and the heap and peak memory follow the same allocations in
   every run.

   Traced: untraced passes for [plain_share] of the budget (the base of
   obs.trace_overhead), then [traced_pass] with spans on, each pass under
   one root span, for the rest; then [traced_metrics ~per_pass] turns span
   and profiler totals into per-pass figures. *)
let drive ctx ~pass_s ~plain_share ~pass ~traced_pass ~traced_metrics =
  let run pass () =
    ctx.pass_moves <- 0;
    pass ()
  in
  if not ctx.trace then begin
    for _ = 1 to max 2 (Float.to_int (Float.round (ctx.seconds /. pass_s))) do
      run pass ()
    done;
    finish_e2e ctx
  end
  else begin
    ignore (passes ~budget:(ctx.seconds *. plain_share) (run pass));
    set ctx "op.samples" (float_of_int (Hashtbl.length ctx.samples));
    let plain = pass_time ctx in
    Hashtbl.reset ctx.samples;
    Spans.on := true;
    let traced =
      passes ~budget:(ctx.seconds *. (1. -. plain_share))
        (run (fun () -> Spans.with_span "pass" traced_pass))
    in
    Spans.on := false;
    set ctx "obs.trace_overhead" (pass_time ctx /. plain);
    set ctx "trace.coverage" (Spans.coverage ());
    traced_metrics ~per_pass:(fun x -> x /. float_of_int traced)
  end

(* The last line of standard output: the metrics of this mode, every one of
   them, by name with its unit. *)
let print_result ctx =
  let names = if ctx.trace then per_layer else end_to_end in
  if not ctx.trace then begin
    set ctx "peak_rss_mb" (peak_rss_mb ());
    Printf.eprintf "perfbench: peak OCaml heap %.1f MB\n%!"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    set ctx "ok_frac"
      (float_of_int (ctx.attempted - ctx.failed) /. float_of_int (max 1 ctx.attempted))
  end;
  let metric (name, unit) =
    let value =
      match Hashtbl.find_opt ctx.metrics name with
      | Some v -> v
      | None when ctx.trace -> 0. (* a layer this workload bypasses *)
      | None -> failwith ("end-to-end metric not measured: " ^ name)
    in
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])
  in
  let metrics = List.map metric names in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (ctx.failed = 0 && ctx.attempted > 0));
            ("attempted", Json.Int ctx.attempted);
            ("failed", Json.Int ctx.failed);
            ("metrics", Json.Obj metrics) ]))
