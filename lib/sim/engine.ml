module Graph = Ssreset_graph.Graph
module Histogram = Ssreset_obs.Histogram
module Metrics = Ssreset_obs.Metrics
module Prof = Ssreset_obs.Prof

type outcome = Stabilized | Terminal | Step_limit

type 'state result = {
  outcome : outcome;
  final : 'state array;
  steps : int;
  moves : int;
  moves_per_process : int array;
  moves_per_rule : (string * int) list;
  rounds : int;
  wall_s : float;
}

(* The engine's enabled set, kept three ways at once: [table] holds every
   process's enabled rule (what a mover fires), [enabled]/[count] the same
   set as a bitset plus its size (what {!Daemon.select} reads), so no step
   materializes a list of the enabled processes.  [cursor] is the run's
   round-robin position, starting at 0; [chosen] buffers the selection.
   [touched]/[evals]/[flips] are the refresh's exact running counts, kept
   whether or not a profiler reads them. *)
type 'state sched = {
  table : 'state Algorithm.rule option array;
  enabled : Bits.t;
  mutable count : int;
  cursor : int ref;
  chosen : int array;
  mutable n_chosen : int;
  rule_name : int -> string;
  for_all_neighbors : int -> (int -> bool) -> bool;
  mutable touched : int;  (* dirty-set touch attempts *)
  mutable evals : int;  (* guard re-evaluations actually done *)
  mutable flips : int;  (* table entries whose rule changed *)
}

let set_entry s u r =
  s.table.(u) <- r;
  match r with
  | Some _ -> if Bits.add s.enabled u then s.count <- s.count + 1
  | None -> if Bits.remove s.enabled u then s.count <- s.count - 1

(* Full scan of the initial configuration — the only O(n) guard work of a
   run (and all of a one-shot [step]). *)
let make_sched algo g cfg =
  let n = Graph.n g in
  let table = Array.make n None in
  let s =
    {
      table;
      enabled = Bits.create n;
      count = 0;
      cursor = ref 0;
      chosen = Array.make n 0;
      n_chosen = 0;
      rule_name =
        (fun u ->
          match table.(u) with
          | Some r -> r.Algorithm.rule_name
          | None -> invalid_arg "rule_name: disabled process");
      for_all_neighbors = (fun u f -> Graph.for_all_neighbors g u ~f);
      touched = 0;
      evals = 0;
      flips = 0;
    }
  in
  for u = 0 to n - 1 do
    set_entry s u (Algorithm.enabled_rule algo (Algorithm.view g cfg u))
  done;
  s

let same_entry before after =
  match (before, after) with
  | None, None -> true
  | Some a, Some b -> String.equal a.Algorithm.rule_name b.Algorithm.rule_name
  | _ -> false

(* Dirty-set refresh: a process's enabled rule depends only on its view (its
   own state plus its neighbors' states), and a step changes only the movers'
   states — so only the closed neighborhoods of the movers can change
   enabled status.  [stamp]/[gen] deduplicate processes shared by several
   movers' neighborhoods without any per-step allocation; a touch the stamp
   skips is a dedup hit, so [touched - evals] counts them. *)
let refresh_moved algo g cfg s stamp gen moved =
  incr gen;
  let gen = !gen in
  let touch u =
    s.touched <- s.touched + 1;
    if stamp.(u) <> gen then begin
      stamp.(u) <- gen;
      s.evals <- s.evals + 1;
      let after = Algorithm.enabled_rule algo (Algorithm.view g cfg u) in
      if not (same_entry s.table.(u) after) then s.flips <- s.flips + 1;
      set_entry s u after
    end
  in
  List.iter
    (fun (u, _rule) ->
      touch u;
      Array.iter touch (Graph.neighbors g u))
    moved

(* ----------------------------- profiling ------------------------------- *)

(* Pre-resolved instruments so the hot loop never looks anything up by
   name.  Phase attribution is lap-based: [mark] is the last phase
   boundary; closing a phase is one clock read, one histogram record and
   one mutation — the whole per-step overhead with profiling on is 5 + k
   clock reads for k movers plus one publish of the step's scheduler
   counts, which the refresh keeps whether or not a profiler is attached. *)
type prof_ctx = {
  p : Prof.t;
  scan : Prof.timer;  (* initial table build + overlap check *)
  select : Prof.timer;  (* daemon selection *)
  apply : Prof.timer;  (* rule actions + in-place write-back *)
  refresh : Prof.timer;  (* dirty-set refresh *)
  neutralize : Prof.timer;  (* round-accounting neutralization *)
  callbacks : Prof.timer;  (* observer / on_step / on_round / windows *)
  stop_check : Prof.timer;  (* the [stop] predicate *)
  rule_timers : (string, Prof.timer) Hashtbl.t;
  rule_moves : (string, Metrics.counter) Hashtbl.t;
  c_touched : Metrics.counter;  (* dirty-set touch attempts *)
  c_evals : Metrics.counter;  (* guard re-evaluations actually done *)
  c_dedup : Metrics.counter;  (* touches skipped by the stamp (hit rate) *)
  c_flips : Metrics.counter;  (* enabled-table churn: entries that changed *)
  h_refresh : Histogram.t;  (* per-step refresh size (evals) *)
  mutable mark : int;
}

let make_prof_ctx p =
  let m = Prof.metrics p in
  (* Bind every instrument before the record literal: record fields
     evaluate right-to-left, and registration order is what the profile
     summary (and `ssreset prof report`) displays — it must follow the
     pipeline. *)
  let scan = Prof.timer p "phase.scan" in
  let select = Prof.timer p "phase.select" in
  let apply = Prof.timer p "phase.apply" in
  let refresh = Prof.timer p "phase.refresh" in
  let neutralize = Prof.timer p "phase.neutralize" in
  let callbacks = Prof.timer p "phase.callbacks" in
  let stop_check = Prof.timer p "phase.stop" in
  let c_touched = Metrics.counter m "sched.touched" in
  let c_evals = Metrics.counter m "sched.evals" in
  let c_dedup = Metrics.counter m "sched.dedup_hits" in
  let c_flips = Metrics.counter m "sched.table_flips" in
  let h_refresh = Prof.histogram p "sched.refresh_size" in
  {
    p;
    scan;
    select;
    apply;
    refresh;
    neutralize;
    callbacks;
    stop_check;
    rule_timers = Hashtbl.create 8;
    rule_moves = Hashtbl.create 8;
    c_touched;
    c_evals;
    c_dedup;
    c_flips;
    h_refresh;
    mark = Prof.now_ns ();
  }

let lap pc tm =
  let now = Prof.now_ns () in
  Prof.record_span tm (now - pc.mark);
  pc.mark <- now

let rule_timer pc name =
  try Hashtbl.find pc.rule_timers name
  with Not_found ->
    let tm = Prof.timer pc.p ("rule." ^ name) in
    Hashtbl.replace pc.rule_timers name tm;
    tm

let rule_counter pc name =
  try Hashtbl.find pc.rule_moves name
  with Not_found ->
    let c = Metrics.counter (Prof.metrics pc.p) ("moves." ^ name) in
    Hashtbl.replace pc.rule_moves name c;
    c

(* Publish one step's refresh into the profile: the counters get the
   step's deltas (so window records carry them), the histogram its evals. *)
let publish_refresh pc s ~touched0 ~evals0 ~flips0 =
  let touched = s.touched - touched0 and evals = s.evals - evals0 in
  Metrics.add pc.c_touched touched;
  Metrics.add pc.c_evals evals;
  Metrics.add pc.c_dedup (touched - evals);
  Metrics.add pc.c_flips (s.flips - flips0);
  Histogram.record pc.h_refresh evals

let assert_exclusive algorithm graph cfg enabled =
  Bits.iter enabled (fun u ->
      match Algorithm.exclusive_rules algorithm (Algorithm.view graph cfg u) with
      | [] | [ _ ] -> ()
      | names ->
          invalid_arg
            (Printf.sprintf "engine: overlapping rules at process %d: %s" u
               (String.concat ", " names)))

(* Core of one atomic step, given the scheduler state [s] (which must
   describe [cfg]).  The step is applied to [cfg] in place: every
   activated process's new state is first computed from the pre-step [cfg]
   into [scratch], and only then written back — so all movers read the same
   configuration (composite atomicity) and no step copies the array.
   The selection is checked as it is pushed — nonempty, every process
   enabled — in O(movers).  Returns the activated (process, rule-name)
   pairs in ascending process order, or [None] when terminal. *)
let step_with_sched ~prof ~rng ~check_overlap ~algorithm ~graph ~daemon
    ~step_index ~s ~scratch cfg =
  if s.count = 0 then None
  else begin
    if check_overlap then assert_exclusive algorithm graph cfg s.enabled;
    (match prof with Some pc -> lap pc pc.scan | None -> ());
    s.n_chosen <- 0;
    Daemon.select daemon rng ~cursor:s.cursor ~enabled:s.enabled
      ~count:s.count ~rule_name:s.rule_name
      ~for_all_neighbors:s.for_all_neighbors (fun u ->
        if not (Bits.mem s.enabled u) then
          invalid_arg
            (Printf.sprintf "daemon selected disabled process %d at step %d" u
               step_index);
        s.chosen.(s.n_chosen) <- u;
        s.n_chosen <- s.n_chosen + 1);
    if s.n_chosen = 0 then invalid_arg "daemon selected an empty set";
    (match prof with Some pc -> lap pc pc.select | None -> ());
    let fire u =
      match s.table.(u) with
      | Some r ->
          scratch.(u) <- r.Algorithm.action (Algorithm.view graph cfg u);
          r.Algorithm.rule_name
      | None -> assert false
    in
    (* Per-rule attribution without extra clock reads: movers chain laps,
       so their spans tile the apply phase exactly (the last mover's span
       absorbs the write-back).  The phase total is derived from the chain,
       not measured again. *)
    let apply_start = match prof with Some pc -> pc.mark | None -> 0 in
    let[@tail_mod_cons] rec go k =
      if k = s.n_chosen then []
      else
        let u = s.chosen.(k) in
        let name = fire u in
        if k = s.n_chosen - 1 then
          for j = 0 to k do
            let v = s.chosen.(j) in
            cfg.(v) <- scratch.(v)
          done;
        (match prof with
        | Some pc ->
            lap pc (rule_timer pc name);
            Metrics.incr (rule_counter pc name)
        | None -> ());
        (u, name) :: go (k + 1)
    in
    let moved = go 0 in
    (match prof with
    | Some pc -> Prof.record_span pc.apply (pc.mark - apply_start)
    | None -> ());
    Some moved
  end

(* Each rng-less call gets a fresh state derived from [seed] (default 0):
   a module-level shared state would make interleaved engine runs depend on
   call order, which is exactly what reproducible traces cannot afford. *)
let step ?rng ?(seed = 0) ?(check_overlap = false) ~algorithm ~graph ~daemon
    ~step_index cfg =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| seed |]
  in
  let next = Array.copy cfg in
  step_with_sched ~prof:None ~rng ~check_overlap ~algorithm ~graph ~daemon
    ~step_index ~s:(make_sched algorithm graph cfg) ~scratch:(Array.copy cfg)
    next
  |> Option.map (fun moved -> (next, moved))

let run ?rng ?(seed = 0) ?(max_steps = 10_000_000)
    ?(check_overlap = false) ?prof ?observer ?on_step ?on_round
    ?(stop = fun _ -> false) ~algorithm ~graph ~daemon cfg0 =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| seed |]
  in
  let t0 = Unix.gettimeofday () in
  let prof_ctx =
    Option.map
      (fun p ->
        Prof.gc_mark p;
        make_prof_ctx p)
      prof
  in
  let n = Graph.n graph in
  (* The run's one copy of the configuration, stepped in place; [scratch]
     holds the movers' new states between computing and writing them. *)
  let cfg = Array.copy cfg0 in
  let scratch = Array.copy cfg0 in
  let moves_per_process = Array.make n 0 in
  let moves_per_rule = Hashtbl.create 8 in
  let bump_rule name =
    Hashtbl.replace moves_per_rule name
      (1 + Option.value ~default:0 (Hashtbl.find_opt moves_per_rule name))
  in
  (* The scheduler state always describes the *current* configuration:
     full scan at start, then a dirty-set refresh of the movers' closed
     neighborhoods after every step. *)
  let s = make_sched algorithm graph cfg in
  let stamp = Array.make n 0 in
  let gen = ref 0 in
  (* Round accounting (§2.4): the pending set holds the processes enabled
     at the start of the current round that have neither executed a rule
     nor been neutralized yet — a process is pending iff its [pend_stamp]
     equals [pend_gen], and [pend_count] counts them.  When it empties, a
     round is complete; the refill walks the enabled bitset, never all n. *)
  let pend_stamp = Array.make n 0 in
  let pend_gen = ref 0 in
  let pend_count = ref 0 in
  let refill_pending () =
    incr pend_gen;
    let g = !pend_gen in
    pend_count := s.count;
    Bits.iter s.enabled (fun u -> pend_stamp.(u) <- g)
  in
  let unpend u =
    if pend_stamp.(u) = !pend_gen then begin
      pend_stamp.(u) <- 0;
      decr pend_count
    end
  in
  let completed_rounds = ref 0 in
  let steps_in_round = ref 0 in
  refill_pending ();
  (* The initial full table build (and everything since [run] began) is
     guard-scan work: close the first lap into the scan phase. *)
  (match prof_ctx with Some pc -> lap pc pc.scan | None -> ());
  let total_moves = ref 0 in
  let steps = ref 0 in
  let outcome = ref Step_limit in
  (try
     let stopped = stop cfg in
     (match prof_ctx with Some pc -> lap pc pc.stop_check | None -> ());
     if stopped then begin
       outcome := Stabilized;
       raise Exit
     end;
     while !steps < max_steps do
       let enabled_count = s.count in
       match
         step_with_sched ~prof:prof_ctx ~rng ~check_overlap ~algorithm ~graph
           ~daemon ~step_index:!steps ~s ~scratch cfg
       with
       | None ->
           outcome := Terminal;
           raise Exit
       | Some moved ->
           incr steps;
           incr steps_in_round;
           List.iter
             (fun (u, name) ->
               incr total_moves;
               moves_per_process.(u) <- moves_per_process.(u) + 1;
               bump_rule name;
               unpend u)
             moved;
           let touched0 = s.touched and evals0 = s.evals and flips0 = s.flips in
           refresh_moved algorithm graph cfg s stamp gen moved;
           (match prof_ctx with
           | Some pc ->
               publish_refresh pc s ~touched0 ~evals0 ~flips0;
               lap pc pc.refresh
           | None -> ());
           (* Neutralization: pending processes that were enabled before the
              step (by definition of pending) and are disabled after it.
              Only the movers' closed neighborhoods can change enabled
              status — the same invariant the dirty-set refresh rests on —
              so only they need checking: O(movers·Δ), not O(n). *)
           let neutralize u = if s.table.(u) = None then unpend u in
           List.iter
             (fun (u, _) ->
               neutralize u;
               Array.iter neutralize (Graph.neighbors graph u))
             moved;
           (match prof_ctx with Some pc -> lap pc pc.neutralize | None -> ());
           (match observer with
           | Some f -> f ~step:(!steps - 1) ~moved cfg
           | None -> ());
           (match on_step with
           | Some f ->
               f ~step:(!steps - 1) ~enabled:enabled_count
                 ~selected:(List.length moved)
           | None -> ());
           (* Round completion is reported after the observer so that any
              probes accumulated by the observer are up to date when the
              [on_round] snapshot fires. *)
           if !pend_count = 0 then begin
             incr completed_rounds;
             steps_in_round := 0;
             (match on_round with
             | Some f ->
                 f ~round:!completed_rounds ~steps:!steps ~moves:!total_moves
                   cfg
             | None -> ());
             refill_pending ()
           end;
           (match prof_ctx with
           | Some pc ->
               Prof.tick pc.p ~moves:(List.length moved);
               lap pc pc.callbacks
           | None -> ());
           let stopped = stop cfg in
           (match prof_ctx with Some pc -> lap pc pc.stop_check | None -> ());
           if stopped then begin
             outcome := Stabilized;
             raise Exit
           end
     done
   with Exit -> ());
  let rounds = !completed_rounds + if !steps_in_round > 0 then 1 else 0 in
  let moves_per_rule =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) moves_per_rule []
    |> List.sort compare
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  (match prof_ctx with
  | Some pc ->
      Prof.gc_collect pc.p;
      let m = Prof.metrics pc.p in
      (* Accumulates across runs sharing one profiler, like every other
         instrument — the summary's wall_s is the total profiled time. *)
      let g = Metrics.gauge m "engine.wall_s" in
      Metrics.set g (Metrics.gauge_value g +. wall_s)
  | None -> ());
  {
    outcome = !outcome;
    final = cfg;
    steps = !steps;
    moves = !total_moves;
    moves_per_process;
    moves_per_rule;
    rounds;
    wall_s;
  }

let moves_of_rules per_rule ~prefixes =
  let matches name =
    List.exists
      (fun p ->
        String.length name >= String.length p
        && String.equal (String.sub name 0 (String.length p)) p)
      prefixes
  in
  List.fold_left
    (fun acc (name, c) -> if matches name then acc + c else acc)
    0 per_rule
