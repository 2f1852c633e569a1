module Graph = Ssreset_graph.Graph
module Histogram = Ssreset_obs.Histogram
module Metrics = Ssreset_obs.Metrics
module Prof = Ssreset_obs.Prof

type outcome = Stabilized | Terminal | Step_limit

type scheduler = [ `Full | `Incremental ]

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

(* Enabled rule of every process, or None — the engine's hot path.  [run]
   maintains this table persistently (see [refresh_full] / [refresh_moved]);
   the standalone [enabled_table] builds it from scratch for the public
   one-shot [step]. *)
let enabled_table algo g cfg =
  Array.init (Graph.n g) (fun u ->
      Algorithm.enabled_rule algo (Algorithm.view g cfg u))

let refresh_full algo g cfg table =
  for u = 0 to Graph.n g - 1 do
    table.(u) <- Algorithm.enabled_rule algo (Algorithm.view g cfg u)
  done

(* Dirty-set refresh: a process's enabled rule depends only on its view (its
   own state plus its neighbors' states), and a step changes only the movers'
   states — so only the closed neighborhoods of the movers can change
   enabled status.  [stamp]/[gen] deduplicate processes shared by several
   movers' neighborhoods without any per-step allocation. *)
let refresh_moved algo g cfg table stamp gen moved =
  incr gen;
  let gen = !gen in
  let touch u =
    if stamp.(u) <> gen then begin
      stamp.(u) <- gen;
      table.(u) <- Algorithm.enabled_rule algo (Algorithm.view g cfg u)
    end
  in
  List.iter
    (fun (u, _rule) ->
      touch u;
      Array.iter touch (Graph.neighbors g u))
    moved

(* Sorted enabled list out of the table — an O(n) pointer scan, negligible
   next to guard evaluation. *)
let enabled_of_table table n =
  let acc = ref [] in
  for u = n - 1 downto 0 do
    if table.(u) <> None then acc := u :: !acc
  done;
  !acc

(* ----------------------------- profiling ------------------------------- *)

(* Pre-resolved instruments so the hot loop never looks anything up by
   name.  Phase attribution is lap-based: [mark] is the last phase
   boundary; closing a phase is one clock read, one histogram record and
   one mutation — the whole per-step overhead with profiling on is 5 + k
   clock reads for k movers, and exactly zero extra work with it off. *)
type prof_ctx = {
  p : Prof.t;
  scan : Prof.timer;  (* enabled-table scan + overlap check *)
  select : Prof.timer;  (* daemon selection *)
  apply : Prof.timer;  (* rule actions + in-place write-back *)
  refresh : Prof.timer;  (* full rescan or dirty-set refresh *)
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

let same_entry before after =
  match (before, after) with
  | None, None -> true
  | Some a, Some b -> String.equal a.Algorithm.rule_name b.Algorithm.rule_name
  | _ -> false

(* Instrumented twins of [refresh_full] / [refresh_moved]: same table
   writes in the same order (results stay bit-identical), plus the
   scheduler counters the profile reports. *)
let refresh_full_prof pc algo g cfg table =
  let n = Graph.n g in
  for u = 0 to n - 1 do
    let before = table.(u) in
    let after = Algorithm.enabled_rule algo (Algorithm.view g cfg u) in
    table.(u) <- after;
    if not (same_entry before after) then Metrics.incr pc.c_flips
  done;
  Metrics.add pc.c_evals n;
  Histogram.record pc.h_refresh n

let refresh_moved_prof pc algo g cfg table stamp gen moved =
  incr gen;
  let gen = !gen in
  let evals = ref 0 in
  let touch u =
    Metrics.incr pc.c_touched;
    if stamp.(u) <> gen then begin
      stamp.(u) <- gen;
      incr evals;
      let before = table.(u) in
      let after = Algorithm.enabled_rule algo (Algorithm.view g cfg u) in
      table.(u) <- after;
      if not (same_entry before after) then Metrics.incr pc.c_flips
    end
    else Metrics.incr pc.c_dedup
  in
  List.iter
    (fun (u, _rule) ->
      touch u;
      Array.iter touch (Graph.neighbors g u))
    moved;
  Metrics.add pc.c_evals !evals;
  Histogram.record pc.h_refresh !evals

let assert_exclusive algorithm graph cfg enabled =
  List.iter
    (fun u ->
      match Algorithm.exclusive_rules algorithm (Algorithm.view graph cfg u) with
      | [] | [ _ ] -> ()
      | names ->
          invalid_arg
            (Printf.sprintf "engine: overlapping rules at process %d: %s" u
               (String.concat ", " names)))
    enabled

(* Core of one atomic step, given the current enabled-rule [table] (which
   must describe [cfg]).  The step is applied to [cfg] in place: every
   activated process's new state is first computed from the pre-step [cfg]
   into [scratch], and only then written back — so all movers read the same
   configuration (composite atomicity) and no step copies the array.
   Returns the activated (process, rule-name) pairs, or [None] when
   terminal. *)
let step_with_table ~prof ~rng ~check_overlap ~on_enabled ~algorithm ~graph
    ~daemon ~step_index ~table ~scratch cfg =
  match enabled_of_table table (Graph.n graph) with
  | [] -> None
  | enabled ->
      if check_overlap then assert_exclusive algorithm graph cfg enabled;
      (match on_enabled with Some f -> f enabled | None -> ());
      (match prof with Some pc -> lap pc pc.scan | None -> ());
      let ctx =
        {
          Daemon.step = step_index;
          graph;
          enabled;
          rule_name =
            (fun u ->
              match table.(u) with
              | Some r -> r.Algorithm.rule_name
              | None -> invalid_arg "rule_name: disabled process");
        }
      in
      let chosen = daemon.Daemon.select rng ctx in
      Daemon.check_selection ctx chosen;
      (match prof with Some pc -> lap pc pc.select | None -> ());
      let fire u =
        match table.(u) with
        | Some r ->
            scratch.(u) <- r.Algorithm.action (Algorithm.view graph cfg u);
            r.Algorithm.rule_name
        | None -> assert false
      in
      let commit () = List.iter (fun u -> cfg.(u) <- scratch.(u)) chosen in
      let moved =
        match prof with
        | None ->
            let moved = List.map (fun u -> (u, fire u)) chosen in
            commit ();
            moved
        | Some pc ->
            (* Per-rule attribution without extra clock reads: movers chain
               laps, so their spans tile the apply phase exactly (the last
               mover's span absorbs the write-back).  The phase total is
               derived from the chain, not measured again. *)
            let apply_start = pc.mark in
            let[@tail_mod_cons] rec go = function
              | [] -> []
              | u :: rest ->
                  let name = fire u in
                  (match rest with [] -> commit () | _ :: _ -> ());
                  lap pc (rule_timer pc name);
                  Metrics.incr (rule_counter pc name);
                  (u, name) :: go rest
            in
            let moved = go chosen in
            Prof.record_span pc.apply (pc.mark - apply_start);
            moved
      in
      Some moved

(* Each rng-less call gets a fresh state derived from [seed] (default 0):
   a module-level shared state would make interleaved engine runs depend on
   call order, which is exactly what reproducible traces cannot afford. *)
let step ?rng ?(seed = 0) ?(check_overlap = false) ?on_enabled ~algorithm
    ~graph ~daemon ~step_index cfg =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| seed |]
  in
  let table = enabled_table algorithm graph cfg in
  let next = Array.copy cfg in
  step_with_table ~prof:None ~rng ~check_overlap ~on_enabled ~algorithm ~graph
    ~daemon ~step_index ~table ~scratch:(Array.copy cfg) next
  |> Option.map (fun moved -> (next, moved))

let run ?rng ?(seed = 0) ?(max_steps = 10_000_000) ?(check_overlap = false)
    ?(scheduler = `Incremental) ?prof ?observer ?on_step ?on_round
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
  (* The enabled-rule table always describes the *current* configuration:
     full scan at start, then either a full rescan per step (`Full) or a
     dirty-set refresh of the movers' closed neighborhoods (`Incremental).
     Both paths maintain the same table contents, so every consumer below
     (selection, neutralization, round refill) is scheduler-agnostic and the
     two schedulers are bit-identical by construction. *)
  let table = enabled_table algorithm graph cfg in
  let stamp = Array.make n 0 in
  let gen = ref 0 in
  (* Round accounting (§2.4): [pending] holds the processes enabled at the
     start of the current round that have neither executed a rule nor been
     neutralized yet.  When it empties, a round is complete. *)
  let pending = Hashtbl.create n in
  let completed_rounds = ref 0 in
  let steps_in_round = ref 0 in
  let refill_pending () =
    Hashtbl.reset pending;
    for u = 0 to n - 1 do
      if table.(u) <> None then Hashtbl.replace pending u ()
    done
  in
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
       let enabled_count = ref 0 in
       let on_enabled =
         match on_step with
         | None -> None
         | Some _ -> Some (fun l -> enabled_count := List.length l)
       in
       match
         step_with_table ~prof:prof_ctx ~rng ~check_overlap ~on_enabled
           ~algorithm ~graph ~daemon ~step_index:!steps ~table ~scratch cfg
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
               Hashtbl.remove pending u)
             moved;
           (match (scheduler, prof_ctx) with
           | `Full, None -> refresh_full algorithm graph cfg table
           | `Full, Some pc -> refresh_full_prof pc algorithm graph cfg table
           | `Incremental, None ->
               refresh_moved algorithm graph cfg table stamp gen moved
           | `Incremental, Some pc ->
               refresh_moved_prof pc algorithm graph cfg table stamp gen moved);
           (match prof_ctx with Some pc -> lap pc pc.refresh | None -> ());
           (* Neutralization: pending processes that were enabled before the
              step (by definition of pending) and are disabled after it.
              Only the movers' closed neighborhoods can change enabled
              status — the same invariant the incremental scheduler rests
              on — so only they need checking: O(movers·Δ), not O(n), and
              valid under either scheduler. *)
           let neutralize u =
             if table.(u) = None then Hashtbl.remove pending u
           in
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
               f ~step:(!steps - 1) ~enabled:!enabled_count
                 ~selected:(List.length moved)
           | None -> ());
           (* Round completion is reported after the observer so that any
              probes accumulated by the observer are up to date when the
              [on_round] snapshot fires. *)
           if Hashtbl.length pending = 0 then begin
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
