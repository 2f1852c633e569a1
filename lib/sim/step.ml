module Csr = Ssreset_graph.Csr
module Histogram = Ssreset_obs.Histogram
module Metrics = Ssreset_obs.Metrics
module Monitor = Ssreset_obs.Monitor
module Prof = Ssreset_obs.Prof

type outcome = Stabilized | Terminal | Step_limit

(* ----------------------------- profiling ------------------------------- *)

(* Pre-resolved instruments so the hot loop never looks anything up by
   name: phase timers, rule timers, move counters and scheduler counters
   are dense arrays.  Phase attribution is lap-based: [mark] is the last
   phase boundary; closing a phase is one clock read, one histogram record
   and one mutation, so consecutive laps tile the loop. *)
type prof_ctx = {
  p : Prof.t;
  phase : Prof.timer array;  (* indexed by the [ph_*] constants *)
  rule_timers : Prof.timer array;
  rule_counters : Metrics.counter array;
  sched : Metrics.counter array;  (* touched, evals, dedup_hits, flips *)
  h_refresh : Histogram.t;  (* per-step refresh size (evals) *)
  mutable mark : int;
}

(* Registration order is what the profile summary displays: it follows
   the pipeline.  Selecting includes staging the movers' posts; apply is
   the commit (derived from the rule-span chain); refresh has
   neutralization fused in; stop also covers heartbeats and trips. *)
let phases = [| "scan"; "select"; "apply"; "refresh"; "callbacks"; "stop" |]
let ph_scan = 0 and ph_select = 1 and ph_apply = 2 and ph_refresh = 3
let ph_callbacks = 4 and ph_stop = 5

let make_prof_ctx p rules =
  let m = Prof.metrics p in
  let phase = Array.map (fun ph -> Prof.timer p ("phase." ^ ph)) phases in
  let rule_timers = Array.map (fun r -> Prof.timer p ("rule." ^ r)) rules in
  let rule_counters =
    Array.map (fun r -> Metrics.counter m ("moves." ^ r)) rules
  in
  let sched =
    Array.map
      (fun c -> Metrics.counter m ("sched." ^ c))
      [| "touched"; "evals"; "dedup_hits"; "table_flips" |]
  in
  let h_refresh = Prof.histogram p "sched.refresh_size" in
  { p; phase; rule_timers; rule_counters; sched; h_refresh;
    mark = Prof.now_ns () }

let lap pc tm =
  let now = Prof.now_ns () in
  Prof.record_span tm (now - pc.mark);
  pc.mark <- now

let finish_prof p wall_s =
  Prof.gc_collect p;
  (* Accumulates across runs sharing one profiler, like every other
     instrument — the summary's wall_s is the total profiled time. *)
  let g = Metrics.gauge (Prof.metrics p) "engine.wall_s" in
  Metrics.set g (Metrics.gauge_value g +. wall_s)

(* ------------------------ heartbeat and monitors ----------------------- *)

type beat = {
  hb_steps : int;
  hb_moves : int;
  hb_enabled : int;
  hb_legit : int;
  hb_availability : float;
  hb_moves_per_s : float;
}

let check_heartbeat = function
  | Some (every, _) when every <= 0 ->
      invalid_arg
        (Printf.sprintf "heartbeat interval must be positive (got %d)" every)
  | _ -> ()

let beat last ~steps ~moves ~enabled ~legit ~legit_steps =
  let now = Unix.gettimeofday () in
  let t, m = !last in
  last := (now, moves);
  {
    hb_steps = steps;
    hb_moves = moves;
    hb_enabled = enabled;
    hb_legit = legit;
    hb_availability =
      (match legit_steps with
      | Some k when steps > 0 -> float_of_int k /. float_of_int steps
      | _ -> -1.);
    hb_moves_per_s =
      (if now -. t > 0. then float_of_int (moves - m) /. (now -. t) else 0.);
  }

let trip monitor name bound ~steps ~value =
  match (monitor, bound) with
  | Some m, Some bound when value > bound ->
      Monitor.trip m ~monitor:name ~step:steps ~value ~bound ()
  | _ -> ()

let rule_list names counts =
  let acc = ref [] in
  for r = Array.length counts - 1 downto 0 do
    if counts.(r) > 0 then acc := (names.(r), counts.(r)) :: !acc
  done;
  List.sort compare !acc

(* ------------------------------ the core ------------------------------- *)

type hooks = {
  after_step : (unit -> unit) option;
  on_round : (unit -> unit) option;
  stop : (unit -> bool) option;
  illegit : (unit -> int) option;
  monitor : Monitor.t option;
  rounds_bound : int option;
  moves_bound : int option;
  heartbeat : (int * (beat -> unit)) option;
}

let no_hooks =
  {
    after_step = None;
    on_round = None;
    stop = None;
    illegit = None;
    monitor = None;
    rounds_bound = None;
    moves_bound = None;
    heartbeat = None;
  }

(* The enabled set is kept three ways at once: [rule_of] holds every
   process's first enabled rule (-1 = disabled), [enabled]/[count] the same
   set as a bitset plus its size — what {!Daemon.select} reads.  [mu]/[mr]
   are the last step's movers and their rules (growable, reset every
   step).  [touched]/[evals]/[flips] are the refresh's exact running
   counts, kept whether or not a profiler reads them. *)
type t = {
  offsets : int array;
  nbrs : int array;
  rules : string array;
  eval : int -> int;
  commit : int -> int -> unit;
  rule_of : int array;
  enabled : Bits.t;
  mutable count : int;
  mutable pre_count : int;  (* [count] before the last step *)
  mutable select : unit -> unit;  (* one {!Daemon.select}, closures bound *)
  mutable mu : int array;
  mutable mr : int array;
  mutable len : int;
  mutable index : int;  (* the step being selected, for error messages *)
  stamp : int array;
  mutable gen : int;
  (* Round accounting (§2.4): a process is pending — enabled at the start
     of the current round, neither moved nor neutralized since — iff its
     [pend_stamp] equals [pend_gen]; [pend_count] counts them.  The refill
     walks the enabled bitset, never all n. *)
  pend_stamp : int array;
  mutable pend_gen : int;
  mutable pend_count : int;
  mutable touched : int;
  mutable evals : int;
  mutable flips : int;
  mutable steps : int;
  mutable moves : int;
  moves_per_process : int array;
  rule_moves : int array;
  mutable rounds_done : int;
  mutable steps_in_round : int;
  prof : prof_ctx option;
  t0 : float;
  mutable wall_s : float;
}

let lap_phase t ph =
  match t.prof with Some pc -> lap pc pc.phase.(ph) | None -> ()

let refill_pending t =
  t.pend_gen <- t.pend_gen + 1;
  let g = t.pend_gen in
  t.pend_count <- t.count;
  Bits.iter t.enabled (fun u -> t.pend_stamp.(u) <- g)

let unpend t u =
  if t.pend_stamp.(u) = t.pend_gen then begin
    t.pend_stamp.(u) <- 0;
    t.pend_count <- t.pend_count - 1
  end

(* Record [u]'s enabled rule [r].  A process that is disabled is no
   longer pending: the §2.4 neutralization, fused into the refresh (a
   pending process was enabled before the step by definition). *)
let set_entry t u r =
  t.rule_of.(u) <- r;
  if r >= 0 then begin
    if Bits.add t.enabled u then t.count <- t.count + 1
  end
  else begin
    if Bits.remove t.enabled u then t.count <- t.count - 1;
    unpend t u
  end

(* Stage a pushed mover as the daemon selects it: every post is computed
   from the pre-step configuration, since nothing commits before the
   selection is complete (composite atomicity). *)
let push t stage u =
  if not (Bits.mem t.enabled u) then
    invalid_arg
      (Printf.sprintf "daemon selected disabled process %d at step %d" u
         t.index);
  if t.len = Array.length t.mu then begin
    let grow a =
      let b = Array.make (2 * t.len) 0 in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.mu <- grow t.mu;
    t.mr <- grow t.mr
  end;
  let k = t.len and r = t.rule_of.(u) in
  t.mu.(k) <- u;
  t.mr.(k) <- r;
  t.len <- k + 1;
  stage k u r

let create ~prof ~daemon ~rng ~(csr : Csr.t) ~rules ~eval ~stage ~commit =
  let prof =
    Option.map
      (fun p ->
        Prof.gc_mark p;
        make_prof_ctx p rules)
      prof
  in
  let n = Csr.n csr in
  (* The synchronous daemon moves every enabled process, so its mover
     buffers start at full size instead of doubling up to it. *)
  let cap = match daemon with Daemon.Synchronous -> max 256 n | _ -> 256 in
  let t =
    {
      offsets = csr.Csr.offsets;
      nbrs = csr.Csr.nbrs;
      rules;
      eval;
      commit;
      rule_of = Array.make n (-1);
      enabled = Bits.create n;
      count = 0;
      pre_count = 0;
      select = ignore;
      mu = Array.make cap 0;
      mr = Array.make cap 0;
      len = 0;
      index = 0;
      stamp = Array.make n 0;
      gen = 0;
      pend_stamp = Array.make n 0;
      pend_gen = 0;
      pend_count = 0;
      touched = 0;
      evals = 0;
      flips = 0;
      steps = 0;
      moves = 0;
      moves_per_process = Array.make n 0;
      rule_moves = Array.make (Array.length rules) 0;
      rounds_done = 0;
      steps_in_round = 0;
      prof;
      (* The run's clock starts where the first lap starts: after the
         instruments are registered. *)
      t0 = Unix.gettimeofday ();
      wall_s = 0.;
    }
  in
  (* Bound once per run, so selecting allocates nothing per step.  The
     round-robin cursor starts at 0 in every run. *)
  let cursor = ref 0 in
  let rule_name u = rules.(t.rule_of.(u)) in
  let for_all_neighbors u f =
    let free = ref true and i = ref t.offsets.(u) in
    while !free && !i < t.offsets.(u + 1) do
      free := f t.nbrs.(!i);
      incr i
    done;
    !free
  in
  let push u = push t stage u in
  t.select <-
    (fun () ->
      Daemon.select daemon rng ~cursor ~enabled:t.enabled ~count:t.count
        ~rule_name ~for_all_neighbors push);
  (* The full scan of the initial configuration — the only O(n) guard
     work of a run. *)
  for u = 0 to n - 1 do
    set_entry t u (eval u)
  done;
  refill_pending t;
  t

let count t = t.count
let pre_count t = t.pre_count
let steps t = t.steps
let moves t = t.moves
let selected t = t.len
let rounds_done t = t.rounds_done
let rounds t = t.rounds_done + if t.steps_in_round > 0 then 1 else 0
let moves_per_process t = t.moves_per_process
let moves_per_rule t = rule_list t.rules t.rule_moves
let wall_s t = t.wall_s

let moved t =
  List.init t.len (fun k -> (t.mu.(k), t.rules.(t.mr.(k))))

(* Dirty-set refresh: a process's enabled rule depends only on its view,
   and a step changes only the movers' states — so only the closed
   neighborhoods of the movers can change enabled status.  [stamp]/[gen]
   deduplicate processes shared by several neighborhoods; a touch the
   stamp skips is a dedup hit, so [touched - evals] counts them. *)
let touch t g v =
  t.touched <- t.touched + 1;
  if t.stamp.(v) <> g then begin
    t.stamp.(v) <- g;
    t.evals <- t.evals + 1;
    let r = t.eval v in
    if r <> t.rule_of.(v) then t.flips <- t.flips + 1;
    set_entry t v r
  end

let step t ~index =
  t.index <- index;
  t.pre_count <- t.count;
  t.len <- 0;
  t.select ();
  if t.len = 0 then invalid_arg "daemon selected an empty set";
  lap_phase t ph_select;
  (* Per-rule attribution without extra clock reads: commits chain laps,
     so their spans tile the apply phase exactly; the phase total is
     derived from the chain, not measured again. *)
  let apply_start = match t.prof with Some pc -> pc.mark | None -> 0 in
  for k = 0 to t.len - 1 do
    let u = t.mu.(k) and r = t.mr.(k) in
    t.commit k u;
    t.moves_per_process.(u) <- t.moves_per_process.(u) + 1;
    t.rule_moves.(r) <- t.rule_moves.(r) + 1;
    unpend t u;
    match t.prof with
    | Some pc ->
        lap pc pc.rule_timers.(r);
        Metrics.incr pc.rule_counters.(r)
    | None -> ()
  done;
  (match t.prof with
  | Some pc -> Prof.record_span pc.phase.(ph_apply) (pc.mark - apply_start)
  | None -> ());
  t.steps <- t.steps + 1;
  t.steps_in_round <- t.steps_in_round + 1;
  t.moves <- t.moves + t.len;
  let touched0 = t.touched and evals0 = t.evals and flips0 = t.flips in
  t.gen <- t.gen + 1;
  for k = 0 to t.len - 1 do
    let u = t.mu.(k) in
    touch t t.gen u;
    for i = t.offsets.(u) to t.offsets.(u + 1) - 1 do
      touch t t.gen t.nbrs.(i)
    done
  done;
  match t.prof with
  | Some pc ->
      let dt = t.touched - touched0 and de = t.evals - evals0 in
      Metrics.add pc.sched.(0) dt;
      Metrics.add pc.sched.(1) de;
      Metrics.add pc.sched.(2) (dt - de);
      Metrics.add pc.sched.(3) (t.flips - flips0);
      Histogram.record pc.h_refresh de;
      lap pc pc.phase.(ph_refresh)
  | None -> ()

let stopped t h =
  let s = match h.stop with Some f -> f () | None -> false in
  lap_phase t ph_stop;
  s

let run t h ~max_steps =
  check_heartbeat h.heartbeat;
  (* Availability sampling rides on the evaluator's legitimacy count; its
     per-step cost is only paid when someone is observing. *)
  let count_legit =
    h.illegit <> None
    && (t.prof <> None || h.heartbeat <> None || h.monitor <> None)
  in
  let c_legit =
    match (t.prof, h.illegit) with
    | Some pc, Some _ ->
        Some (Metrics.counter (Prof.metrics pc.p) "obs.legit_steps")
    | _ -> None
  in
  let legit_steps = ref 0 in
  let hb_last = ref (t.t0, 0) in
  (* Everything since [create] began is scan work. *)
  lap_phase t ph_scan;
  let outcome = ref Step_limit in
  (try
     if stopped t h then begin
       outcome := Stabilized;
       raise Exit
     end;
     while t.steps < max_steps do
       if t.count = 0 then begin
         outcome := Terminal;
         raise Exit
       end;
       step t ~index:t.steps;
       (match h.after_step with Some f -> f () | None -> ());
       (* Round completion is reported after the evaluator's hooks, so
          probes they accumulate are up to date for [on_round]. *)
       let round_done = t.pend_count = 0 in
       if round_done then begin
         t.rounds_done <- t.rounds_done + 1;
         t.steps_in_round <- 0;
         match h.on_round with Some f -> f () | None -> ()
       end;
       let legit =
         count_legit && match h.illegit with Some f -> f () = 0 | None -> false
       in
       if legit then incr legit_steps;
       (match t.prof with
       | Some pc ->
           if legit then Option.iter Metrics.incr c_legit;
           Prof.tick pc.p ~moves:t.len;
           lap pc pc.phase.(ph_callbacks)
       | None -> ());
       (match h.heartbeat with
       | Some (every, f) when t.steps mod every = 0 ->
           f
             (beat hb_last ~steps:t.steps ~moves:t.moves ~enabled:t.count
                ~legit:
                  (match h.illegit with
                  | None -> -1
                  | Some il -> Array.length t.rule_of - il ())
                ~legit_steps:(if count_legit then Some !legit_steps else None))
       | _ -> ());
       trip h.monitor "moves-bound" h.moves_bound ~steps:t.steps
         ~value:t.moves;
       if round_done then begin
         (* The refill walks the enabled set — scan work, like the
            initial table build. *)
         refill_pending t;
         lap_phase t ph_scan;
         trip h.monitor "rounds-bound" h.rounds_bound ~steps:t.steps
           ~value:t.rounds_done
       end;
       if stopped t h then begin
         outcome := Stabilized;
         raise Exit
       end
     done
   with Exit -> ());
  t.wall_s <- Unix.gettimeofday () -. t.t0;
  Option.iter (fun pc -> finish_prof pc.p t.wall_s) t.prof;
  !outcome
