module Histogram = Ssreset_obs.Histogram
module Metrics = Ssreset_obs.Metrics
module Prof = Ssreset_obs.Prof

type job_error = { index : int; exn : exn; backtrace : Printexc.raw_backtrace }

exception Job_failed of job_error

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Jobs are claimed off a shared atomic counter in index order, and every
   result lands in its input slot — so the output (values *and* the choice
   of surfaced error) depends only on the inputs, never on how the OS
   scheduled the domains.  Workers never share mutable state beyond the
   counter and their own result slots — profiling respects this: each
   worker accumulates busy time into its own slot and its own histogram,
   merged into the profiler only after the joins, on the calling domain. *)
let map_array ?jobs ?prof f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = Array.length xs in
  let sequential = jobs <= 1 || n <= 1 in
  let workers = if sequential then 1 else min jobs n in
  let t_start = match prof with Some _ -> Prof.now_ns () | None -> 0 in
  let busy_ns = Array.make workers 0 in
  let jobs_done = Array.make workers 0 in
  let job_hists =
    match prof with
    | Some _ -> Array.init workers (fun _ -> Histogram.create ())
    | None -> [||]
  in
  let run_job w x =
    match prof with
    | None -> f x
    | Some _ -> (
        let t0 = Prof.now_ns () in
        let finish () =
          let dt = Prof.now_ns () - t0 in
          busy_ns.(w) <- busy_ns.(w) + dt;
          jobs_done.(w) <- jobs_done.(w) + 1;
          Histogram.record job_hists.(w) dt
        in
        match f x with
        | v ->
            finish ();
            v
        | exception exn ->
            let bt = Printexc.get_raw_backtrace () in
            finish ();
            Printexc.raise_with_backtrace exn bt)
  in
  let collect results =
    (* Deterministic error surfacing: the failure at the smallest index
       wins, whichever domain hit it first. *)
    Array.iteri
      (fun _ r ->
        match r with
        | Some (Error e) -> raise (Job_failed e)
        | Some (Ok _) | None -> ())
      results;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error _) | None -> assert false)
      results
  in
  let emit_prof () =
    match prof with
    | None -> ()
    | Some p ->
        let wall_ns = Prof.now_ns () - t_start in
        let m = Prof.metrics p in
        Metrics.add (Metrics.counter m "pool.jobs") n;
        Metrics.set (Metrics.gauge m "pool.workers") (float_of_int workers);
        let total_busy = Array.fold_left ( + ) 0 busy_ns in
        Array.iteri
          (fun w b ->
            let g =
              Metrics.gauge m (Printf.sprintf "pool.worker%d.busy_s" w)
            in
            Metrics.set g (Metrics.gauge_value g +. (float_of_int b /. 1e9));
            Metrics.add
              (Metrics.counter m (Printf.sprintf "pool.worker%d.jobs" w))
              jobs_done.(w))
          busy_ns;
        (* Fraction of the workers' combined wall clock actually spent in
           jobs — the work-stealing loop's idle tail shows up here. *)
        Metrics.set
          (Metrics.gauge m "pool.utilization")
          (if wall_ns > 0 then
             float_of_int total_busy
             /. (float_of_int wall_ns *. float_of_int workers)
           else 0.);
        let dst = Prof.histogram p "pool.job_ns" in
        Array.iter (fun h -> Histogram.merge_into ~dst h) job_hists
  in
  if sequential then begin
    let results =
      Array.mapi
        (fun index x ->
          match run_job 0 x with
          | v -> Some (Ok v)
          | exception exn ->
              Some
                (Error
                   { index; exn; backtrace = Printexc.get_raw_backtrace () }))
        xs
    in
    emit_prof ();
    collect results
  end
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker w () =
      let rec loop () =
        let index = Atomic.fetch_and_add next 1 in
        if index < n then begin
          (results.(index) <-
             (match run_job w xs.(index) with
             | v -> Some (Ok v)
             | exception exn ->
                 Some
                   (Error
                      { index; exn; backtrace = Printexc.get_raw_backtrace () })));
          loop ()
        end
      in
      loop ()
    in
    let spawned = List.init (workers - 1) (fun i -> Domain.spawn (worker (i + 1))) in
    worker 0 ();
    List.iter Domain.join spawned;
    emit_prof ();
    collect results
  end

let map_list ?jobs ?prof f xs =
  Array.to_list (map_array ?jobs ?prof f (Array.of_list xs))

module Team = struct
  (* Worker-private instrumentation slots: each worker writes only its own
     index (no sharing, no atomics on the hot path); everything is merged
     into the profiler at {!shutdown}, on the calling domain, after the
     joins — the same discipline as [map_array]. *)
  type obs = {
    p : Prof.t;
    busy_ns : int array;  (** time inside phase bodies, per worker *)
    wait_ns : int array;  (** barrier/park time, per worker *)
    busy_hists : Histogram.t array;
    wait_hists : Histogram.t array;
    parked_ns : int array;  (** when each helper's final park ended *)
    mutable phases : int;
  }

  type t = {
    size : int;
    mutex : Mutex.t;
    cond : Condition.t;
    mutable epoch : int;
    mutable job : (int -> unit) option;
    mutable finished : int;  (** helpers done with the current epoch *)
    mutable stop : bool;
    mutable errors : job_error list;
    mutable helpers : unit Domain.t list;
    obs : obs option;
  }

  let size t = t.size

  let record_wait t w t0 =
    match t.obs with
    | None -> ()
    | Some o ->
        let dt = Prof.now_ns () - t0 in
        o.wait_ns.(w) <- o.wait_ns.(w) + dt;
        Histogram.record o.wait_hists.(w) dt

  let record_busy t w t0 =
    match t.obs with
    | None -> ()
    | Some o ->
        let dt = Prof.now_ns () - t0 in
        o.busy_ns.(w) <- o.busy_ns.(w) + dt;
        Histogram.record o.busy_hists.(w) dt

  (* Helpers sleep on the condition between phases; spawning them once per
     run (not per phase) is what makes a 3-phase step affordable.  [seen_ns]
     is when this worker last became idle — the park that follows (barrier
     wait plus any sequential work the caller does between phases) is
     attributed to it, so worker laps tile the team's whole lifetime. *)
  let rec helper_loop t w seen seen_ns =
    Mutex.lock t.mutex;
    while (not t.stop) && t.epoch = seen do
      Condition.wait t.cond t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      (* final park, so per-worker time covers up to shutdown *)
      record_wait t w seen_ns;
      match t.obs with Some o -> o.parked_ns.(w) <- Prof.now_ns () | None -> ()
    end
    else begin
      let epoch = t.epoch in
      let job = Option.get t.job in
      Mutex.unlock t.mutex;
      record_wait t w seen_ns;
      let tb = match t.obs with Some _ -> Prof.now_ns () | None -> 0 in
      let err =
        match job w with
        | () -> None
        | exception exn ->
            Some { index = w; exn; backtrace = Printexc.get_raw_backtrace () }
      in
      record_busy t w tb;
      let idle_ns = match t.obs with Some _ -> Prof.now_ns () | None -> 0 in
      Mutex.lock t.mutex;
      (match err with Some e -> t.errors <- e :: t.errors | None -> ());
      t.finished <- t.finished + 1;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      helper_loop t w epoch idle_ns
    end

  let create ?prof ~size () =
    let size = max 1 size in
    let obs =
      Option.map
        (fun p ->
          {
            p;
            busy_ns = Array.make size 0;
            wait_ns = Array.make size 0;
            busy_hists = Array.init size (fun _ -> Histogram.create ());
            wait_hists = Array.init size (fun _ -> Histogram.create ());
            parked_ns = Array.make size 0;
            phases = 0;
          })
        prof
    in
    let t =
      {
        size;
        mutex = Mutex.create ();
        cond = Condition.create ();
        epoch = 0;
        job = None;
        finished = 0;
        stop = false;
        errors = [];
        helpers = [];
        obs;
      }
    in
    let t0 = match obs with Some _ -> Prof.now_ns () | None -> 0 in
    t.helpers <-
      List.init (size - 1) (fun i ->
          Domain.spawn (fun () -> helper_loop t (i + 1) 0 t0));
    t

  let run t fn =
    (match t.obs with Some o -> o.phases <- o.phases + 1 | None -> ());
    if t.size = 1 then begin
      let tb = match t.obs with Some _ -> Prof.now_ns () | None -> 0 in
      match fn 0 with
      | () -> record_busy t 0 tb
      | exception exn ->
          record_busy t 0 tb;
          raise exn
    end
    else begin
      (* Waking the helpers is the caller's share of the barrier. *)
      let td = match t.obs with Some _ -> Prof.now_ns () | None -> 0 in
      Mutex.lock t.mutex;
      t.job <- Some fn;
      t.finished <- 0;
      t.errors <- [];
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      record_wait t 0 td;
      let tb = match t.obs with Some _ -> Prof.now_ns () | None -> 0 in
      let own =
        match fn 0 with
        | () -> None
        | exception exn ->
            Some { index = 0; exn; backtrace = Printexc.get_raw_backtrace () }
      in
      record_busy t 0 tb;
      let tw = match t.obs with Some _ -> Prof.now_ns () | None -> 0 in
      Mutex.lock t.mutex;
      while t.finished < t.size - 1 do
        Condition.wait t.cond t.mutex
      done;
      let errs = t.errors in
      Mutex.unlock t.mutex;
      record_wait t 0 tw;
      let all = match own with Some e -> e :: errs | None -> errs in
      match List.sort (fun a b -> compare a.index b.index) all with
      | [] -> ()
      | e :: _ -> raise (Job_failed e)
    end

  (* Merge the worker-private slots into the profiler: per-worker busy and
     barrier gauges (accumulating, [map_array]'s naming so reports cover
     both pools), the barrier-wait spans as the [phase.barrier] timer
     (percentiles in the prof summary, and the waits count toward the
     multi-worker wall-clock coverage check), and the phase-body durations
     as the [pool.team.job_ns] histogram. *)
  let emit_obs t =
    match t.obs with
    | None -> ()
    | Some o ->
        let m = Prof.metrics o.p in
        Metrics.add (Metrics.counter m "pool.team.phases") o.phases;
        Metrics.set
          (Metrics.gauge m "pool.team.workers")
          (float_of_int t.size);
        for w = 0 to t.size - 1 do
          let acc name ns =
            let g = Metrics.gauge m (Printf.sprintf "pool.worker%d.%s" w name) in
            Metrics.set g (Metrics.gauge_value g +. (float_of_int ns /. 1e9))
          in
          acc "busy_s" o.busy_ns.(w);
          acc "barrier_s" o.wait_ns.(w)
        done;
        let barrier = Prof.timer o.p "phase.barrier" in
        Array.iteri
          (fun w h -> Prof.merge_spans barrier ~total_ns:o.wait_ns.(w) h)
          o.wait_hists;
        let dst = Prof.histogram o.p "pool.team.job_ns" in
        Array.iter (fun h -> Histogram.merge_into ~dst h) o.busy_hists

  let shutdown t =
    if not t.stop then begin
      let ts = match t.obs with Some _ -> Prof.now_ns () | None -> 0 in
      Mutex.lock t.mutex;
      t.stop <- true;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      List.iter Domain.join t.helpers;
      (* The caller's wait for the joins, and each helper's exit after its
         final park, are barrier time too: worker laps then tile the
         team's lifetime up to the last join. *)
      (match t.obs with
      | Some o ->
          record_wait t 0 ts;
          for w = 1 to t.size - 1 do
            record_wait t w o.parked_ns.(w)
          done
      | None -> ());
      t.helpers <- [];
      emit_obs t
    end
end

let () =
  Printexc.register_printer (function
    | Job_failed { index; exn; _ } ->
        Some
          (Printf.sprintf "Pool.Job_failed(job %d: %s)" index
             (Printexc.to_string exn))
    | _ -> None)
