(* bench_gate — CI performance gate.

   Usage: bench_gate.exe BASELINE.json FRESH.json

   Compares a freshly generated `bench --quick` results file against the
   committed baseline (BENCH_results.json) and exits non-zero when:

     - the fresh run has failures > 0, or any experiment / check record
       with ok = false (correctness is never negotiable), or
     - an experiment's fresh wall_s exceeds the baseline's by more than the
       tolerance (default 25%) plus a fixed 0.1s of absolute slack — the
       slack keeps sub-100ms experiments, whose timings are dominated by
       scheduler noise, from flaking the gate — or
     - the fresh file is missing an experiment id present in the baseline.

   The tolerance is overridable via the BENCH_GATE_TOLERANCE environment
   variable (a fraction: 0.25 = +25%, 2.0 = +200%).  CI sets it high
   because hosted runners are noisy and unlike the machine that produced
   the committed baseline; locally the default is tight enough to catch a
   real regression in the engine or the experiment drivers.

   Experiments only present in the fresh file (newly added ones) pass the
   gate: the baseline learns them at the next refresh.  Bechamel timing and
   the engine throughput section are reported for information, not gated —
   single-run ns estimates on shared hardware are too noisy to fail a
   build on. *)

module Json = Ssreset_obs.Json

let tolerance =
  match Sys.getenv_opt "BENCH_GATE_TOLERANCE" with
  | None -> 0.25
  | Some s -> (
      match float_of_string_opt s with
      | Some t when t >= 0. -> t
      | _ ->
          Printf.eprintf
            "bench_gate: BENCH_GATE_TOLERANCE must be a non-negative \
             fraction, got %S\n"
            s;
          exit 2)

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  match Json.of_string body with
  | Ok json -> json
  | Error msg ->
      Printf.eprintf "bench_gate: %s: %s\n" path msg;
      exit 2

let str_field name json =
  match Option.bind (Json.member name json) Json.to_string_opt with
  | Some s -> s
  | None -> "?"

let float_field name json =
  Option.bind (Json.member name json) Json.to_float_opt

let bool_field name json =
  match Json.member name json with Some (Json.Bool b) -> Some b | _ -> None

let list_field name json =
  match Json.member name json with Some (Json.List l) -> l | _ -> []

let () =
  let baseline_path, fresh_path =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ ->
        Printf.eprintf "usage: %s BASELINE.json FRESH.json\n" Sys.argv.(0);
        exit 2
  in
  let baseline = load baseline_path and fresh = load fresh_path in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        Printf.printf "FAIL  %s\n" msg)
      fmt
  in
  let info fmt = Printf.ksprintf (fun msg -> Printf.printf "ok    %s\n" msg) fmt in

  (* 1. Correctness of the fresh run. *)
  (match Option.bind (Json.member "failures" fresh) Json.to_int_opt with
  | Some 0 | None -> ()
  | Some k -> fail "fresh run reports %d bound violation(s)" k);
  List.iter
    (fun record ->
      match bool_field "ok" record with
      | Some false -> fail "experiment %s: ok = false" (str_field "id" record)
      | _ -> ())
    (list_field "experiments" fresh);
  List.iter
    (fun record ->
      match bool_field "ok" record with
      | Some false -> fail "check %s: ok = false" (str_field "name" record)
      | _ -> ())
    (list_field "check" fresh);

  (* 2. Per-experiment wall-clock vs the baseline. *)
  let fresh_by_id =
    List.filter_map
      (fun r ->
        match Option.bind (Json.member "id" r) Json.to_string_opt with
        | Some id -> Some (id, r)
        | None -> None)
      (list_field "experiments" fresh)
  in
  List.iter
    (fun base_record ->
      let id = str_field "id" base_record in
      match List.assoc_opt id fresh_by_id with
      | None -> fail "experiment %s present in baseline but not in fresh run" id
      | Some fresh_record -> (
          match
            (float_field "wall_s" base_record, float_field "wall_s" fresh_record)
          with
          | Some base_s, Some fresh_s when base_s > 0. ->
              let ratio = fresh_s /. base_s in
              if fresh_s > (base_s *. (1. +. tolerance)) +. 0.1 then
                fail "experiment %s: wall-clock %.3fs vs baseline %.3fs \
                      (%.0f%% > +%.0f%% tolerance)"
                  id fresh_s base_s
                  ((ratio -. 1.) *. 100.)
                  (tolerance *. 100.)
              else
                info "experiment %s: %.3fs vs baseline %.3fs (%+.0f%%)" id
                  fresh_s base_s
                  ((ratio -. 1.) *. 100.)
          | _ -> info "experiment %s: no comparable wall_s, skipped" id))
    (list_field "experiments" baseline);

  (* 3. trace-v1 observability overhead: with monitors disabled (no sink)
     the engine must run at full speed — a regression here means telemetry
     cost leaked into the hot path.  Throughput is noisier than wall-clock,
     so the gate never tightens below 5% even when the wall-clock tolerance
     is stricter. *)
  let trace_tolerance = Float.max 0.05 tolerance in
  let fresh_trace = list_field "trace_v1" fresh in
  if fresh_trace <> [] && list_field "trace_v1" baseline = [] then
    info "new-section trace_v1: no baseline section, learned at next refresh";
  List.iter
    (fun base_record ->
      match Option.bind (Json.member "n" base_record) Json.to_int_opt with
      | None -> ()
      | Some n -> (
          let same r =
            Option.bind (Json.member "n" r) Json.to_int_opt = Some n
          in
          match List.find_opt same fresh_trace with
          | None ->
              fail "trace_v1 n=%d present in baseline but not in fresh run" n
          | Some fresh_record -> (
              match
                ( float_field "monitors_off_steps_per_s" base_record,
                  float_field "monitors_off_steps_per_s" fresh_record )
              with
              | Some base_r, Some fresh_r when base_r > 0. ->
                  if fresh_r < base_r *. (1. -. trace_tolerance) then
                    fail
                      "trace_v1 n=%d: monitors-off throughput %.0f steps/s \
                       vs baseline %.0f (-%.0f%% > -%.0f%% tolerance)"
                      n fresh_r base_r
                      ((1. -. (fresh_r /. base_r)) *. 100.)
                      (trace_tolerance *. 100.)
                  else
                    info
                      "trace_v1 n=%d: monitors-off %.0f steps/s vs baseline \
                       %.0f (%+.0f%%)"
                      n fresh_r base_r
                      (((fresh_r /. base_r) -. 1.) *. 100.)
              | _ -> info "trace_v1 n=%d: no comparable throughput, skipped" n)))
    (list_field "trace_v1" baseline);

  (* 4. Engine profiling overhead: prof-off must run at full speed (the
     engine's pay-as-you-go contract — an attached profiler is opt-in),
     and the prof-on overhead itself stays capped.  Same noise floor as
     the trace gate: never tighter than 5%. *)
  let prof_tolerance = Float.max 0.05 tolerance in
  let fresh_prof = list_field "prof" fresh in
  if fresh_prof <> [] && list_field "prof" baseline = [] then
    info "new-section prof: no baseline section, learned at next refresh";
  List.iter
    (fun base_record ->
      match Option.bind (Json.member "n" base_record) Json.to_int_opt with
      | None -> ()
      | Some n -> (
          let same r =
            Option.bind (Json.member "n" r) Json.to_int_opt = Some n
          in
          match List.find_opt same fresh_prof with
          | None -> fail "prof n=%d present in baseline but not in fresh run" n
          | Some fresh_record ->
              (match
                 ( float_field "prof_off_steps_per_s" base_record,
                   float_field "prof_off_steps_per_s" fresh_record )
               with
              | Some base_r, Some fresh_r when base_r > 0. ->
                  if fresh_r < base_r *. (1. -. prof_tolerance) then
                    fail
                      "prof n=%d: prof-off throughput %.0f steps/s vs \
                       baseline %.0f (-%.0f%% > -%.0f%% tolerance)"
                      n fresh_r base_r
                      ((1. -. (fresh_r /. base_r)) *. 100.)
                      (prof_tolerance *. 100.)
                  else
                    info
                      "prof n=%d: prof-off %.0f steps/s vs baseline %.0f \
                       (%+.0f%%)"
                      n fresh_r base_r
                      (((fresh_r /. base_r) -. 1.) *. 100.)
              | _ -> info "prof n=%d: no comparable throughput, skipped" n);
              (match float_field "prof_overhead_pct" fresh_record with
              | Some pct when pct > prof_tolerance *. 100. ->
                  fail
                    "prof n=%d: prof-on overhead %.1f%% exceeds %.0f%% cap"
                    n pct (prof_tolerance *. 100.)
              | Some pct -> info "prof n=%d: prof-on overhead %.1f%%" n pct
              | None -> ())))
    (list_field "prof" baseline);

  (* 5. check-v3 SMT section: the fresh differential must agree (ok =
     true — correctness, never negotiable), and both throughputs hold to
     the baseline under the same noise floor as trace/prof. *)
  let smt_tolerance = Float.max 0.05 tolerance in
  (match Json.member "smt" fresh with
  | None -> ()
  | Some fresh_smt ->
      (match Json.member "differential" fresh_smt with
      | Some (Json.Obj _ as d) -> (
          (match bool_field "ok" d with
          | Some false -> fail "smt differential: IR/rules mismatch"
          | _ -> ());
          match Json.member "smt" baseline with
          | None -> info "smt: no baseline section, learned at next refresh"
          | Some base_smt ->
              let rate section field ctx =
                let get j =
                  Option.bind (Json.member section j) (float_field field)
                in
                match (get base_smt, get fresh_smt) with
                | Some base_r, Some fresh_r ->
                    if fresh_r < base_r *. (1. -. smt_tolerance) then
                      fail
                        "smt %s: %.0f %s vs baseline %.0f (-%.0f%% > \
                         -%.0f%% tolerance)"
                        ctx fresh_r field base_r
                        (100. *. (1. -. (fresh_r /. base_r)))
                        (smt_tolerance *. 100.)
                    else
                      info "smt %s: %.0f %s vs baseline %.0f" ctx fresh_r
                        field base_r
                | _ -> info "smt %s: no comparable throughput, skipped" ctx
              in
              rate "compile" "obligations_per_s" "compile";
              rate "differential" "views_per_s" "differential";
              rate "ranking" "obligations_per_s" "ranking";
              (* v4 input-layer differentials: correctness always, rate
                 only when the baseline knows the algo *)
              let base_inputs = list_field "differential_inputs" base_smt in
              List.iter
                (fun fr ->
                  let algo = str_field "algo" fr in
                  (match bool_field "ok" fr with
                  | Some false ->
                      fail "smt differential %s: IR/rules mismatch" algo
                  | _ -> ());
                  let same b = str_field "algo" b = algo in
                  match
                    ( Option.bind (List.find_opt same base_inputs)
                        (float_field "views_per_s"),
                      float_field "views_per_s" fr )
                  with
                  | Some base_r, Some fresh_r ->
                      if fresh_r < base_r *. (1. -. smt_tolerance) then
                        fail
                          "smt differential %s: %.0f views_per_s vs \
                           baseline %.0f (-%.0f%% > -%.0f%% tolerance)"
                          algo fresh_r base_r
                          (100. *. (1. -. (fresh_r /. base_r)))
                          (smt_tolerance *. 100.)
                      else
                        info "smt differential %s: %.0f views_per_s vs \
                              baseline %.0f"
                          algo fresh_r base_r
                  | _ ->
                      info
                        "smt differential %s: no baseline rate, learned at \
                         next refresh"
                        algo)
                (list_field "differential_inputs" fresh_smt))
      | _ -> ()));

  (* 6. Classic engine throughput — informational. *)
  List.iter
    (fun r ->
      match
        ( Option.bind (Json.member "n" r) Json.to_int_opt,
          float_field "steps_per_s" r )
      with
      | Some n, Some s -> info "engine n=%d: %.0f steps/s" n s
      | _ -> ())
    (list_field "engine" fresh);

  (* 7. engine_flat: the IR-compiled flat data path.  Digest agreement
     across domain counts is correctness (never negotiable).  Throughput
     holds to the baseline only when the baseline knows the section: a
     section present in the fresh results but absent from the committed
     baseline is a newly added bench — noted explicitly as `new-section`
     and learned at the next baseline refresh, never a failure (the old
     behaviour forced every new bench section into a same-PR baseline
     refresh). *)
  let flat_tolerance = Float.max 0.05 tolerance in
  (match Json.member "engine_flat" fresh with
  | None -> ()
  | Some fresh_flat -> (
      let digest_of r =
        Option.bind (Json.member "digest" r) Json.to_string_opt
      in
      (match List.filter_map digest_of (list_field "scale" fresh_flat) with
      | d :: rest when List.exists (fun d' -> not (String.equal d d')) rest ->
          fail "engine_flat: scale digests diverge across domain counts"
      | _ :: _ -> info "engine_flat: scale digests agree across domain counts"
      | [] -> ());
      List.iter
        (fun r ->
          match
            ( Option.bind (Json.member "n" r) Json.to_int_opt,
              float_field "speedup" r )
          with
          | Some n, Some s -> info "engine_flat n=%d: flat speedup %.1fx" n s
          | _ -> ())
        (list_field "head_to_head" fresh_flat);
      match Json.member "engine_flat" baseline with
      | None ->
          info
            "new-section engine_flat: no baseline section, learned at next \
             refresh"
      | Some base_flat ->
          let gate_rate ~section ~key ~field ctx =
            let find j r0 =
              List.find_opt
                (fun r ->
                  List.for_all
                    (fun k ->
                      Option.bind (Json.member k r) Json.to_int_opt
                      = Option.bind (Json.member k r0) Json.to_int_opt)
                    key)
                (list_field section j)
            in
            List.iter
              (fun base_r ->
                match find fresh_flat base_r with
                | None -> ()
                | Some fresh_r -> (
                    match
                      (float_field field base_r, float_field field fresh_r)
                    with
                    | Some b, Some f when b > 0. ->
                        if f < b *. (1. -. flat_tolerance) then
                          fail
                            "engine_flat %s: %.0f %s vs baseline %.0f \
                             (-%.0f%% > -%.0f%% tolerance)"
                            ctx f field b
                            (100. *. (1. -. (f /. b)))
                            (flat_tolerance *. 100.)
                        else
                          info "engine_flat %s: %.0f %s vs baseline %.0f" ctx
                            f field b
                    | _ -> ()))
              (list_field section base_flat)
          in
          gate_rate ~section:"head_to_head" ~key:[ "n" ]
            ~field:"flat_steps_per_s" "head-to-head";
          gate_rate ~section:"scale" ~key:[ "n"; "parts" ]
            ~field:"steps_per_s" "scale"));

  (* 8. flat_obs: observability on the flat data path.  Same contract as
     the prof gate, on the scale-tier workload: prof-off throughput holds
     to the baseline (noise floor 5%), and the measured prof-on overhead
     stays under a cap that never tightens below 10% — the flat hot loop
     is fast enough that per-step lap clocks cost proportionally more
     than on the classic engine.  Digest bit-identity between prof-off
     and prof-on runs is asserted inside the bench itself (the section
     would be absent, and the bench failed, had it diverged). *)
  let obs_tolerance = Float.max 0.05 tolerance in
  let obs_overhead_cap = Float.max 0.10 tolerance *. 100. in
  let fresh_obs = list_field "flat_obs" fresh in
  if fresh_obs <> [] && list_field "flat_obs" baseline = [] then
    info "new-section flat_obs: no baseline section, learned at next refresh";
  List.iter
    (fun fresh_record ->
      match Option.bind (Json.member "n" fresh_record) Json.to_int_opt with
      | None -> ()
      | Some n -> (
          (let same r =
             Option.bind (Json.member "n" r) Json.to_int_opt = Some n
           in
           match
             ( Option.bind
                 (List.find_opt same (list_field "flat_obs" baseline))
                 (float_field "prof_off_steps_per_s"),
               float_field "prof_off_steps_per_s" fresh_record )
           with
           | Some base_r, Some fresh_r when base_r > 0. ->
               if fresh_r < base_r *. (1. -. obs_tolerance) then
                 fail
                   "flat_obs n=%d: prof-off throughput %.0f steps/s vs \
                    baseline %.0f (-%.0f%% > -%.0f%% tolerance)"
                   n fresh_r base_r
                   ((1. -. (fresh_r /. base_r)) *. 100.)
                   (obs_tolerance *. 100.)
               else
                 info
                   "flat_obs n=%d: prof-off %.0f steps/s vs baseline %.0f \
                    (%+.0f%%)"
                   n fresh_r base_r
                   (((fresh_r /. base_r) -. 1.) *. 100.)
           | _ -> ());
          match float_field "prof_overhead_pct" fresh_record with
          | Some pct when pct > obs_overhead_cap ->
              fail "flat_obs n=%d: prof-on overhead %.1f%% exceeds %.0f%% cap"
                n pct obs_overhead_cap
          | Some pct -> info "flat_obs n=%d: prof-on overhead %.1f%%" n pct
          | None -> ()))
    fresh_obs;

  if !failures > 0 then begin
    Printf.printf
      "bench_gate: %d failure(s) (tolerance +%.0f%%; override with \
       BENCH_GATE_TOLERANCE)\n"
      !failures (tolerance *. 100.);
    exit 1
  end
  else
    Printf.printf "bench_gate: pass (tolerance +%.0f%%)\n" (tolerance *. 100.)
