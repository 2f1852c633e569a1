(* The repository benchmark: one closed-loop client per run, driving one
   workload for a fixed time and printing its metrics as the last line of
   standard output.  See BENCHMARK.json and perfbench/METRICS.md.

   Usage: main.exe --workload W --seed N --seconds S --trace 0|1
                   --cli PATH --expected FILE [--out-dir DIR]
                   [--emit-expected FILE]

   --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
   metrics of a traced run and writes its spans and profiler counters to
   DIR/trace-W-N.jsonl.  --emit-expected appends the exact simulated counts
   of this run to FILE in the format of the expected-values file. *)

open Harness

let workloads =
  [ ("classic-sweep", Classic.run);
    ("flat-sync", Flatw.sync);
    ("flat-central", Flatw.central);
    ("verify", Verify.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH \
     --expected FILE [--out-dir DIR] [--emit-expected FILE]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

(* Lines "<workload> <seed> <key> <value...>", where seed "*" matches every
   seed (for deterministic workloads); other lines are skipped. *)
let load_expected path ~workload ~seed =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | w :: s :: key :: (_ :: _ as value)
          when String.equal w workload && (s = "*" || int_of_string_opt s = Some seed) ->
            go ((key, String.concat " " value) :: acc)
        | _ -> go acc)
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        Hashtbl.replace args (String.sub flag 2 (String.length flag - 2)) value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get name = match Hashtbl.find_opt args name with Some v -> v | None -> usage () in
  let int name = match int_of_string_opt (get name) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let cli = get "cli" in
  if not (Sys.file_exists cli) then begin
    prerr_endline ("perfbench: CLI executable not found: " ^ cli);
    exit 2
  end;
  let out_dir = Option.value ~default:".bench_out" (Hashtbl.find_opt args "out-dir") in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let ctx =
    { workload;
      seed;
      seconds = float_of_int seconds;
      trace;
      cli;
      out_dir;
      expected = load_expected (get "expected") ~workload ~seed;
      attempted = 0;
      failed = 0;
      samples = Hashtbl.create 64;
      pass_moves = 0;
      counts = Hashtbl.create 64;
      metrics = Hashtbl.create 64;
      profs = [];
      setup_s = 0. }
  in
  run ctx;
  (* Every stored count must have been produced by this run. *)
  List.iter
    (fun (key, value) ->
      if not (Hashtbl.mem ctx.counts key) then
        report_failure ctx ~name:"expected"
          [ Printf.sprintf "stored count %s = %s was not produced" key value ])
    ctx.expected;
  if ctx.expected = [] then
    Printf.eprintf "perfbench: seed %d has no stored counts for %s; exact counts checked for repeatability only\n%!"
      seed workload;
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.counts []
      |> List.sort compare
      |> List.iter (fun (k, v) -> Printf.fprintf oc "%s %d %s %s\n" workload seed k v);
      close_out oc)
    (Hashtbl.find_opt args "emit-expected");
  if trace then begin
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
    Spans.write ~path ~profs:ctx.profs;
    Printf.eprintf "perfbench: %s spans and profiler counters in %s\n" workload path;
    Printf.eprintf "perfbench: span self time (s) per name, whole run:\n";
    List.iter (fun (name, s) -> Printf.eprintf "  %-28s %10.4f\n" name s) (Spans.self_by_name ());
    Printf.eprintf "perfbench: spans cover %.1f%% of the traced passes' wall time\n%!"
      (100. *. Spans.coverage ())
  end;
  print_result ctx
