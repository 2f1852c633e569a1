(* Validate JSON / JSONL files produced by the telemetry layer.

   usage: jsonlint [--jsonl] [--require-keys k,...] [--require-types t,...]
                   [--check-report] FILE

   Plain mode parses FILE as one JSON document; [--require-keys] then checks
   the top-level object has every listed key.  With [--jsonl] every nonempty
   line must parse on its own, and [--require-types] checks that the set of
   "type" field values seen across the lines covers every listed type (so a
   run trace can be required to contain a manifest, round records and a
   summary).  [--check-report] validates the ssreset-check-v3 findings
   report schema: schema_version >= 3, per-entry lint/footprint/sym/
   obligations/model sections, and per-graph model records carrying the
   automorphisms and certificate fields.  [--check-smt] validates an
   ssreset-smt-v2 obligation manifest: every referenced .smt2 file (in
   the manifest's directory) must re-parse through Ssreset_check.Smt's
   reader and lint clean.  [--check-trace] validates the ssreset-trace-v1
   schema (manifest first, strictly increasing step/round records,
   wave-tagged movers, one summary whose counters cross-check the step
   records) via Ssreset_obs.Tracefile.  [--check-prof] validates the
   ssreset-prof-v1 profile schema (manifest first, window records with
   strictly increasing indices and at_step, one summary whose window
   count and per-rule move counters cross-check the window records) via
   Ssreset_obs.Proffile.  Exit status 0 iff the file is valid; used by
   the `dune runtest` smoke rules in bench/ and bin/. *)

module Json = Ssreset_obs.Json

let split_commas s = String.split_on_char ',' s |> List.filter (( <> ) "")

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let check_keys ~path keys = function
  | Json.Obj fields ->
      List.iter
        (fun k ->
          if not (List.mem_assoc k fields) then
            fail "%s: missing required key %S" path k)
        keys
  | _ -> if keys <> [] then fail "%s: top-level value is not an object" path

(* --- ssreset-check-v3 report schema ---------------------------------- *)

let obj_keys ~path ~ctx keys json =
  match json with
  | Json.Obj fields ->
      List.iter
        (fun k ->
          if not (List.mem_assoc k fields) then
            fail "%s: %s: missing key %S" path ctx k)
        keys;
      fields
  | _ -> fail "%s: %s: not an object" path ctx

let as_list ~path ~ctx = function
  | Json.List l -> l
  | _ -> fail "%s: %s: not a list" path ctx

(* --- ssreset-smt-v2 obligation manifest ------------------------------- *)

(* Shape-checks the manifest object (also embedded per-entry in check-v3
   reports, where the referenced files need not exist on disk).  Returns
   the referenced file names for the on-disk mode. *)
let check_smt_manifest ~path ~ctx json =
  let top =
    obj_keys ~path ~ctx
      [ "schema"; "schema_version"; "count"; "obligations" ]
      json
  in
  (match Option.bind (Json.member "schema" json) Json.to_string_opt with
  | Some "ssreset-smt-v2" -> ()
  | Some other -> fail "%s: %s: unexpected schema %S" path ctx other
  | None -> fail "%s: %s: schema is not a string" path ctx);
  let obs = as_list ~path ~ctx:(ctx ^ " obligations")
      (List.assoc "obligations" top)
  in
  (match Option.bind (Json.member "count" json) Json.to_int_opt with
  | Some c when c = List.length obs -> ()
  | Some c ->
      fail "%s: %s: count %d but %d obligations" path ctx c (List.length obs)
  | None -> fail "%s: %s: count is not an int" path ctx);
  List.map
    (fun ob ->
      ignore
        (obj_keys ~path ~ctx:(ctx ^ " obligation")
           [ "file"; "algo"; "family"; "kind"; "name"; "expect"; "descr" ]
           ob);
      (match Option.bind (Json.member "expect" ob) Json.to_string_opt with
      | Some "unsat" -> ()
      | _ -> fail "%s: %s: obligation expects something besides unsat" path ctx);
      match Option.bind (Json.member "file" ob) Json.to_string_opt with
      | Some f -> f
      | None -> fail "%s: %s: obligation file is not a string" path ctx)
    obs

(* On-disk mode: the manifest's sibling .smt2 files must exist, re-parse
   through Smt's reader and lint clean. *)
let check_smt ~path json =
  let files = check_smt_manifest ~path ~ctx:"manifest" json in
  let dir = Filename.dirname path in
  List.iter
    (fun f ->
      let fpath = Filename.concat dir f in
      if not (Sys.file_exists fpath) then
        fail "%s: referenced file %s does not exist" path f;
      match Ssreset_check.Smt.parse_file fpath with
      | Error msg -> fail "%s: %s" fpath msg
      | Ok cmds -> (
          match Ssreset_check.Smt.lint_script cmds with
          | [] -> ()
          | findings ->
              fail "%s: lint findings:\n  %s" fpath
                (String.concat "\n  " findings)))
    files;
  Printf.printf "%s: %d obligation(s), all re-parse and lint clean\n" path
    (List.length files)

let check_report ~path json =
  let top =
    obj_keys ~path ~ctx:"report"
      [ "schema"; "schema_version"; "ok"; "entries" ]
      json
  in
  (match Option.bind (Json.member "schema" json) Json.to_string_opt with
  | Some "ssreset-check-v3" -> ()
  | Some other -> fail "%s: unexpected schema %S" path other
  | None -> fail "%s: schema is not a string" path);
  (match Option.bind (Json.member "schema_version" json) Json.to_int_opt with
  | Some v when v >= 3 -> ()
  | Some v -> fail "%s: schema_version %d < 3" path v
  | None -> fail "%s: schema_version is not an int" path);
  let entries =
    as_list ~path ~ctx:"entries" (List.assoc "entries" top)
  in
  List.iter
    (fun entry ->
      let name =
        match Option.bind (Json.member "name" entry) Json.to_string_opt with
        | Some n -> n
        | None -> fail "%s: entry without a name" path
      in
      let ctx = "entry " ^ name in
      ignore
        (obj_keys ~path ~ctx
           [ "name"; "description"; "lint"; "footprint"; "sym";
             "obligations"; "model"; "ok" ]
           entry);
      (match Json.member "lint" entry with
      | Some lint ->
          ignore (obj_keys ~path ~ctx:(ctx ^ " lint")
                    [ "ok"; "views"; "findings" ] lint)
      | None -> assert false);
      (match Json.member "footprint" entry with
      | Some Json.Null | None -> ()
      | Some fp ->
          let fields =
            obj_keys ~path ~ctx:(ctx ^ " footprint")
              [ "ok"; "composed"; "fields"; "views"; "rules"; "findings" ]
              fp
          in
          List.iter
            (fun rule ->
              ignore
                (obj_keys ~path ~ctx:(ctx ^ " footprint rule")
                   [ "rule"; "guard_self"; "guard_nbrs"; "action_self";
                     "action_nbrs"; "writes" ]
                   rule))
            (as_list ~path ~ctx:(ctx ^ " footprint rules")
               (List.assoc "rules" fields)));
      (match Json.member "sym" entry with
      | Some Json.Null | None -> ()
      | Some sym ->
          let fields =
            obj_keys ~path ~ctx:(ctx ^ " sym")
              [ "ok"; "views"; "steps"; "daemons"; "mismatches" ]
              sym
          in
          List.iter
            (fun m ->
              ignore
                (obj_keys ~path ~ctx:(ctx ^ " sym mismatch")
                   [ "where"; "rules"; "detail"; "count" ]
                   m))
            (as_list ~path ~ctx:(ctx ^ " sym mismatches")
               (List.assoc "mismatches" fields)));
      (match Json.member "obligations" entry with
      | Some Json.Null | None -> ()
      | Some obs ->
          ignore (check_smt_manifest ~path ~ctx:(ctx ^ " obligations") obs));
      match Json.member "model" entry with
      | None -> assert false
      | Some model ->
          let mfields =
            obj_keys ~path ~ctx:(ctx ^ " model") [ "ok"; "graphs" ] model
          in
          List.iter
            (fun g ->
              ignore
                (obj_keys ~path ~ctx:(ctx ^ " model graph")
                   [ "instance"; "n"; "m"; "configs"; "transitions";
                     "automorphisms"; "certificate"; "violations";
                     "aborted"; "worst_moves"; "worst_rounds" ]
                   g))
            (as_list ~path ~ctx:(ctx ^ " model graphs")
               (List.assoc "graphs" mfields)))
    entries

let () =
  let jsonl = ref false in
  let report = ref false in
  let smt = ref false in
  let trace = ref false in
  let prof = ref false in
  let require_keys = ref [] in
  let require_types = ref [] in
  let files = ref [] in
  let argc = Array.length Sys.argv in
  let i = ref 1 in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--jsonl" -> jsonl := true
    | "--check-report" -> report := true
    | "--check-smt" -> smt := true
    | "--check-trace" -> trace := true
    | "--check-prof" -> prof := true
    | "--require-keys" when !i + 1 < argc ->
        incr i;
        require_keys := split_commas Sys.argv.(!i)
    | "--require-types" when !i + 1 < argc ->
        incr i;
        require_types := split_commas Sys.argv.(!i)
    | "--help" | "-h" ->
        print_endline
          "usage: jsonlint [--jsonl] [--require-keys k,...] \
           [--require-types t,...] [--check-report] [--check-smt] \
           [--check-trace] [--check-prof] FILE...";
        exit 0
    | arg when String.length arg > 0 && arg.[0] = '-' ->
        fail "unknown option %S" arg
    | file -> files := file :: !files);
    incr i
  done;
  if !files = [] then fail "jsonlint: no input file";
  List.iter
    (fun path ->
      let contents = read_file path in
      if !trace then begin
        match Ssreset_obs.Tracefile.load_file path with
        | Ok _ -> ()
        | Error msg -> fail "%s" msg
      end
      else if !prof then begin
        match Ssreset_obs.Proffile.load_file path with
        | Ok _ -> ()
        | Error msg -> fail "%s" msg
      end
      else if !jsonl then begin
        let seen = Hashtbl.create 8 in
        let lines = String.split_on_char '\n' contents in
        List.iteri
          (fun lineno line ->
            if String.trim line <> "" then
              match Json.of_string line with
              | Error msg -> fail "%s:%d: %s" path (lineno + 1) msg
              | Ok json -> (
                  match Option.bind (Json.member "type" json) Json.to_string_opt with
                  | Some ty -> Hashtbl.replace seen ty ()
                  | None -> ()))
          lines;
        List.iter
          (fun ty ->
            if not (Hashtbl.mem seen ty) then
              fail "%s: no record of type %S" path ty)
          !require_types
      end
      else
        match Json.of_string contents with
        | Error msg -> fail "%s: %s" path msg
        | Ok json ->
            check_keys ~path !require_keys json;
            if !report then check_report ~path json;
            if !smt then check_smt ~path json)
    (List.rev !files)
