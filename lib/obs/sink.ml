type t = { oc : out_channel; owned : bool }

let create path = { oc = open_out path; owned = true }
let of_channel oc = { oc; owned = false }

let write t json =
  output_string t.oc (Json.to_string json);
  output_char t.oc '\n';
  flush t.oc

let close t = if t.owned then close_out t.oc else flush t.oc

let schema_version = 1

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    match (status, line) with
    | Unix.WEXITED 0, line when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let manifest ?(extra = []) ~system ~family ~n ~m ~seed ~daemon () =
  Json.Obj
    ([ ("type", Json.String "manifest");
       ("schema", Json.Int schema_version);
       ("system", Json.String system);
       ("family", Json.String family);
       ("n", Json.Int n);
       ("m", Json.Int m);
       ("seed", Json.Int seed);
       ("daemon", Json.String daemon);
       ("git", Json.String (git_describe ())) ]
    @ extra)

let wave_tag = function
  | Span.Init -> [ ("w", Json.String "init") ]
  | Span.Join { parent; d } ->
      [ ("w", Json.String "join"); ("parent", Json.Int parent);
        ("d", Json.Int d) ]
  | Span.Feedback -> [ ("w", Json.String "rf") ]
  | Span.Complete -> [ ("w", Json.String "c") ]

let step_record ~step ~movers =
  Json.Obj
    [ ("type", Json.String "step");
      ("step", Json.Int step);
      ( "movers",
        Json.List
          (List.map
             (fun (p, rule, wave) ->
               Json.Obj
                 ([ ("p", Json.Int p); ("rule", Json.String rule) ]
                 @ match wave with Some ev -> wave_tag ev | None -> []))
             movers) ) ]

let init_record ~active =
  Json.Obj
    [ ("type", Json.String "init");
      ( "active",
        Json.List
          (List.map
             (fun (p, st, d) ->
               Json.Obj
                 [ ("p", Json.Int p); ("st", Json.String st);
                   ("d", Json.Int d) ])
             active) ) ]

let round_record ?(extra = []) ~round ~steps ~moves () =
  Json.Obj
    ([ ("type", Json.String "round");
       ("round", Json.Int round);
       ("steps", Json.Int steps);
       ("moves", Json.Int moves) ]
    @ extra)

let summary ?(extra = []) ~outcome ~rounds ~steps ~moves ~wall_s () =
  Json.Obj
    ([ ("type", Json.String "summary");
       ("outcome", Json.String outcome);
       ("rounds", Json.Int rounds);
       ("steps", Json.Int steps);
       ("moves", Json.Int moves);
       ("wall_s", Json.Float wall_s);
       ("steps_per_s", Json.Float (Metrics.rate steps wall_s)) ]
    @ extra)
