type sexp = Atom of string | List of sexp list
type script = { header : string list; body : sexp list }

let atom a = Atom a
let list l = List l
let app f = function [] -> Atom f | args -> List (Atom f :: args)

(* --- printing --------------------------------------------------------- *)

let rec pp_sexp ppf = function
  | Atom a -> Fmt.string ppf a
  | List [] -> Fmt.string ppf "()"
  | List xs -> Fmt.pf ppf "@[<hov 1>(%a)@]" Fmt.(list ~sep:sp pp_sexp) xs

let pp_script ppf { header; body } =
  List.iter (fun l -> Fmt.pf ppf "; %s@\n" l) header;
  List.iter (fun s -> Fmt.pf ppf "%a@\n" pp_sexp s) body

let to_string s = Fmt.str "%a" pp_script s

let write_file path s =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string s))

(* --- parsing ---------------------------------------------------------- *)

exception Parse_err of string

let parse_string s =
  let n = String.length s in
  let pos = ref 0 in
  let line = ref 1 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () =
    if s.[!pos] = '\n' then incr line;
    incr pos
  in
  let fail fmt =
    Fmt.kstr (fun m -> raise (Parse_err (Fmt.str "line %d: %s" !line m))) fmt
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        skip_line ();
        skip_ws ()
    | _ -> ()
  and skip_line () =
    match peek () with
    | None | Some '\n' -> ()
    | Some _ ->
        advance ();
        skip_line ()
  in
  (* String literals and |…| symbols keep their delimiters in the atom so
     printing is the identity on parsed scripts. *)
  let read_string buf =
    Buffer.add_char buf '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string literal"
      | Some '"' ->
          advance ();
          if peek () = Some '"' then begin
            (* escaped quote *)
            Buffer.add_string buf "\"\"";
            advance ();
            go ()
          end
          else begin
            Buffer.add_char buf '"';
            Buffer.contents buf
          end
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ()
  in
  let read_quoted buf =
    Buffer.add_char buf '|';
    let rec go () =
      match peek () with
      | None -> fail "unterminated |symbol|"
      | Some '|' ->
          advance ();
          Buffer.add_char buf '|';
          Buffer.contents buf
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ()
  in
  let is_atom_char = function
    | '(' | ')' | ';' | '"' | '|' | ' ' | '\t' | '\r' | '\n' -> false
    | _ -> true
  in
  let read_atom buf =
    let rec go () =
      match peek () with
      | Some c when is_atom_char c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      | _ -> Buffer.contents buf
    in
    go ()
  in
  let rec read_sexp () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '(' ->
        advance ();
        read_list []
    | Some ')' -> fail "unexpected ')'"
    | Some '"' ->
        advance ();
        Atom (read_string (Buffer.create 16))
    | Some '|' ->
        advance ();
        Atom (read_quoted (Buffer.create 16))
    | Some _ -> Atom (read_atom (Buffer.create 16))
  and read_list acc =
    skip_ws ();
    match peek () with
    | None -> fail "unclosed '('"
    | Some ')' ->
        advance ();
        List (List.rev acc)
    | Some _ -> read_list (read_sexp () :: acc)
  in
  let rec top acc =
    skip_ws ();
    if !pos >= n then List.rev acc else top (read_sexp () :: acc)
  in
  match top [] with v -> Ok v | exception Parse_err m -> Error m

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> parse_string contents
  | exception Sys_error m -> Error m

(* --- lint ------------------------------------------------------------- *)

let builtin_sorts = [ "Bool"; "Int" ]

let builtin_funs =
  [ "true"; "false"; "and"; "or"; "not"; "=>"; "="; "distinct"; "ite";
    "<="; "<"; ">="; ">"; "+"; "-"; "*"; "div"; "mod"; "abs" ]

let is_numeral a =
  a <> "" && String.for_all (fun c -> '0' <= c && c <= '9') a

let is_literal a = is_numeral a || (a <> "" && a.[0] = '"')

let lint_script cmds =
  let findings = ref [] in
  let err fmt = Fmt.kstr (fun m -> findings := m :: !findings) fmt in
  let sorts : (string, bool ref) Hashtbl.t = Hashtbl.create 16 in
  let funs : (string, bool ref) Hashtbl.t = Hashtbl.create 16 in
  let declare tbl kind name =
    if Hashtbl.mem sorts name || Hashtbl.mem funs name then
      err "%s %s redeclared" kind name
    else Hashtbl.add tbl name (ref false)
  in
  let use_sort = function
    | Atom a when List.mem a builtin_sorts -> ()
    | Atom a -> (
        match Hashtbl.find_opt sorts a with
        | Some used -> used := true
        | None -> err "unknown sort %s" a)
    | List _ as s -> err "unsupported compound sort %a" pp_sexp s
  in
  let use_fun bound f =
    if List.mem f builtin_funs || List.mem f bound then ()
    else
      match Hashtbl.find_opt funs f with
      | Some used -> used := true
      | None -> err "free symbol %s" f
  in
  let rec use_term bound = function
    | Atom a when is_literal a -> ()
    | Atom a -> use_fun bound a
    | List (Atom (("forall" | "exists") as q) :: rest) -> (
        match rest with
        | [ List binders; body ] ->
            let names =
              List.filter_map
                (function
                  | List [ Atom x; sort ] ->
                      use_sort sort;
                      Some x
                  | b ->
                      err "%s: malformed binder %a" q pp_sexp b;
                      None)
                binders
            in
            use_term (names @ bound) body
        | _ -> err "malformed %s" q)
    | List (Atom "let" :: rest) -> (
        match rest with
        | [ List binders; body ] ->
            let names =
              List.filter_map
                (function
                  | List [ Atom x; t ] ->
                      use_term bound t;
                      Some x
                  | b ->
                      err "let: malformed binding %a" pp_sexp b;
                      None)
                binders
            in
            use_term (names @ bound) body
        | _ -> err "malformed let")
    | List (Atom f :: args) ->
        use_fun bound f;
        List.iter (use_term bound) args
    | List _ as t -> err "malformed application %a" pp_sexp t
  in
  let check_sat = ref false in
  List.iter
    (function
      | List (Atom ("set-logic" | "set-info" | "set-option") :: _) -> ()
      | List [ Atom "check-sat" ] -> check_sat := true
      | List [ Atom "exit" ] | List (Atom ("get-model" | "echo") :: _) -> ()
      | List [ Atom "declare-sort"; Atom name; Atom arity ] ->
          if not (is_numeral arity) then
            err "declare-sort %s: bad arity %s" name arity;
          declare sorts "sort" name
      | List [ Atom "declare-const"; Atom name; sort ] ->
          use_sort sort;
          declare funs "const" name
      | List [ Atom "declare-fun"; Atom name; List args; ret ] ->
          List.iter use_sort args;
          use_sort ret;
          declare funs "fun" name
      | List (Atom "define-fun" :: rest) -> (
          match rest with
          | [ Atom name; List params; ret; body ] ->
              let names =
                List.filter_map
                  (function
                    | List [ Atom x; sort ] ->
                        use_sort sort;
                        Some x
                    | b ->
                        err "define-fun %s: malformed param %a" name pp_sexp
                          b;
                        None)
                  params
              in
              use_sort ret;
              use_term names body;
              declare funs "fun" name
          | _ -> err "malformed define-fun")
      | List (Atom "assert" :: rest) -> (
          match rest with
          | [ t ] -> use_term [] t
          | _ -> err "malformed assert")
      | Atom a -> err "top-level atom %s" a
      | List (Atom c :: _) -> err "unknown command %s" c
      | List _ as c -> err "malformed command %a" pp_sexp c)
    cmds;
  if not !check_sat then err "no check-sat command";
  let unused tbl kind =
    Hashtbl.fold
      (fun name used acc -> if !used then acc else (kind, name) :: acc)
      tbl []
  in
  List.iter
    (fun (kind, name) -> err "%s %s declared but never used" kind name)
    (List.sort compare (unused sorts "sort" @ unused funs "fun"));
  List.rev !findings

(* --- solver glue ------------------------------------------------------ *)

type verdict = Sat | Unsat | Unknown | Solver_error of string

let verdict_to_string = function
  | Sat -> "sat"
  | Unsat -> "unsat"
  | Unknown -> "unknown"
  | Solver_error m -> "error: " ^ m

let solver_available solver =
  Sys.command
    (Printf.sprintf "command -v %s >/dev/null 2>&1" (Filename.quote solver))
  = 0

let solve ~solver ?(args = []) script =
  let path = Filename.temp_file "ssreset-smt" ".smt2" in
  let out = Filename.temp_file "ssreset-smt" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ path; out ])
    (fun () ->
      write_file path script;
      let cmd =
        String.concat " "
          (List.map Filename.quote ((solver :: args) @ [ path ]))
        ^ " > " ^ Filename.quote out ^ " 2>&1"
      in
      let code = Sys.command cmd in
      let text = In_channel.with_open_text out In_channel.input_all in
      let first =
        String.split_on_char '\n' text
        |> List.map String.trim
        |> List.find_opt (fun l -> l <> "")
      in
      match first with
      | Some "sat" -> Sat
      | Some "unsat" -> Unsat
      | Some "unknown" -> Unknown
      (* z3's -T: soft timeout prints "timeout" instead of "unknown". *)
      | Some "timeout" -> Unknown
      | Some other -> Solver_error (Printf.sprintf "exit %d: %s" code other)
      | None -> Solver_error (Printf.sprintf "exit %d: no output" code))
