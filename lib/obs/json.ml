type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------- encoder ------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  if not (Float.is_finite f) then
    (* NaN or infinite: JSON has no spelling for these. *)
    Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else
    (* Shortest decimal that round-trips the binary value. *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then Buffer.add_string buf s
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec add buf ~indent ~level t =
  let sep, colon, open_close =
    match indent with
    | None -> ((fun () -> Buffer.add_char buf ','), ":", fun o c body ->
        Buffer.add_char buf o; body (); Buffer.add_char buf c)
    | Some step ->
        let pad l = Buffer.add_string buf (String.make (l * step) ' ') in
        ( (fun () -> Buffer.add_string buf ",\n"; pad (level + 1)),
          ": ",
          fun o c body ->
            Buffer.add_char buf o;
            Buffer.add_char buf '\n';
            pad (level + 1);
            body ();
            Buffer.add_char buf '\n';
            pad level;
            Buffer.add_char buf c )
  in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> add_escaped buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      open_close '[' ']' (fun () ->
          List.iteri
            (fun i item ->
              if i > 0 then sep ();
              add buf ~indent ~level:(level + 1) item)
            items)
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      open_close '{' '}' (fun () ->
          List.iteri
            (fun i (k, v) ->
              if i > 0 then sep ();
              add_escaped buf k;
              Buffer.add_string buf colon;
              add buf ~indent ~level:(level + 1) v)
            fields)

let to_string t =
  let buf = Buffer.create 256 in
  add buf ~indent:None ~level:0 t;
  Buffer.contents buf

let to_string_hum t =
  let buf = Buffer.create 1024 in
  add buf ~indent:(Some 2) ~level:0 t;
  Buffer.contents buf

(* -------------------------------- parser ------------------------------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> parse_error "expected %C at offset %d, found %C" ch c.pos x
  | None -> parse_error "expected %C, found end of input" ch

let literal c word value =
  let len = String.length word in
  if
    c.pos + len <= String.length c.src
    && String.equal (String.sub c.src c.pos len) word
  then begin
    c.pos <- c.pos + len;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

let parse_hex4 c =
  if c.pos + 4 > String.length c.src then parse_error "truncated \\u escape";
  let v = int_of_string ("0x" ^ String.sub c.src c.pos 4) in
  c.pos <- c.pos + 4;
  v

let utf8_of_code buf code =
  (* Encode a Unicode scalar value as UTF-8. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> parse_error "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | None -> parse_error "unterminated escape"
        | Some ch ->
            c.pos <- c.pos + 1;
            (match ch with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let hi = parse_hex4 c in
                let code =
                  if hi >= 0xD800 && hi <= 0xDBFF then begin
                    (* Surrogate pair. *)
                    expect c '\\';
                    expect c 'u';
                    let lo = parse_hex4 c in
                    0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
                  end
                  else hi
                in
                utf8_of_code buf code
            | ch -> parse_error "invalid escape \\%c" ch);
            loop ())
    | Some ch ->
        c.pos <- c.pos + 1;
        Buffer.add_char buf ch;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch -> is_num_char ch | None -> false do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  let is_float =
    String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') s
  in
  if is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> parse_error "invalid number %S" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> parse_error "invalid number %S" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields ((key, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((key, v) :: acc)
          | _ -> parse_error "expected ',' or '}' at offset %d" c.pos
        in
        Obj (fields [])
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> parse_error "expected ',' or ']' at offset %d" c.pos
        in
        List (items [])
      end
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> parse_error "unexpected character %C at offset %d" ch c.pos

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

let of_string_exn s =
  match of_string s with Ok v -> v | Error msg -> failwith msg

(* ------------------------------- accessors ----------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let equal (a : t) (b : t) = a = b

(* --------------------------- validating readers ------------------------ *)

exception Invalid of string

let invalidf fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let field ~ctx what conv name json =
  match Option.bind (member name json) conv with
  | Some v -> v
  | None -> invalidf "%s: %S is missing or not %s" ctx name what

let int_field ~ctx = field ~ctx "an int" to_int_opt
let float_field ~ctx = field ~ctx "a number" to_float_opt
let string_field ~ctx = field ~ctx "a string" to_string_opt

let list_field ~ctx =
  field ~ctx "a list" (function List l -> Some l | _ -> None)

let obj_field ~ctx =
  field ~ctx "an object" (function Obj fields -> Some fields | _ -> None)

let assoc ~ctx what conv fields =
  List.map
    (fun (name, v) ->
      match conv v with
      | Some x -> (name, x)
      | None -> invalidf "%s: field %S is not %s" ctx name what)
    fields

let int_assoc ~ctx = assoc ~ctx "an int" to_int_opt
let float_assoc ~ctx = assoc ~ctx "a number" to_float_opt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
