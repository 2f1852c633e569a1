type t = {
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
}

let make ~title ~headers ?(notes = []) rows =
  List.iter
    (fun row ->
      if List.length row <> List.length headers then
        invalid_arg
          (Printf.sprintf "Table.make (%s): row width %d, expected %d" title
             (List.length row) (List.length headers)))
    rows;
  { title; headers; rows; notes }

let render t =
  let cols = List.length t.headers in
  let widths = Array.make cols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure t.headers;
  List.iter measure t.rows;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  let add_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  add_row t.headers;
  Buffer.add_string buf
    (String.make (Array.fold_left ( + ) (2 * (cols - 1)) widths) '-');
  Buffer.add_char buf '\n';
  List.iter add_row t.rows;
  List.iter
    (fun note ->
      Buffer.add_string buf "  note: ";
      Buffer.add_string buf note;
      Buffer.add_char buf '\n')
    t.notes;
  Buffer.contents buf

let print t = print_string (render t)

let csv_cell cell =
  if
    String.exists
      (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r')
      cell
  then begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else cell

let to_csv t =
  let buf = Buffer.create 1024 in
  let add_row row =
    Buffer.add_string buf (String.concat "," (List.map csv_cell row));
    Buffer.add_char buf '\n'
  in
  add_row t.headers;
  List.iter add_row t.rows;
  Buffer.contents buf

let to_json t =
  let module Json = Ssreset_obs.Json in
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  Json.Obj
    [ ("title", Json.String t.title);
      ("headers", strings t.headers);
      ("rows", Json.List (List.map strings t.rows));
      ("notes", strings t.notes) ]

let cell_int = string_of_int
let cell_float f = Printf.sprintf "%.2f" f
let cell_bool b = if b then "ok" else "FAIL"

let all_ok t ~col =
  List.for_all
    (fun row -> match List.nth_opt row col with
      | Some "ok" -> true
      | _ -> false)
    t.rows

let ok table =
  match List.rev table.headers with
  | "ok" :: _ -> all_ok table ~col:(List.length table.headers - 1)
  | _ -> true
