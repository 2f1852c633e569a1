type input = {
  state : int array array;
  offsets : int array;
  nbrs : int array;
  params : (string * int) list;
}

type t = {
  eval : int -> int;
  post : int -> int -> int array -> int -> unit;
}

let param g name =
  match List.assoc_opt name g.params with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Flat: unbound parameter %s" name)
