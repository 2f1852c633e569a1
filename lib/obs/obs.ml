type 'state t = step:int -> moved:(int * string) list -> 'state array -> unit

let combine observers ~step ~moved cfg =
  List.iter (fun obs -> obs ~step ~moved cfg) observers

let on_moved f ~step:_ ~moved _ = List.iter f moved

let default_matches _ = true

let move_counter ?(matches = default_matches) () =
  let count = ref 0 in
  (count, on_moved (fun (_, name) -> if matches name then incr count))

let per_process_moves ~n ?(matches = default_matches) () =
  let counts = Array.make n 0 in
  ( counts,
    on_moved (fun (u, name) -> if matches name then counts.(u) <- counts.(u) + 1)
  )

let sample ~every inner =
  if every <= 1 then inner
  else
    fun ~step ~moved cfg -> if step mod every = 0 then inner ~step ~moved cfg
