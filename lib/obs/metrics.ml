type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  le : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* same length as [le] *)
  mutable overflow : int;
  mutable sum : float;
  mutable count : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  mutable instruments : (string * instrument) list;  (* reversed *)
  index : (string, instrument) Hashtbl.t;
}

let create () = { instruments = []; index = Hashtbl.create 16 }

let register t name inst =
  t.instruments <- (name, inst) :: t.instruments;
  Hashtbl.replace t.index name inst;
  inst

let counter t name =
  match Hashtbl.find_opt t.index name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None -> (
      match register t name (Counter { c = 0 }) with
      | Counter c -> c
      | _ -> assert false)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c

let gauge t name =
  match Hashtbl.find_opt t.index name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None -> (
      match register t name (Gauge { g = 0. }) with
      | Gauge g -> g
      | _ -> assert false)

let set g v = g.g <- v
let gauge_value g = g.g
let rate count secs = if secs > 0. then float_of_int count /. secs else 0.

let histogram t name ~buckets =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: empty bucket list";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must be strictly increasing")
    buckets;
  match Hashtbl.find_opt t.index name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None -> (
      let h =
        { le = Array.copy buckets;
          counts = Array.make (Array.length buckets) 0;
          overflow = 0; sum = 0.; count = 0 }
      in
      match register t name (Histogram h) with
      | Histogram h -> h
      | _ -> assert false)

let observe h v =
  h.sum <- h.sum +. v;
  h.count <- h.count + 1;
  (* Buckets are few (tens); a linear scan beats binary search at this size. *)
  let n = Array.length h.le in
  let rec place i =
    if i >= n then h.overflow <- h.overflow + 1
    else if v <= h.le.(i) then h.counts.(i) <- h.counts.(i) + 1
    else place (i + 1)
  in
  place 0

let histogram_count h = h.count
let histogram_sum h = h.sum

let histogram_quantile h ~p =
  if p < 0. || p > 100. then
    invalid_arg "Metrics.histogram_quantile: need 0 <= p <= 100";
  if h.count = 0 then 0.
  else begin
    let target = p /. 100. *. float_of_int h.count in
    let cum = ref 0 in
    let result = ref None in
    Array.iteri
      (fun i c ->
        cum := !cum + c;
        if !result = None && float_of_int !cum >= target then
          result := Some h.le.(i))
      h.counts;
    match !result with
    | Some b -> b
    | None -> (* target falls in the overflow bucket *) h.le.(Array.length h.le - 1)
  end

(* Snapshots freeze the counter values by name; [diff] then yields exactly
   the increments since the snapshot was taken.  Windowed emitters rest on
   this: each window reports [diff snap t] and re-snapshots, so a monotone
   counter is never double-counted across windows — each increment lands in
   exactly one window. *)
type snapshot = (string * int) list

let snapshot t =
  List.rev
    (List.filter_map
       (function name, Counter c -> Some (name, c.c) | _ -> None)
       t.instruments)

let diff snap t =
  List.rev
    (List.filter_map
       (function
         | name, Counter c ->
             let before =
               match List.assoc_opt name snap with Some v -> v | None -> 0
             in
             if c.c <> before then Some (name, c.c - before) else None
         | _ -> None)
       t.instruments)

let pow2_buckets ~limit =
  if limit < 1. then invalid_arg "Metrics.pow2_buckets: need limit >= 1";
  let rec build acc b = if b >= limit then List.rev (b :: acc) else build (b :: acc) (b *. 2.) in
  Array.of_list (build [] 1.)

let to_json t =
  let ordered = List.rev t.instruments in
  let counters =
    List.filter_map
      (function name, Counter c -> Some (name, Json.Int c.c) | _ -> None)
      ordered
  in
  let gauges =
    List.filter_map
      (function name, Gauge g -> Some (name, Json.Float g.g) | _ -> None)
      ordered
  in
  let histograms =
    List.filter_map
      (function
        | name, Histogram h ->
            Some
              ( name,
                Json.Obj
                  [ ("le", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) h.le)));
                    ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
                    ("overflow", Json.Int h.overflow);
                    ("sum", Json.Float h.sum);
                    ("count", Json.Int h.count) ] )
        | _ -> None)
      ordered
  in
  Json.Obj
    [ ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms) ]
