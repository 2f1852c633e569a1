type t = { n : int; offsets : int array; nbrs : int array }

exception Invalid_csr of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_csr s)) fmt
let n t = t.n
let m t = Array.length t.nbrs / 2
let degree t u = t.offsets.(u + 1) - t.offsets.(u)

let max_degree t =
  let d = ref 0 in
  for u = 0 to t.n - 1 do
    if degree t u > !d then d := degree t u
  done;
  !d

(* Binary search for [v] in row [u]; rows are sorted. *)
let has_edge t u v =
  let lo = ref t.offsets.(u) and hi = ref t.offsets.(u + 1) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let w = t.nbrs.(mid) in
    if w = v then found := true else if w < v then lo := mid + 1 else hi := mid
  done;
  !found

let make ~n ~offsets ~nbrs =
  if n <= 0 then invalid "csr: need n >= 1, got %d" n;
  if Array.length offsets <> n + 1 then
    invalid "csr: offsets length %d, expected %d" (Array.length offsets) (n + 1);
  if offsets.(0) <> 0 then invalid "csr: offsets.(0) = %d" offsets.(0);
  if offsets.(n) <> Array.length nbrs then
    invalid "csr: offsets.(%d) = %d, nbrs length %d" n offsets.(n)
      (Array.length nbrs);
  let t = { n; offsets; nbrs } in
  for u = 0 to n - 1 do
    if offsets.(u + 1) < offsets.(u) then
      invalid "csr: offsets not monotone at %d" u;
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = nbrs.(i) in
      if v < 0 || v >= n then invalid "csr: neighbor %d out of range" v;
      if v = u then invalid "csr: self-loop on %d" u;
      if i > offsets.(u) && nbrs.(i - 1) >= v then
        invalid "csr: row %d not strictly sorted" u
    done
  done;
  (* Symmetry: every arc must have its mirror. *)
  for u = 0 to n - 1 do
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      if not (has_edge t t.nbrs.(i) u) then
        invalid "csr: arc (%d,%d) has no mirror" u nbrs.(i)
    done
  done;
  t

(* In-place insertion sort of nbrs[lo..hi) — rows are short (≈ Δ), and the
   generators emit them nearly sorted already. *)
let sort_row nbrs lo hi =
  for i = lo + 1 to hi - 1 do
    let x = nbrs.(i) in
    let j = ref (i - 1) in
    while !j >= lo && nbrs.(!j) > x do
      nbrs.(!j + 1) <- nbrs.(!j);
      decr j
    done;
    nbrs.(!j + 1) <- x
  done

let ring n =
  if n < 3 then invalid "ring: need n >= 3, got %d" n;
  let offsets = Array.init (n + 1) (fun u -> 2 * u) in
  let nbrs = Array.make (2 * n) 0 in
  for u = 0 to n - 1 do
    let a = (u + n - 1) mod n and b = (u + 1) mod n in
    nbrs.(2 * u) <- min a b;
    nbrs.((2 * u) + 1) <- max a b
  done;
  { n; offsets; nbrs }

let torus w h =
  if w < 3 || h < 3 then invalid "torus: need w,h >= 3";
  let n = w * h in
  (* 4-regular: row of u = sorted {left, right, up, down}. *)
  let offsets = Array.init (n + 1) (fun u -> 4 * u) in
  let nbrs = Array.make (4 * n) 0 in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let u = (y * w) + x in
      let base = 4 * u in
      nbrs.(base) <- (y * w) + ((x + w - 1) mod w);
      nbrs.(base + 1) <- (y * w) + ((x + 1) mod w);
      nbrs.(base + 2) <- (((y + h - 1) mod h) * w) + x;
      nbrs.(base + 3) <- (((y + 1) mod h) * w) + x;
      sort_row nbrs base (base + 4)
    done
  done;
  { n; offsets; nbrs }

let random_regular_ish rng n k =
  if n < 3 then invalid "random_regular_ish: need n >= 3, got %d" n;
  if k < 2 then invalid "random_regular_ish: need k >= 2, got %d" k;
  let k = min k (n - 1) in
  let target_m = min (n * k / 2) (n * (n - 1) / 2) in
  (* Chords beyond the ring backbone: flat pair buffer + dedup table.
     Same draw order as Gen.random_regular_ish, so equal seeds give the
     identical edge set. *)
  let extra = max 0 (target_m - n) in
  let chord_u = Array.make (max 1 extra) 0 in
  let chord_v = Array.make (max 1 extra) 0 in
  let present = Hashtbl.create (4 * n) in
  let n_chords = ref 0 in
  let missing = ref extra in
  let attempts = ref (20 * n * k) in
  while !missing > 0 && !attempts > 0 do
    decr attempts;
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v then begin
      let a = min u v and b = max u v in
      (* Ring edges are present implicitly. *)
      let on_ring = b - a = 1 || (a = 0 && b = n - 1) in
      let key = (a * n) + b in
      if (not on_ring) && not (Hashtbl.mem present key) then begin
        Hashtbl.replace present key ();
        chord_u.(!n_chords) <- a;
        chord_v.(!n_chords) <- b;
        incr n_chords;
        decr missing
      end
    end
  done;
  let deg = Array.make n 2 in
  for i = 0 to !n_chords - 1 do
    deg.(chord_u.(i)) <- deg.(chord_u.(i)) + 1;
    deg.(chord_v.(i)) <- deg.(chord_v.(i)) + 1
  done;
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + deg.(u)
  done;
  let nbrs = Array.make offsets.(n) 0 in
  let cursor = Array.copy offsets in
  let push u v =
    nbrs.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1
  in
  for u = 0 to n - 1 do
    push u ((u + n - 1) mod n);
    push u ((u + 1) mod n)
  done;
  for i = 0 to !n_chords - 1 do
    push chord_u.(i) chord_v.(i);
    push chord_v.(i) chord_u.(i)
  done;
  for u = 0 to n - 1 do
    sort_row nbrs offsets.(u) offsets.(u + 1)
  done;
  { n; offsets; nbrs }

let of_graph g =
  let n = Graph.n g in
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + Graph.degree g u
  done;
  let nbrs = Array.make offsets.(n) 0 in
  for u = 0 to n - 1 do
    Array.blit (Graph.neighbors g u) 0 nbrs offsets.(u) (Graph.degree g u)
  done;
  { n; offsets; nbrs }

let to_graph t =
  let edges = ref [] in
  for u = 0 to t.n - 1 do
    for i = t.offsets.(u) to t.offsets.(u + 1) - 1 do
      let v = t.nbrs.(i) in
      if u < v then edges := (u, v) :: !edges
    done
  done;
  Graph.make ~n:t.n ~edges:!edges
