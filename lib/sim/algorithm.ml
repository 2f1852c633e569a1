module Graph = Ssreset_graph.Graph

type 'state view = {
  state : 'state;
  nbrs : 'state array;
}

type 'state rule = {
  rule_name : string;
  guard : 'state view -> bool;
  action : 'state view -> 'state;
}

type 'state t = {
  name : string;
  rules : 'state rule list;
  equal : 'state -> 'state -> bool;
  pp : 'state Fmt.t;
}

let view g cfg u =
  let nbr_ids = Graph.neighbors g u in
  { state = cfg.(u); nbrs = Array.map (fun v -> cfg.(v)) nbr_ids }

let views g cfg = Array.init (Graph.n g) (view g cfg)

let enabled_rule algo v = List.find_opt (fun r -> r.guard v) algo.rules
let is_enabled algo v = List.exists (fun r -> r.guard v) algo.rules

let enabled_processes algo g cfg =
  let acc = ref [] in
  for u = Graph.n g - 1 downto 0 do
    if is_enabled algo (view g cfg u) then acc := u :: !acc
  done;
  !acc

let is_terminal algo g cfg = enabled_processes algo g cfg = []

let for_all_views g cfg ~f =
  let n = Graph.n g in
  let rec loop u = u >= n || (f u (view g cfg u) && loop (u + 1)) in
  loop 0

let exclusive_rules algo v =
  List.filter_map
    (fun r -> if r.guard v then Some r.rule_name else None)
    algo.rules

module Tracker = struct
  type 'state t = {
    graph : Graph.t;
    pred : 'state view -> bool;
    holds : bool array;  (* as of each process's last evaluation *)
    (* The processes where [holds] is true, as a sparse set:
       [holders.(0 .. count-1)], with [slot.(u)] the index of [u]. *)
    holders : int array;
    slot : int array;
    mutable count : int;
    mutable rose : bool;
    (* Processes marked for re-evaluation: a stack deduplicated by [stale].
       Entries resolved early by [exists] stay on it until the next flush,
       so it holds up to 2n entries and is compacted when full. *)
    stale : bool array;
    marked : int array;
    mutable nmarked : int;
  }

  let add t u =
    t.holders.(t.count) <- u;
    t.slot.(u) <- t.count;
    t.count <- t.count + 1

  let remove t u =
    let i = t.slot.(u) and last = t.holders.(t.count - 1) in
    t.holders.(i) <- last;
    t.slot.(last) <- i;
    t.count <- t.count - 1

  let create graph pred cfg =
    let n = Graph.n graph in
    let t =
      { graph;
        pred;
        holds = Array.make n false;
        holders = Array.make n 0;
        slot = Array.make n 0;
        count = 0;
        rose = false;
        stale = Array.make n false;
        marked = Array.make (2 * n) 0;
        nmarked = 0 }
    in
    for u = 0 to n - 1 do
      if pred (view graph cfg u) then begin
        t.holds.(u) <- true;
        add t u
      end
    done;
    t

  let eval t cfg u =
    t.stale.(u) <- false;
    let now = t.pred (view t.graph cfg u) in
    if now <> t.holds.(u) then begin
      t.holds.(u) <- now;
      if now then begin
        add t u;
        t.rose <- true
      end
      else remove t u
    end

  (* Keep one entry per stale process (clearing the flag meanwhile drops
     the duplicates a resolved-then-remarked process leaves behind). *)
  let compact t =
    let k = ref 0 in
    for i = 0 to t.nmarked - 1 do
      let u = t.marked.(i) in
      if t.stale.(u) then begin
        t.stale.(u) <- false;
        t.marked.(!k) <- u;
        incr k
      end
    done;
    for i = 0 to !k - 1 do
      t.stale.(t.marked.(i)) <- true
    done;
    t.nmarked <- !k

  (* The predicate reads only a closed neighborhood, and only the movers
     changed state: the movers' closed neighborhoods are the only processes
     whose value can have changed. *)
  let mark t ~moved =
    let touch u =
      if not t.stale.(u) then begin
        (* Fewer than n processes are stale here, so compacting a full
           stack of 2n frees more than n entries: amortized O(1). *)
        if t.nmarked = Array.length t.marked then compact t;
        t.stale.(u) <- true;
        t.marked.(t.nmarked) <- u;
        t.nmarked <- t.nmarked + 1
      end
    in
    List.iter
      (fun (u, _) ->
        touch u;
        Array.iter touch (Graph.neighbors t.graph u))
      moved

  let flush t cfg =
    for i = 0 to t.nmarked - 1 do
      let u = t.marked.(i) in
      if t.stale.(u) then eval t cfg u
    done;
    t.nmarked <- 0

  let update t ~moved cfg =
    mark t ~moved;
    flush t cfg

  (* A holder that is not stale is a witness.  A stale one is re-evaluated
     and, if it no longer holds, leaves the set; only when no holder is left
     are the remaining marks resolved.  Every evaluation resolves one mark,
     so this never costs more than [flush]. *)
  let rec exists t cfg =
    if t.count = 0 then begin
      flush t cfg;
      t.count > 0
    end
    else
      let w = t.holders.(0) in
      if not t.stale.(w) then true
      else begin
        eval t cfg w;
        exists t cfg
      end

  let count t = t.count
  let rose t = t.rose

  let members t =
    let acc = ref [] in
    for u = Array.length t.holds - 1 downto 0 do
      if t.holds.(u) then acc := u :: !acc
    done;
    !acc
end
