module Algorithm = Ssreset_sim.Algorithm
module Graph = Ssreset_graph.Graph

type violation = {
  property : string;
  detail : string;
}

type stats = {
  configs : int;
  transitions : int;
  legitimate : int;
  terminal : int;
  wall_s : float;
}

type t = {
  instance : string;
  graph_n : int;
  graph_m : int;
  stats : stats;
  violations : violation list;
  aborted : string option;
  worst_moves : int option;
  worst_rounds : int option;
  automorphisms : int option;
  certificate : string option;
}

type options = {
  max_configs : int;
  max_round_states : int;
  rounds : [ `Auto | `On | `Off ];
  expect_silent : bool;
  symmetry : bool;
}

let default_options =
  { max_configs = 1_000_000;
    max_round_states = 600_000;
    rounds = `Auto;
    expect_silent = false;
    symmetry = false }

exception Abort of string

(* Growable vector — the state space size is not known in advance. *)
module Vec = struct
  type 'a t = {
    mutable data : 'a array;
    mutable len : int;
    dummy : 'a;
  }

  let create dummy = { data = Array.make 64 dummy; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let grown = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 grown 0 v.len;
      v.data <- grown
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
end

let popcount m =
  let c = ref 0 and x = ref m in
  while !x <> 0 do
    incr c;
    x := !x land (!x - 1)
  done;
  !c

(* All non-empty submasks of [m], descending. *)
let iter_nonempty_submasks m f =
  let s = ref m in
  while !s <> 0 do
    f !s;
    s := (!s - 1) land m
  done

(* Successor edges are packed as [(succ_id lsl 6) lor selected_mask]; the
   mask fits in 6 bits because graphs are capped at n = 6. *)
let pack succ mask = (succ lsl 6) lor mask
let unpack_succ e = e lsr 6
let unpack_mask e = e land 63

let check_instance (type s) ~options
    (module F : Finite.FINITE with type state = s) =
  let t0 = Unix.gettimeofday () in
  let n = Graph.n F.graph in
  let algo = F.algorithm in
  let doms = Array.init n (fun u -> Array.of_list (F.domain u)) in
  (* Symmetry reduction applies only when every process has the same seed
     domain (anonymous instances): then any graph automorphism maps
     configurations to equivalent configurations — provided the algorithm
     is neighbor-order invariant, which the Lint permutation pass checks
     for registered instances — and one representative per orbit
     suffices. *)
  let reduce =
    if not options.symmetry then None
    else
      let sym = Symmetry.of_graph F.graph in
      if Symmetry.order sym <= 1 then None
      else
        let d0 = doms.(0) in
        let uniform =
          Array.for_all
            (fun d ->
              Array.length d = Array.length d0
              && Array.for_all2 algo.Algorithm.equal d d0)
            doms
        in
        if uniform then Some sym else None
  in
  (* State interning.  Uses the polymorphic hash table: instance states are
     pure structural data (ints, records, variants), for which structural
     equality coincides with [algo.equal]. *)
  let state_ids : (s, int) Hashtbl.t = Hashtbl.create 256 in
  let state_dummy = List.hd (F.domain 0) in
  let states : s Vec.t = Vec.create state_dummy in
  let intern_state st =
    match Hashtbl.find_opt state_ids st with
    | Some id -> id
    | None ->
        let id = states.Vec.len in
        Vec.push states st;
        Hashtbl.add state_ids st id;
        id
  in
  (* Configuration interning: a configuration is the int array of its
     processes' state ids, canonicalized to its orbit representative when
     symmetry reduction is on. *)
  let cfg_ids : (int array, int) Hashtbl.t = Hashtbl.create 1024 in
  let cfgs : int array Vec.t = Vec.create [||] in
  let intern_cfg_raw cfg =
    match Hashtbl.find_opt cfg_ids cfg with
    | Some id -> id
    | None ->
        let id = cfgs.Vec.len in
        if id >= options.max_configs then
          raise
            (Abort
               (Printf.sprintf "state space exceeds max_configs = %d"
                  options.max_configs));
        Vec.push cfgs cfg;
        Hashtbl.add cfg_ids cfg id;
        id
  in
  let intern_cfg cfg =
    match reduce with
    | None -> intern_cfg_raw cfg
    | Some sym -> intern_cfg_raw (Symmetry.canonicalize sym cfg)
  in
  let materialize cfg = Array.map (fun sid -> Vec.get states sid) cfg in
  let pp_cfg ppf cfg =
    Fmt.pf ppf "@[<h>[%a]@]"
      Fmt.(array ~sep:(any " ") algo.Algorithm.pp)
      (materialize cfg)
  in
  (* Per-configuration results, filled during exploration. *)
  let enabled_masks = Vec.create 0 in
  let succs : int array Vec.t = Vec.create [||] in
  let legit = Vec.create false in
  let transitions = ref 0 in
  (* Violations: one witness per property, plus an occurrence count. *)
  let vtable : (string, string * int ref) Hashtbl.t = Hashtbl.create 8 in
  let violate property detail =
    match Hashtbl.find_opt vtable property with
    | Some (_, count) -> incr count
    | None -> Hashtbl.add vtable property (detail, ref 1)
  in
  let aborted = ref None in
  (* Rank checking: every explored move of a covered rule must take a
     {!Sym.rank_step}.  Components read [Self] only, so the verdict depends
     on the mover's pre- and post-state alone and is memoized per pair of
     interned state ids. *)
  let check_move =
    match F.certificate with
    | None -> fun _ _ _ _ _ -> ()
    | Some { Finite.rank; params; encode } ->
        let memo : (int * int, (unit, string) result) Hashtbl.t =
          Hashtbl.create 256
        in
        fun cfg u rule pre post ->
          if List.mem rule rank.Sym.rk_rules then begin
            let verdict =
              match Hashtbl.find_opt memo (pre, post) with
              | Some v -> v
              | None ->
                  let v =
                    try
                      Sym.rank_step ~params rank
                        ~pre:(encode (Vec.get states pre))
                        ~post:(encode (Vec.get states post))
                    with Sym.Ill_formed msg ->
                      Error ("rank evaluation failed: " ^ msg)
                  in
                  Hashtbl.add memo (pre, post) v;
                  v
            in
            match verdict with
            | Ok () -> ()
            | Error why ->
                violate "certificate"
                  (Fmt.str "in %a, process %d fires %s: %s" pp_cfg cfg u rule
                     why)
          end
  in
  (try
     (* Seed: the full product of the per-process domains — or, under
        symmetry reduction, one representative per orbit of that product,
        enumerated directly (the raw product is exactly what blows the
        budget on symmetric graphs). *)
     let seed_total =
       Array.fold_left (fun acc d -> acc * Array.length d) 1 doms
     in
     (match reduce with
     | Some sym ->
         (* [seed_total / |Aut|] lower-bounds the orbit count. *)
         if seed_total / Symmetry.order sym > options.max_configs then
           raise
             (Abort
                (Printf.sprintf
                   "seed domain has %d configurations, at least %d orbits \
                    (max %d)"
                   seed_total
                   (seed_total / Symmetry.order sym)
                   options.max_configs));
         (* Intern the common domain first so state id = domain index and
            the canonical digit arrays from the DFS are configurations. *)
         Array.iter (fun st -> ignore (intern_state st)) doms.(0);
         Symmetry.iter_canonical sym ~arity:(Array.length doms.(0))
           (fun digits -> ignore (intern_cfg_raw (Array.copy digits)))
     | None ->
         if seed_total > options.max_configs then
           raise
             (Abort
                (Printf.sprintf "seed domain has %d configurations (max %d)"
                   seed_total options.max_configs));
         for k = 0 to seed_total - 1 do
           let rest = ref k in
           let cfg =
             Array.init n (fun u ->
                 let len = Array.length doms.(u) in
                 let digit = !rest mod len in
                 rest := !rest / len;
                 intern_state doms.(u).(digit))
           in
           ignore (intern_cfg_raw cfg)
         done);
     (* Close under transitions; configurations are processed in insertion
        order, so the worklist is just the id counter. *)
     let next = ref 0 in
     while !next < cfgs.Vec.len do
       let c = !next in
       incr next;
       let cfg = Vec.get cfgs c in
       let full = materialize cfg in
       Vec.push legit (F.is_legitimate full);
       (* First-match rule semantics, exactly as the engine executes. *)
       let next_sid = Array.make n (-1) in
       let mask = ref 0 in
       for u = 0 to n - 1 do
         match Algorithm.enabled_rule algo (Algorithm.view F.graph full u) with
         | Some r ->
             mask := !mask lor (1 lsl u);
             next_sid.(u) <-
               intern_state (r.Algorithm.action (Algorithm.view F.graph full u));
             check_move cfg u r.Algorithm.rule_name cfg.(u) next_sid.(u)
         | None -> ()
       done;
       Vec.push enabled_masks !mask;
       if !mask = 0 then begin
         if not (Vec.get legit c) then
           violate "dead-end"
             (Fmt.str "terminal illegitimate configuration %a" pp_cfg cfg);
         if not (F.terminal_ok full) then
           violate "terminal-output"
             (Fmt.str "terminal configuration %a fails the output check"
                pp_cfg cfg)
       end;
       let edges = ref [] in
       iter_nonempty_submasks !mask (fun sel ->
           let succ_cfg = Array.copy cfg in
           for u = 0 to n - 1 do
             if sel land (1 lsl u) <> 0 then succ_cfg.(u) <- next_sid.(u)
           done;
           let sc = intern_cfg succ_cfg in
           incr transitions;
           edges := pack sc sel :: !edges);
       Vec.push succs (Array.of_list (List.rev !edges))
     done;
     let nconfigs = cfgs.Vec.len in
     (* Closure: no transition from legitimate to illegitimate. *)
     for c = 0 to nconfigs - 1 do
       if Vec.get legit c then
         Array.iter
           (fun e ->
             let sc = unpack_succ e in
             if not (Vec.get legit sc) then
               violate "closure"
                 (Fmt.str "legitimate %a steps (subset 0x%x) to illegitimate %a"
                    pp_cfg (Vec.get cfgs c) (unpack_mask e) pp_cfg
                    (Vec.get cfgs sc)))
           (Vec.get succs c)
     done;
     (* Cycle search with an iterative 3-color DFS restricted to the
        configurations satisfying [keep]; a grey-to-grey edge closes a
        cycle, reported with the configurations on the stack. *)
     let find_cycle keep =
       let color = Bytes.make nconfigs '\000' in
       let found = ref None in
       let c0 = ref 0 in
       while !found = None && !c0 < nconfigs do
         if keep !c0 && Bytes.get color !c0 = '\000' then begin
           let stack = ref [ (!c0, ref 0) ] in
           Bytes.set color !c0 '\001';
           while !found = None && !stack <> [] do
             match !stack with
             | [] -> ()
             | (c, i) :: rest ->
                 let edges = Vec.get succs c in
                 let advanced = ref false in
                 while
                   (not !advanced)
                   && !found = None
                   && !i < Array.length edges
                 do
                   let sc = unpack_succ edges.(!i) in
                   incr i;
                   if keep sc then
                     match Bytes.get color sc with
                     | '\000' ->
                         Bytes.set color sc '\001';
                         stack := (sc, ref 0) :: !stack;
                         advanced := true
                     | '\001' ->
                         (* Back edge into the grey ancestor [sc]: the stack
                            segment from [sc] to the top, in path order,
                            closed by [sc] again. *)
                         let seg = ref [] in
                         (try
                            List.iter
                              (fun (x, _) ->
                                seg := x :: !seg;
                                if x = sc then raise Exit)
                              !stack
                          with Exit -> ());
                         found := Some (!seg @ [ sc ])
                     | _ -> ()
                 done;
                 if (not !advanced) && !found = None then begin
                   Bytes.set color c '\002';
                   stack := rest
                 end
           done
         end;
         incr c0
       done;
       !found
     in
     let pp_cycle ppf cycle =
       let shown = List.filteri (fun i _ -> i < 5) cycle in
       Fmt.pf ppf "%a%s"
         Fmt.(list ~sep:(any " -> ") (fun ppf c -> pp_cfg ppf (Vec.get cfgs c)))
         shown
         (if List.length cycle > 5 then
            Printf.sprintf " -> ... (%d configurations)" (List.length cycle)
          else "")
     in
     (match find_cycle (fun c -> not (Vec.get legit c)) with
     | Some cycle ->
         violate "livelock"
           (Fmt.str
              "cycle of illegitimate configurations (an unfair daemon loops \
               it forever): %a"
              pp_cycle cycle)
     | None -> ());
     if options.expect_silent then begin
       match find_cycle (fun c -> Vec.get legit c) with
       | Some cycle ->
           violate "silence"
             (Fmt.str "infinite execution inside the legitimate set: %a"
                pp_cycle cycle)
       | None -> ()
     end
   with Abort reason -> aborted := Some reason);
  let nconfigs = cfgs.Vec.len in
  let violations =
    Hashtbl.fold
      (fun property (detail, count) acc ->
        let detail =
          if !count > 1 then
            Printf.sprintf "%s (+%d similar)" detail (!count - 1)
          else detail
        in
        { property; detail } :: acc)
      vtable []
    |> List.sort (fun a b -> compare a.property b.property)
  in
  let clean = violations = [] && !aborted = None in
  (* Exact worst-case moves: the illegitimate region is a DAG (no livelock,
     no dead end), so a post-order DFS gives a topological order for the
     longest-path DP.  A step executing the subset S costs |S| moves. *)
  let worst_moves =
    if not clean then None
    else begin
      let w = Array.make (max 1 nconfigs) (-1) in
      let best = ref 0 in
      for c0 = 0 to nconfigs - 1 do
        if (not (Vec.get legit c0)) && w.(c0) < 0 then begin
          let stack = ref [ (c0, ref 0) ] in
          while !stack <> [] do
            match !stack with
            | [] -> ()
            | (c, i) :: rest ->
                let edges = Vec.get succs c in
                let advanced = ref false in
                while (not !advanced) && !i < Array.length edges do
                  let sc = unpack_succ edges.(!i) in
                  incr i;
                  if (not (Vec.get legit sc)) && w.(sc) < 0 then begin
                    stack := (sc, ref 0) :: !stack;
                    advanced := true
                  end
                done;
                if not !advanced then begin
                  let acc = ref 0 in
                  Array.iter
                    (fun e ->
                      let sc = unpack_succ e in
                      let cost =
                        popcount (unpack_mask e)
                        + if Vec.get legit sc then 0 else w.(sc)
                      in
                      if cost > !acc then acc := cost)
                    edges;
                  w.(c) <- !acc;
                  if !acc > !best then best := !acc;
                  stack := rest
                end
          done
        end
      done;
      Some !best
    end
  in
  (* Exact worst-case rounds over the augmented (configuration ×
     pending-mask) graph, mirroring the engine's neutralization-based
     accounting: after a step selecting S, the processes of the round that
     remain pending are those not selected and still enabled; when none
     remain, a round completes.  Reaching the legitimate set counts the
     current (possibly partial) round — the engine's convention. *)
  let worst_rounds =
    let illegit_count =
      let c = ref 0 in
      for i = 0 to nconfigs - 1 do
        if not (Vec.get legit i) then incr c
      done;
      !c
    in
    let wanted =
      match options.rounds with
      | `Off -> false
      | `On -> true
      | `Auto -> illegit_count * (1 lsl n) <= options.max_round_states
    in
    if (not clean) || not wanted then None
    else begin
      let memo : (int, int) Hashtbl.t = Hashtbl.create 1024 in
      let grey : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
      let key c pending = (c lsl 6) lor pending in
      (* Under symmetry reduction a stored successor is the canonical
         relabeling of the raw successor, so the pending mask must be
         transported through the automorphism that did the relabeling.  The
         permutation per edge is recovered by recomputing the raw successor
         and matching it against the stored representative; any matching
         automorphism works — two matches differ by a stabilizer of the
         representative, and stabilizer-related augmented states have equal
         DP values.  Memoized per configuration; the rounds DP only runs on
         small spaces (the `Auto` budget), so the recomputation is cheap. *)
      let edge_perms =
        let cache : (int, int array) Hashtbl.t = Hashtbl.create 256 in
        fun sym c ->
          match Hashtbl.find_opt cache c with
          | Some a -> a
          | None ->
              let auts = Symmetry.auts sym in
              let cfg = Vec.get cfgs c in
              let full = materialize cfg in
              let next_sid = Array.make n (-1) in
              for u = 0 to n - 1 do
                match
                  Algorithm.enabled_rule algo (Algorithm.view F.graph full u)
                with
                | Some r ->
                    next_sid.(u) <-
                      intern_state
                        (r.Algorithm.action (Algorithm.view F.graph full u))
                | None -> ()
              done;
              let perms =
                Array.map
                  (fun e ->
                    let sel = unpack_mask e and sc = unpack_succ e in
                    let raw = Array.copy cfg in
                    for u = 0 to n - 1 do
                      if sel land (1 lsl u) <> 0 then raw.(u) <- next_sid.(u)
                    done;
                    let target = Vec.get cfgs sc in
                    let matches p =
                      let ok = ref true in
                      for i = 0 to n - 1 do
                        if target.(i) <> raw.(p.(i)) then ok := false
                      done;
                      !ok
                    in
                    let rec find a =
                      if a >= Array.length auts then
                        invalid_arg "Model: no automorphism matches successor"
                      else if matches auts.(a) then a
                      else find (a + 1)
                    in
                    find 0)
                  (Vec.get succs c)
              in
              Hashtbl.add cache c perms;
              perms
      in
      (* Dependencies of an augmented state: (increment, key of child) per
         transition, or a constant 1 when the child is legitimate. *)
      let deps c pending =
        let edges = Vec.get succs c in
        match reduce with
        | None ->
            Array.map
              (fun e ->
                let sc = unpack_succ e and sel = unpack_mask e in
                if Vec.get legit sc then `Const 1
                else begin
                  let survivors =
                    pending land lnot sel land Vec.get enabled_masks sc
                  in
                  if survivors = 0 then
                    `Dep (1, key sc (Vec.get enabled_masks sc))
                  else `Dep (0, key sc survivors)
                end)
              edges
        | Some sym ->
            let perms = edge_perms sym c in
            Array.mapi
              (fun idx e ->
                let sc = unpack_succ e and sel = unpack_mask e in
                if Vec.get legit sc then `Const 1
                else begin
                  let p = (Symmetry.auts sym).(perms.(idx)) in
                  let enabled = Vec.get enabled_masks sc in
                  let survivors =
                    pending land lnot sel land Symmetry.transport p enabled
                  in
                  if survivors = 0 then `Dep (1, key sc enabled)
                  else `Dep (0, key sc (Symmetry.untransport p survivors))
                end)
              edges
      in
      let eval k0 =
        let stack = ref [ k0 ] in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | k :: rest ->
              if Hashtbl.mem memo k then stack := rest
              else begin
                let c = k lsr 6 and pending = k land 63 in
                let ds = deps c pending in
                let missing = ref [] in
                Array.iter
                  (fun d ->
                    match d with
                    | `Const _ -> ()
                    | `Dep (_, k') ->
                        if not (Hashtbl.mem memo k') then
                          missing := k' :: !missing)
                  ds;
                if !missing = [] then begin
                  let r = ref 0 in
                  Array.iter
                    (fun d ->
                      let v =
                        match d with
                        | `Const v -> v
                        | `Dep (inc, k') -> inc + Hashtbl.find memo k'
                      in
                      if v > !r then r := v)
                    ds;
                  Hashtbl.replace memo k !r;
                  Hashtbl.remove grey k;
                  stack := rest
                end
                else begin
                  (* A grey dependency would be a cycle in the augmented
                     graph, which projects to an illegitimate-configuration
                     cycle — excluded by the livelock check. *)
                  List.iter (fun k' -> assert (not (Hashtbl.mem grey k'))) !missing;
                  Hashtbl.replace grey k ();
                  stack := List.rev_append !missing !stack
                end
              end
        done;
        Hashtbl.find memo k0
      in
      let best = ref 0 in
      (try
         for c = 0 to nconfigs - 1 do
           if not (Vec.get legit c) then begin
             let r = eval (key c (Vec.get enabled_masks c)) in
             if r > !best then best := r;
             if Hashtbl.length memo > options.max_round_states then
               raise (Abort "rounds")
           end
         done;
         ()
       with Abort _ -> best := -1);
      if !best < 0 then None else Some !best
    end
  in
  let legitimate = ref 0 and terminal = ref 0 in
  for c = 0 to nconfigs - 1 do
    if c < legit.Vec.len && Vec.get legit c then incr legitimate;
    if c < enabled_masks.Vec.len && Vec.get enabled_masks c = 0 then
      incr terminal
  done;
  { instance = F.name;
    graph_n = n;
    graph_m = Graph.m F.graph;
    stats =
      { configs = nconfigs;
        transitions = !transitions;
        legitimate = !legitimate;
        terminal = !terminal;
        wall_s = Unix.gettimeofday () -. t0 };
    violations;
    aborted = !aborted;
    worst_moves;
    worst_rounds;
    automorphisms = Option.map Symmetry.order reduce;
    certificate = Option.map (fun c -> c.Finite.rank.Sym.rk_name) F.certificate }

let check ?(options = default_options) (inst : Finite.t) =
  let (module F) = inst in
  check_instance ~options (module F)
