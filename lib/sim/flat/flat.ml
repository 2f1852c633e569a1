module Sym = Ssreset_check.Sym
module Csr = Ssreset_graph.Csr
module Engine = Ssreset_sim.Engine
module Daemon = Ssreset_sim.Daemon
module Pool = Ssreset_sim.Pool
module Prof = Ssreset_obs.Prof
module Metrics = Ssreset_obs.Metrics
module Histogram = Ssreset_obs.Histogram
module Monitor = Ssreset_obs.Monitor

type kind = KInt | KBool | KEnum of string array

type prog = {
  csr : Csr.t;
  spec : Sym.spec;
  params : (string * int) list;
  nf : int;
  field_names : string array;
  kinds : kind array;
  state : int array array;  (* [field].(node) *)
  rule_names : string array;
  ctor_idx : (string, int) Hashtbl.t;
}

let compile ~csr ~params (spec : Sym.spec) =
  let ir = spec.Sym.sp_ir in
  (match Sym.well_formed ir with
  | [] -> ()
  | errs ->
      invalid_arg
        (Printf.sprintf "Flat.compile(%s): ill-formed IR: %s" ir.Sym.ir_name
           (String.concat "; " errs)));
  List.iter
    (fun (p : Sym.param) ->
      if not (List.mem_assoc p.Sym.pname params) then
        invalid_arg
          (Printf.sprintf "Flat.compile(%s): unbound parameter %s"
             ir.Sym.ir_name p.Sym.pname))
    ir.Sym.params;
  let fields = Array.of_list ir.Sym.fields in
  let nf = Array.length fields in
  let field_names = Array.map fst fields in
  let kinds =
    Array.map
      (fun (_, ty) ->
        match (ty : Sym.ty) with
        | Sym.TInt -> KInt
        | Sym.TBool -> KBool
        | Sym.TEnum (_, cs) -> KEnum (Array.of_list cs))
      fields
  in
  let ctor_idx = Hashtbl.create 8 in
  Array.iter
    (fun (_, ty) ->
      match (ty : Sym.ty) with
      | Sym.TEnum (_, cs) ->
          List.iteri
            (fun i c ->
              match Hashtbl.find_opt ctor_idx c with
              | None -> Hashtbl.add ctor_idx c i
              | Some j when j = i -> ()
              | Some _ ->
                  invalid_arg
                    (Printf.sprintf
                       "Flat.compile(%s): constructor %s is ambiguous across \
                        enum sorts"
                       ir.Sym.ir_name c))
            cs
      | Sym.TInt | Sym.TBool -> ())
    fields;
  let n = Csr.n csr in
  {
    csr;
    spec;
    params;
    nf;
    field_names;
    kinds;
    state = Array.init nf (fun _ -> Array.make n 0);
    rule_names =
      Array.of_list (List.map (fun r -> r.Sym.rule) ir.Sym.rules);
    ctor_idx;
  }

let n p = Csr.n p.csr
let csr p = p.csr
let spec p = p.spec
let params p = p.params
let fields p = Array.mapi (fun i name -> (name, p.kinds.(i))) p.field_names
let rule_names p = p.rule_names
let has_legitimacy p = p.spec.Sym.sp_legitimate <> None

let field_index p name =
  let rec go i =
    if i >= p.nf then
      invalid_arg (Printf.sprintf "Flat: unknown field %s" name)
    else if String.equal p.field_names.(i) name then i
    else go (i + 1)
  in
  go 0

let int_of_value p f (v : Sym.value) =
  match (p.kinds.(f), v) with
  | KInt, Sym.VInt k -> k
  | KBool, Sym.VBool b -> if b then 1 else 0
  | KEnum _, Sym.VEnum c -> (
      match Hashtbl.find_opt p.ctor_idx c with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "Flat: unknown constructor %s" c))
  | _ ->
      invalid_arg
        (Printf.sprintf "Flat: value of the wrong kind for field %s"
           p.field_names.(f))

let value_of_int p f k =
  match p.kinds.(f) with
  | KInt -> Sym.VInt k
  | KBool -> Sym.VBool (k <> 0)
  | KEnum cs -> Sym.VEnum cs.(k)

let load p u vals =
  List.iter
    (fun (name, v) ->
      let f = field_index p name in
      p.state.(f).(u) <- int_of_value p f v)
    vals

let read p u =
  Array.to_list
    (Array.mapi (fun f name -> (name, value_of_int p f p.state.(f).(u)))
       p.field_names)

let set_int p ~field u v = p.state.(field_index p field).(u) <- v
let get_int p ~field u = p.state.(field_index p field).(u)

let checksum p =
  let h = ref 0x811c9dc5 in
  let mask = 0x3FFFFFFFFFFFFFFF in
  for f = 0 to p.nf - 1 do
    let a = p.state.(f) in
    for u = 0 to Array.length a - 1 do
      h := (!h lxor (a.(u) + 1)) * 0x01000193 land mask
    done
  done;
  !h

(* ------------------------------ compiler ------------------------------- *)

(* One evaluator = one set of closures over the shared state arrays plus a
   private cursor cell.  The cell is mutable, so partitioned runs compile
   one evaluator per worker domain; the state arrays stay shared. *)
type cell = { mutable u : int; mutable nbr : int }

type ev = {
  cell : cell;
  guards : (unit -> bool) array;
  assigns : (int * (unit -> int)) array array;  (* per rule *)
  legit : (unit -> bool) option;
}

let make_ev p =
  let cell = { u = 0; nbr = 0 } in
  let offsets = p.csr.Csr.offsets in
  let nbrs = p.csr.Csr.nbrs in
  let param_val name =
    match List.assoc_opt name p.params with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Flat: unbound parameter %s" name)
  in
  let ctor c =
    match Hashtbl.find_opt p.ctor_idx c with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Flat: unknown constructor %s" c)
  in
  let rec cterm (t : Sym.term) : unit -> int =
    match t with
    | Sym.Num k -> fun () -> k
    | Sym.Bool b ->
        let k = if b then 1 else 0 in
        fun () -> k
    | Sym.Param name ->
        let v = param_val name in
        fun () -> v
    | Sym.Var (Sym.Self, f) ->
        let a = p.state.(field_index p f) in
        fun () -> a.(cell.u)
    | Sym.Var (Sym.Nbr, f) ->
        let a = p.state.(field_index p f) in
        fun () -> a.(cell.nbr)
    | Sym.Add (a, b) ->
        let ca = cterm a and cb = cterm b in
        fun () -> ca () + cb ()
    | Sym.Sub (a, b) ->
        let ca = cterm a and cb = cterm b in
        fun () -> ca () - cb ()
    | Sym.Neg a ->
        let ca = cterm a in
        fun () -> -ca ()
    | Sym.Ite (c, a, b) ->
        let cc = cform c and ca = cterm a and cb = cterm b in
        fun () -> if cc () then ca () else cb ()
    | Sym.Ctor c ->
        let k = ctor c in
        fun () -> k
    | Sym.Min_nbr (filt, body, dflt) ->
        let cf = cform filt and cb = cterm body and cd = cterm dflt in
        fun () ->
          let saved = cell.nbr in
          let best = ref max_int and found = ref false in
          let u = cell.u in
          for i = offsets.(u) to offsets.(u + 1) - 1 do
            cell.nbr <- nbrs.(i);
            if cf () then begin
              found := true;
              let v = cb () in
              if v < !best then best := v
            end
          done;
          cell.nbr <- saved;
          if !found then !best else cd ()
    | Sym.Mex_nbr (filt, body) ->
        let cf = cform filt and cb = cterm body in
        fun () ->
          let saved = cell.nbr in
          let u = cell.u in
          let lo = offsets.(u) and hi = offsets.(u + 1) in
          (* mex <= deg, so a degree-sized seen-bitmap suffices; values
             outside [0, deg] can never be the answer. *)
          let deg = hi - lo in
          let seen = Array.make (deg + 1) false in
          for i = lo to hi - 1 do
            cell.nbr <- nbrs.(i);
            if cf () then begin
              let v = cb () in
              if v >= 0 && v <= deg then seen.(v) <- true
            end
          done;
          cell.nbr <- saved;
          let c = ref 0 in
          while seen.(!c) do
            incr c
          done;
          !c
    | Sym.Count_nbr filt ->
        let cf = cform filt in
        fun () ->
          let saved = cell.nbr in
          let u = cell.u in
          let k = ref 0 in
          for i = offsets.(u) to offsets.(u + 1) - 1 do
            cell.nbr <- nbrs.(i);
            if cf () then incr k
          done;
          cell.nbr <- saved;
          !k
  and cform (f : Sym.form) : unit -> bool =
    match f with
    | Sym.Const b -> fun () -> b
    | Sym.Not f ->
        let cf = cform f in
        fun () -> not (cf ())
    | Sym.And fs ->
        let cs = Array.of_list (List.map cform fs) in
        fun () ->
          let ok = ref true in
          let i = ref 0 in
          let k = Array.length cs in
          while !ok && !i < k do
            if not (cs.(!i) ()) then ok := false;
            incr i
          done;
          !ok
    | Sym.Or fs ->
        let cs = Array.of_list (List.map cform fs) in
        fun () ->
          let hit = ref false in
          let i = ref 0 in
          let k = Array.length cs in
          while (not !hit) && !i < k do
            if cs.(!i) () then hit := true;
            incr i
          done;
          !hit
    | Sym.Imp (a, b) ->
        let ca = cform a and cb = cform b in
        fun () -> (not (ca ())) || cb ()
    | Sym.Eq (a, b) ->
        let ca = cterm a and cb = cterm b in
        fun () -> ca () = cb ()
    | Sym.Le (a, b) ->
        let ca = cterm a and cb = cterm b in
        fun () -> ca () <= cb ()
    | Sym.Lt (a, b) ->
        let ca = cterm a and cb = cterm b in
        fun () -> ca () < cb ()
    | Sym.Forall_nbr body ->
        let cb = cform body in
        fun () ->
          let saved = cell.nbr in
          let ok = ref true in
          let u = cell.u in
          let i = ref offsets.(u) in
          let stop = offsets.(u + 1) in
          while !ok && !i < stop do
            cell.nbr <- nbrs.(!i);
            if not (cb ()) then ok := false;
            incr i
          done;
          cell.nbr <- saved;
          !ok
    | Sym.Exists_nbr body ->
        let cb = cform body in
        fun () ->
          let saved = cell.nbr in
          let hit = ref false in
          let u = cell.u in
          let i = ref offsets.(u) in
          let stop = offsets.(u + 1) in
          while (not !hit) && !i < stop do
            cell.nbr <- nbrs.(!i);
            if cb () then hit := true;
            incr i
          done;
          cell.nbr <- saved;
          !hit
  in
  let rules = Array.of_list p.spec.Sym.sp_ir.Sym.rules in
  {
    cell;
    guards = Array.map (fun r -> cform r.Sym.guard) rules;
    assigns =
      Array.map
        (fun r ->
          Array.of_list
            (List.map
               (fun (f, t) -> (field_index p f, cterm t))
               r.Sym.assigns))
        rules;
    legit = Option.map cform p.spec.Sym.sp_legitimate;
  }

(* First enabled rule of [u], or -1 — the flat twin of the classic
   engine's enabled table entry.  Leaves [ev.cell.u = u]. *)
let first_enabled ev u =
  ev.cell.u <- u;
  let k = Array.length ev.guards in
  let r = ref (-1) in
  let i = ref 0 in
  while !r < 0 && !i < k do
    if ev.guards.(!i) () then r := !i;
    incr i
  done;
  !r

(* Post-values of rule [r] at [ev.cell.u], buffered into [dst] at [off]
   (row layout: one slot per field).  Assignment terms read the pre-state
   arrays, never [dst], so buffering preserves act-on-pre-state. *)
let compute_post p ev r ~dst ~off =
  let u = ev.cell.u in
  for f = 0 to p.nf - 1 do
    dst.(off + f) <- p.state.(f).(u)
  done;
  Array.iter (fun (f, clo) -> dst.(off + f) <- clo ()) ev.assigns.(r)

(* ------------------------------- daemons ------------------------------- *)

type daemon =
  | Synchronous
  | Central_random
  | Central_first
  | Central_last
  | Round_robin
  | Distributed_random of float
  | Locally_central
  | Adversarial of string list
  | Starve of int

let daemon_table () =
  [
    ("synchronous", Synchronous);
    ("central-random", Central_random);
    ("central-first", Central_first);
    ("central-last", Central_last);
    ("round-robin", Round_robin);
    ("distributed-random", Distributed_random 0.5);
    ("locally-central", Locally_central);
    ("adversarial", Adversarial Daemon.standard_prefer);
    ("starve", Starve 0);
  ]

let daemon_of_name name = List.assoc_opt name (daemon_table ())

(* Draw-for-draw mirror of Daemon.pick_random. *)
let pick_random rng l =
  match l with
  | [] -> invalid_arg "Flat: daemon over an empty enabled list"
  | l -> List.nth l (Random.State.int rng (List.length l))

(* Selection mirrors lib/sim/daemon.ml function by function: same RNG
   draws in the same order, so classic and flat runs from one seed pick
   the same movers. *)
let make_select p rule_of daemon =
  let name_of u = p.rule_names.(rule_of.(u)) in
  fun rng elist ->
    match daemon with
    | Synchronous | Central_random | Central_first | Central_last
    | Round_robin ->
        (* Handled without a materialized list in [run]. *)
        ignore rng;
        elist
    | Distributed_random prob -> (
        let chosen =
          List.filter (fun _ -> Random.State.float rng 1.0 < prob) elist
        in
        match chosen with [] -> [ pick_random rng elist ] | l -> l)
    | Locally_central ->
        let arr = Array.of_list elist in
        for i = Array.length arr - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- t
        done;
        let kept = Hashtbl.create 16 in
        let offsets = p.csr.Csr.offsets in
        let nbrs = p.csr.Csr.nbrs in
        let ok u =
          let free = ref true in
          let i = ref offsets.(u) in
          while !free && !i < offsets.(u + 1) do
            if Hashtbl.mem kept nbrs.(!i) then free := false;
            incr i
          done;
          !free
        in
        Array.iter (fun u -> if ok u then Hashtbl.add kept u ()) arr;
        List.filter (Hashtbl.mem kept) elist
    | Adversarial prefer ->
        let rank name =
          let rec index i = function
            | [] -> max_int
            | q :: _ when String.equal q name -> i
            | _ :: rest -> index (i + 1) rest
          in
          index 0 prefer
        in
        let best =
          List.fold_left
            (fun acc u -> min acc (rank (name_of u)))
            max_int elist
        in
        let candidates =
          List.filter (fun u -> rank (name_of u) = best) elist
        in
        [ pick_random rng candidates ]
    | Starve victim -> (
        match List.filter (fun u -> u <> victim) elist with
        | [] -> elist
        | others -> [ pick_random rng others ])

(* ------------------------------- results ------------------------------- *)

type result = {
  outcome : Engine.outcome;
  steps : int;
  moves : int;
  moves_per_process : int array;
  moves_per_rule : (string * int) list;
  rounds : int;
  legitimate : bool;
  wall_s : float;
}

let rule_list p counts =
  let acc = ref [] in
  for r = Array.length counts - 1 downto 0 do
    if counts.(r) > 0 then acc := (p.rule_names.(r), counts.(r)) :: !acc
  done;
  List.sort compare !acc

(* Growable per-step mover buffers, reset (not shrunk) every step. *)
type movers = {
  mutable mu : int array;  (* mover node *)
  mutable mr : int array;  (* mover rule *)
  mutable mp : int array;  (* post rows, nf slots per mover *)
  mutable len : int;
}

let movers_make nf =
  { mu = Array.make 256 0; mr = Array.make 256 0; mp = Array.make (256 * nf) 0; len = 0 }

let movers_push b nf u r =
  if b.len = Array.length b.mu then begin
    let cap = 2 * b.len in
    let mu = Array.make cap 0 and mr = Array.make cap 0 in
    let mp = Array.make (cap * nf) 0 in
    Array.blit b.mu 0 mu 0 b.len;
    Array.blit b.mr 0 mr 0 b.len;
    Array.blit b.mp 0 mp 0 (b.len * nf);
    b.mu <- mu;
    b.mr <- mr;
    b.mp <- mp
  end;
  b.mu.(b.len) <- u;
  b.mr.(b.len) <- r;
  b.len <- b.len + 1

(* ----------------------------- profiling ------------------------------- *)

(* Pre-resolved instruments for the flat hot loop, mirroring the classic
   engine's lap discipline: [mark] is the last phase boundary; closing a
   phase is one clock read, one histogram record and one mutation.  Rule
   timers and move counters are dense arrays indexed by rule id — the flat
   path never looks an instrument up by name.  The [moves.R] / [rule.R] /
   [phase.X] naming matches the classic engine, so `prof report`, windows
   and the Proffile validator work unchanged on flat streams. *)
type prof_ctx = {
  p : Prof.t;
  scan : Prof.timer;  (* initial full scan + per-round pending refills *)
  select : Prof.timer;  (* daemon selection + post-row buffering *)
  apply : Prof.timer;  (* write-back (derived from the rule-span chain) *)
  refresh : Prof.timer;  (* fused touch over the movers' neighborhoods *)
  callbacks : Prof.timer;  (* on_step / heartbeat / window tick *)
  rule_timers : Prof.timer array;
  rule_counters : Metrics.counter array;
  c_touched : Metrics.counter;  (* touch attempts *)
  c_evals : Metrics.counter;  (* guard re-evaluations actually done *)
  c_dedup : Metrics.counter;  (* touches skipped by the stamp *)
  c_flips : Metrics.counter;  (* enabled-rule entries that changed *)
  h_refresh : Histogram.t;  (* per-step refresh size (evals) *)
  c_legit_steps : Metrics.counter;  (* steps spent legitimate (availability) *)
  mutable mark : int;
}

let make_prof_ctx pr rule_names =
  let m = Prof.metrics pr in
  (* Bind every instrument before the record literal: registration order is
     what the profile summary displays — it must follow the pipeline. *)
  let scan = Prof.timer pr "phase.scan" in
  let select = Prof.timer pr "phase.select" in
  let apply = Prof.timer pr "phase.apply" in
  let refresh = Prof.timer pr "phase.refresh" in
  let callbacks = Prof.timer pr "phase.callbacks" in
  let rule_timers =
    Array.map (fun r -> Prof.timer pr ("rule." ^ r)) rule_names
  in
  let rule_counters =
    Array.map (fun r -> Metrics.counter m ("moves." ^ r)) rule_names
  in
  let c_touched = Metrics.counter m "sched.touched" in
  let c_evals = Metrics.counter m "sched.evals" in
  let c_dedup = Metrics.counter m "sched.dedup_hits" in
  let c_flips = Metrics.counter m "sched.table_flips" in
  let h_refresh = Prof.histogram pr "sched.refresh_size" in
  let c_legit_steps = Metrics.counter m "obs.legit_steps" in
  {
    p = pr;
    scan;
    select;
    apply;
    refresh;
    callbacks;
    rule_timers;
    rule_counters;
    c_touched;
    c_evals;
    c_dedup;
    c_flips;
    h_refresh;
    c_legit_steps;
    mark = Prof.now_ns ();
  }

let lap pc tm =
  let now = Prof.now_ns () in
  Prof.record_span tm (now - pc.mark);
  pc.mark <- now

let finish_prof pr wall_s =
  Prof.gc_collect pr;
  let g = Metrics.gauge (Prof.metrics pr) "engine.wall_s" in
  Metrics.set g (Metrics.gauge_value g +. wall_s)

(* Heartbeat: a cheap progress observation emitted every [interval] steps —
   enough for a `--heartbeat` progress line on multi-minute runs without
   touching the hot loop otherwise. *)
type beat = {
  hb_steps : int;
  hb_moves : int;
  hb_enabled : int;  (* enabled-set size after the step *)
  hb_legit : int;  (* legitimate processes; -1 when not tracked *)
  hb_availability : float;  (* fraction of steps legitimate; -1. untracked *)
  hb_moves_per_s : float;  (* over the last heartbeat interval *)
}

(* Latch the paper's complexity bounds from the flat counters: the 3n round
   bound and the D·n² move bound of U∘SDR trip a named anomaly at most once
   per run, like the classic runners' monitors. *)
let trip_moves monitor ~moves_bound ~steps ~moves =
  match (monitor, moves_bound) with
  | Some m, Some bound when moves > bound ->
      Monitor.trip m ~monitor:"moves-bound" ~step:steps ~value:moves ~bound ()
  | _ -> ()

let trip_rounds monitor ~rounds_bound ~steps ~rounds =
  match (monitor, rounds_bound) with
  | Some m, Some bound when rounds > bound ->
      Monitor.trip m ~monitor:"rounds-bound" ~step:steps ~value:rounds ~bound
        ()
  | _ -> ()

(* ---------------------------- sequential run --------------------------- *)

let run ?rng ?(seed = 0) ?(max_steps = 10_000_000) ?(stop_on_legitimate = true)
    ?on_step ?prof ?monitor ?rounds_bound ?moves_bound ?heartbeat ~daemon p =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| seed |]
  in
  let t0 = Unix.gettimeofday () in
  let prof_ctx =
    Option.map
      (fun pr ->
        Prof.gc_mark pr;
        make_prof_ctx pr p.rule_names)
      prof
  in
  let nn = Csr.n p.csr in
  let nf = p.nf in
  let ev = make_ev p in
  let nr = Array.length p.rule_names in
  let rule_of = Array.make nn (-1) in
  let enabled = Bits.create nn in
  let en_count = ref 0 in
  for u = 0 to nn - 1 do
    let r = first_enabled ev u in
    rule_of.(u) <- r;
    if r >= 0 then begin
      ignore (Bits.add enabled u);
      incr en_count
    end
  done;
  let legit_of = Option.map (fun _ -> Array.make nn false) ev.legit in
  let illegit = ref 0 in
  (match (ev.legit, legit_of) with
  | Some clo, Some la ->
      for u = 0 to nn - 1 do
        ev.cell.u <- u;
        let lg = clo () in
        la.(u) <- lg;
        if not lg then incr illegit
      done
  | _ -> ());
  let stopping = stop_on_legitimate && legit_of <> None in
  let moves_per_process = Array.make nn 0 in
  let rule_moves = Array.make nr 0 in
  (* §2.4 pending set as stamp + generation + count: refill touches only
     the enabled members, never all n (the classic engine's Hashtbl refill
     is O(n) per round — fatal at n = 10⁶). *)
  let pend_stamp = Array.make nn 0 in
  let pend_gen = ref 0 in
  let pend_count = ref 0 in
  let refill_pending () =
    incr pend_gen;
    let g = !pend_gen in
    pend_count := !en_count;
    Bits.iter enabled (fun u -> pend_stamp.(u) <- g)
  in
  refill_pending ();
  let stamp = Array.make nn 0 in
  let gen = ref 0 in
  let select = make_select p rule_of daemon in
  let cursor = ref 0 in
  let mv = movers_make nf in
  let completed_rounds = ref 0 in
  let steps_in_round = ref 0 in
  let steps = ref 0 in
  let total_moves = ref 0 in
  (* Availability sampling rides on the incremental legitimate-node count
     the run already maintains; the per-step cost (one compare) is only
     paid when someone is observing. *)
  let count_legit =
    legit_of <> None
    && (prof_ctx <> None || heartbeat <> None || monitor <> None)
  in
  let legit_steps = ref 0 in
  let hb_last_t = ref t0 in
  let hb_last_moves = ref 0 in
  let outcome = ref Engine.Step_limit in
  (* Everything since [run] began — evaluator compilation, the initial
     enabled/legitimacy scan, the first pending refill — is scan work. *)
  (match prof_ctx with Some pc -> lap pc pc.scan | None -> ());
  (try
     if stopping && !illegit = 0 then begin
       outcome := Engine.Stabilized;
       raise Exit
     end;
     while !steps < max_steps do
       if !en_count = 0 then begin
         outcome := Engine.Terminal;
         raise Exit
       end;
       (* Buffer every mover's post row from the pre-state, then write:
          movers act on the pre-state even when they are neighbors. *)
       mv.len <- 0;
       let push u =
         let r = rule_of.(u) in
         movers_push mv nf u r;
         ev.cell.u <- u;
         compute_post p ev r ~dst:mv.mp ~off:((mv.len - 1) * nf)
       in
       (* The common daemons pick straight off the bitset — no per-step
          list materialization, but draw-for-draw the same RNG consumption
          as lib/sim/daemon.ml ([Bits.nth] walks ascending order, exactly
          the list the classic daemon indexes into). *)
       (match daemon with
       | Synchronous -> Bits.iter enabled push
       | Central_random ->
           push (Bits.nth enabled (Random.State.int rng !en_count))
       | Central_first -> push (Bits.next_geq enabled 0)
       | Central_last -> push (Bits.nth enabled (!en_count - 1))
       | Round_robin ->
           let u =
             match Bits.next_geq enabled !cursor with
             | -1 -> Bits.next_geq enabled 0
             | u -> u
           in
           cursor := (u + 1) mod nn;
           push u
       | Distributed_random _ | Locally_central | Adversarial _ | Starve _ ->
           let elist = ref [] in
           Bits.iter enabled (fun u -> elist := u :: !elist);
           List.iter push (select rng (List.rev !elist)));
       (match prof_ctx with
       | None ->
           for k = 0 to mv.len - 1 do
             let u = mv.mu.(k) in
             for f = 0 to nf - 1 do
               p.state.(f).(u) <- mv.mp.((k * nf) + f)
             done
           done
       | Some pc ->
           lap pc pc.select;
           (* Per-rule attribution without extra clock reads: movers chain
              laps, so their spans tile the apply phase exactly; the phase
              total is derived from the chain, not measured again. *)
           let apply_start = pc.mark in
           for k = 0 to mv.len - 1 do
             let u = mv.mu.(k) in
             for f = 0 to nf - 1 do
               p.state.(f).(u) <- mv.mp.((k * nf) + f)
             done;
             lap pc pc.rule_timers.(mv.mr.(k));
             Metrics.incr pc.rule_counters.(mv.mr.(k))
           done;
           Prof.record_span pc.apply (pc.mark - apply_start));
       incr steps;
       incr steps_in_round;
       for k = 0 to mv.len - 1 do
         let u = mv.mu.(k) in
         incr total_moves;
         moves_per_process.(u) <- moves_per_process.(u) + 1;
         rule_moves.(mv.mr.(k)) <- rule_moves.(mv.mr.(k)) + 1;
         if pend_stamp.(u) = !pend_gen then begin
           pend_stamp.(u) <- 0;
           decr pend_count
         end
       done;
       (* Fused refresh + neutralization + legitimacy over the movers'
          closed neighborhoods — the only processes whose views changed.
          Stamp-dedup'd like the classic incremental scheduler. *)
       incr gen;
       let g = !gen in
       let offsets = p.csr.Csr.offsets in
       let nbrs = p.csr.Csr.nbrs in
       (match prof_ctx with
       | None ->
           let touch v =
             if stamp.(v) <> g then begin
               stamp.(v) <- g;
               let r = first_enabled ev v in
               rule_of.(v) <- r;
               if r >= 0 then begin
                 if Bits.add enabled v then incr en_count
               end
               else begin
                 if Bits.remove enabled v then decr en_count;
                 if pend_stamp.(v) = !pend_gen then begin
                   pend_stamp.(v) <- 0;
                   decr pend_count
                 end
               end;
               match (ev.legit, legit_of) with
               | Some clo, Some la ->
                   let lg = clo () in
                   if lg <> la.(v) then begin
                     la.(v) <- lg;
                     illegit := !illegit + if lg then -1 else 1
                   end
               | _ -> ()
             end
           in
           for k = 0 to mv.len - 1 do
             let u = mv.mu.(k) in
             touch u;
             for i = offsets.(u) to offsets.(u + 1) - 1 do
               touch nbrs.(i)
             done
           done
       | Some pc ->
           (* Instrumented twin: same table writes in the same order, plus
              the scheduler counters the profile reports. *)
           let evals = ref 0 in
           let touch v =
             Metrics.incr pc.c_touched;
             if stamp.(v) <> g then begin
               stamp.(v) <- g;
               incr evals;
               let r0 = rule_of.(v) in
               let r = first_enabled ev v in
               rule_of.(v) <- r;
               if r <> r0 then Metrics.incr pc.c_flips;
               if r >= 0 then begin
                 if Bits.add enabled v then incr en_count
               end
               else begin
                 if Bits.remove enabled v then decr en_count;
                 if pend_stamp.(v) = !pend_gen then begin
                   pend_stamp.(v) <- 0;
                   decr pend_count
                 end
               end;
               match (ev.legit, legit_of) with
               | Some clo, Some la ->
                   let lg = clo () in
                   if lg <> la.(v) then begin
                     la.(v) <- lg;
                     illegit := !illegit + if lg then -1 else 1
                   end
               | _ -> ()
             end
             else Metrics.incr pc.c_dedup
           in
           for k = 0 to mv.len - 1 do
             let u = mv.mu.(k) in
             touch u;
             for i = offsets.(u) to offsets.(u + 1) - 1 do
               touch nbrs.(i)
             done
           done;
           Metrics.add pc.c_evals !evals;
           Histogram.record pc.h_refresh !evals;
           lap pc pc.refresh);
       if count_legit && !illegit = 0 then incr legit_steps;
       (match on_step with
       | Some f ->
           let moved = ref [] in
           for k = mv.len - 1 downto 0 do
             moved := (mv.mu.(k), p.rule_names.(mv.mr.(k))) :: !moved
           done;
           f ~step:(!steps - 1) ~moved:!moved
       | None -> ());
       (match prof_ctx with
       | Some pc ->
           if count_legit && !illegit = 0 then
             Metrics.incr pc.c_legit_steps;
           Prof.tick pc.p ~moves:mv.len;
           lap pc pc.callbacks
       | None -> ());
       (match heartbeat with
       | Some (every, f) when every > 0 && !steps mod every = 0 ->
           let now = Unix.gettimeofday () in
           let dt = now -. !hb_last_t in
           let dmoves = !total_moves - !hb_last_moves in
           hb_last_t := now;
           hb_last_moves := !total_moves;
           f
             {
               hb_steps = !steps;
               hb_moves = !total_moves;
               hb_enabled = !en_count;
               hb_legit =
                 (match legit_of with None -> -1 | Some _ -> nn - !illegit);
               hb_availability =
                 (if count_legit && !steps > 0 then
                    float_of_int !legit_steps /. float_of_int !steps
                  else -1.);
               hb_moves_per_s =
                 (if dt > 0. then float_of_int dmoves /. dt else 0.);
             }
       | _ -> ());
       trip_moves monitor ~moves_bound ~steps:!steps ~moves:!total_moves;
       if !pend_count = 0 then begin
         incr completed_rounds;
         steps_in_round := 0;
         refill_pending ();
         (* The refill walks the enabled set — scan work, like the initial
            table build. *)
         (match prof_ctx with Some pc -> lap pc pc.scan | None -> ());
         trip_rounds monitor ~rounds_bound ~steps:!steps
           ~rounds:!completed_rounds
       end;
       if stopping && !illegit = 0 then begin
         outcome := Engine.Stabilized;
         raise Exit
       end
     done
   with Exit -> ());
  (match prof_ctx with
  | Some pc -> finish_prof pc.p (Unix.gettimeofday () -. t0)
  | None -> ());
  {
    outcome = !outcome;
    steps = !steps;
    moves = !total_moves;
    moves_per_process;
    moves_per_rule = rule_list p rule_moves;
    rounds = (!completed_rounds + if !steps_in_round > 0 then 1 else 0);
    legitimate = (match legit_of with None -> true | Some _ -> !illegit = 0);
    wall_s = Unix.gettimeofday () -. t0;
  }

(* --------------------------- partitioned run --------------------------- *)

(* Worker-private instrumentation slots for the partitioned path: each
   domain accumulates its own phase nanoseconds, duration histograms,
   scheduler counts and GC baselines — separate heap blocks, no sharing —
   and everything is merged into the single profiler on the calling domain
   after the team shuts down ({!Prof.merge_spans} / {!Histogram.merge_into}
   are lossless, so the merged stream is exact). *)
type wslots = {
  mutable ws_init_ns : int;
  mutable ws_compute_ns : int;
  mutable ws_write_ns : int;
  mutable ws_refresh_ns : int;
  h_init : Histogram.t;
  h_compute : Histogram.t;
  h_write : Histogram.t;
  h_refresh : Histogram.t;
  mutable ws_touched : int;
  mutable ws_evals : int;
  mutable ws_dedup : int;
  mutable ws_minor0 : float;
  mutable ws_major0 : float;
  mutable ws_minor : float;
  mutable ws_major : float;
}

(* Caller-side context for the partitioned profile: merged phase timers
   (registered up front, so the summary displays them in pipeline order),
   per-rule move counters, and the cross-boundary handoff counters. *)
type part_prof = {
  pp : Prof.t;
  slots : wslots array;
  t_init : Prof.timer;
  t_compute : Prof.timer;
  t_write : Prof.timer;
  t_refresh : Prof.timer;
  t_replay : Prof.timer;
  t_callbacks : Prof.timer;
  prc : Metrics.counter array;  (* moves.R *)
  c_frontier : Metrics.counter;  (* nodes handed off across a boundary *)
  c_replays : Metrics.counter;  (* handoffs actually recomputed *)
  pc_legit : Metrics.counter;
}

let make_part_prof pr ~nparts rule_names =
  Prof.gc_mark pr;
  let m = Prof.metrics pr in
  let t_init = Prof.timer pr "phase.init" in
  let t_compute = Prof.timer pr "phase.compute" in
  let t_write = Prof.timer pr "phase.write" in
  let t_refresh = Prof.timer pr "phase.refresh" in
  (* Registered here for display order; Pool.Team feeds it at shutdown. *)
  ignore (Prof.timer pr "phase.barrier");
  let t_replay = Prof.timer pr "phase.replay" in
  let t_callbacks = Prof.timer pr "phase.callbacks" in
  {
    pp = pr;
    slots =
      Array.init nparts (fun _ ->
          {
            ws_init_ns = 0;
            ws_compute_ns = 0;
            ws_write_ns = 0;
            ws_refresh_ns = 0;
            h_init = Histogram.create ();
            h_compute = Histogram.create ();
            h_write = Histogram.create ();
            h_refresh = Histogram.create ();
            ws_touched = 0;
            ws_evals = 0;
            ws_dedup = 0;
            ws_minor0 = 0.;
            ws_major0 = 0.;
            ws_minor = 0.;
            ws_major = 0.;
          });
    t_init;
    t_compute;
    t_write;
    t_refresh;
    t_replay;
    t_callbacks;
    prc = Array.map (fun r -> Metrics.counter m ("moves." ^ r)) rule_names;
    c_frontier = Metrics.counter m "flat.frontier_handoffs";
    c_replays = Metrics.counter m "flat.frontier_replays";
    pc_legit = Metrics.counter m "obs.legit_steps";
  }

(* Merge the per-domain slots into the stream: phase timers get every
   worker's spans (sum ≈ parts × wall together with phase.barrier, which
   is what the multi-worker coverage check validates), per-worker gauges
   keep the split for the `prof report` worker table. *)
let merge_part_prof o ~nparts =
  let m = Prof.metrics o.pp in
  Array.iteri
    (fun d s ->
      Prof.merge_spans o.t_init ~total_ns:s.ws_init_ns s.h_init;
      Prof.merge_spans o.t_compute ~total_ns:s.ws_compute_ns s.h_compute;
      Prof.merge_spans o.t_write ~total_ns:s.ws_write_ns s.h_write;
      Prof.merge_spans o.t_refresh ~total_ns:s.ws_refresh_ns s.h_refresh;
      let gset name v =
        let g = Metrics.gauge m (Printf.sprintf "flat.worker%d.%s" d name) in
        Metrics.set g (Metrics.gauge_value g +. v)
      in
      gset "compute_s" (float_of_int s.ws_compute_ns /. 1e9);
      gset "write_s" (float_of_int s.ws_write_ns /. 1e9);
      gset "refresh_s" (float_of_int s.ws_refresh_ns /. 1e9);
      gset "gc_minor_words" (s.ws_minor -. s.ws_minor0);
      gset "gc_major_words" (s.ws_major -. s.ws_major0);
      Metrics.add (Metrics.counter m "sched.touched") s.ws_touched;
      Metrics.add (Metrics.counter m "sched.evals") s.ws_evals;
      Metrics.add (Metrics.counter m "sched.dedup_hits") s.ws_dedup)
    o.slots;
  Metrics.set (Metrics.gauge m "flat.parts") (float_of_int nparts)

let run_partitioned ?(max_steps = 10_000_000) ?(stop_on_legitimate = true)
    ?prof ?monitor ?rounds_bound ?moves_bound ?heartbeat ~parts p =
  let t0 = Unix.gettimeofday () in
  let nn = Csr.n p.csr in
  let nf = p.nf in
  let nparts = max 1 parts in
  (* Contiguous ranges aligned to Bits.part_align: concurrent bitset
     updates from different domains touch disjoint words at both levels. *)
  let chunk =
    let raw = (nn + nparts - 1) / nparts in
    let al = Bits.part_align in
    max al ((raw + al - 1) / al * al)
  in
  let lo d = min nn (d * chunk) in
  let hi d = min nn ((d + 1) * chunk) in
  let owner v = v / chunk in
  let nr = Array.length p.rule_names in
  let evs = Array.init nparts (fun _ -> make_ev p) in
  let track_legit = stop_on_legitimate && evs.(0).legit <> None in
  let rule_of = Array.make nn (-1) in
  let enabled = Bits.create nn in
  let en_count = Array.make nparts 0 in
  let legit_of = if track_legit then Array.make nn false else [||] in
  let illegit = Array.make nparts 0 in
  let bufs = Array.init nparts (fun _ -> movers_make nf) in
  let frontier = Array.make nparts [] in
  let moves_per_process = Array.make nn 0 in
  let rule_moves = Array.make_matrix nparts nr 0 in
  let offsets = p.csr.Csr.offsets in
  let nbrs = p.csr.Csr.nbrs in
  (* Stamp-dedup per step, as in the sequential path: under the synchronous
     daemon neighboring movers share neighborhoods, so without the stamp a
     ring node gets recomputed up to three times per step.  Race-free: a
     node's stamp is written only by its owner domain (phase C defers
     out-of-range neighbors) or by the sequential frontier replay. *)
  let stamp = Array.make nn 0 in
  let gen = ref 0 in
  let recompute ev d v =
    let r = first_enabled ev v in
    rule_of.(v) <- r;
    if r >= 0 then begin
      if Bits.add enabled v then en_count.(d) <- en_count.(d) + 1
    end
    else if Bits.remove enabled v then en_count.(d) <- en_count.(d) - 1;
    if track_legit then begin
      let lg = (Option.get ev.legit) () in
      if lg <> legit_of.(v) then begin
        legit_of.(v) <- lg;
        illegit.(d) <- illegit.(d) + (if lg then -1 else 1)
      end
    end
  in
  let pobs = Option.map (fun pr -> make_part_prof pr ~nparts p.rule_names) prof in
  let team = Pool.Team.create ?prof ~size:nparts () in
  let sum a = Array.fold_left ( + ) 0 a in
  let steps = ref 0 in
  let total_moves = ref 0 in
  let count_legit =
    track_legit && (pobs <> None || heartbeat <> None || monitor <> None)
  in
  let legit_steps = ref 0 in
  let hb_last_t = ref t0 in
  let hb_last_moves = ref 0 in
  let outcome = ref Engine.Step_limit in
  Fun.protect
    ~finally:(fun () -> Pool.Team.shutdown team)
    (fun () ->
      Pool.Team.run team (fun d ->
          (match pobs with
          | Some o ->
              (* OCaml 5 GC counters are per-domain: the baseline must be
                 sampled on the worker itself. *)
              let q = Gc.quick_stat () in
              let s = o.slots.(d) in
              s.ws_minor0 <- q.Gc.minor_words;
              s.ws_major0 <- q.Gc.major_words
          | None -> ());
          let tph = match pobs with Some _ -> Prof.now_ns () | None -> 0 in
          let ev = evs.(d) in
          for u = lo d to hi d - 1 do
            let r = first_enabled ev u in
            rule_of.(u) <- r;
            if r >= 0 then begin
              ignore (Bits.add enabled u);
              en_count.(d) <- en_count.(d) + 1
            end;
            if track_legit then begin
              let lg = (Option.get ev.legit) () in
              legit_of.(u) <- lg;
              if not lg then illegit.(d) <- illegit.(d) + 1
            end
          done;
          match pobs with
          | Some o ->
              let s = o.slots.(d) in
              let dt = Prof.now_ns () - tph in
              s.ws_init_ns <- s.ws_init_ns + dt;
              Histogram.record s.h_init dt
          | None -> ());
      (try
         if track_legit && sum illegit = 0 then begin
           outcome := Engine.Stabilized;
           raise Exit
         end;
         while !steps < max_steps do
          if sum en_count = 0 then begin
            outcome := Engine.Terminal;
            raise Exit
          end;
          (* Phase A — every enabled node moves (synchronous daemon);
             buffer post rows from the shared pre-state, no writes. *)
          Pool.Team.run team (fun d ->
              let tph = match pobs with Some _ -> Prof.now_ns () | None -> 0 in
              let ev = evs.(d) in
              let b = bufs.(d) in
              b.len <- 0;
              Bits.iter_range enabled (lo d) (hi d) (fun u ->
                  let r = rule_of.(u) in
                  movers_push b nf u r;
                  ev.cell.u <- u;
                  compute_post p ev r ~dst:b.mp ~off:((b.len - 1) * nf));
              match pobs with
              | Some o ->
                  let s = o.slots.(d) in
                  let dt = Prof.now_ns () - tph in
                  s.ws_compute_ns <- s.ws_compute_ns + dt;
                  Histogram.record s.h_compute dt
              | None -> ());
          (* Phase B — write back own-range movers and account them. *)
          Pool.Team.run team (fun d ->
              let tph = match pobs with Some _ -> Prof.now_ns () | None -> 0 in
              let b = bufs.(d) in
              for k = 0 to b.len - 1 do
                let u = b.mu.(k) in
                for f = 0 to nf - 1 do
                  p.state.(f).(u) <- b.mp.((k * nf) + f)
                done;
                moves_per_process.(u) <- moves_per_process.(u) + 1;
                rule_moves.(d).(b.mr.(k)) <- rule_moves.(d).(b.mr.(k)) + 1
              done;
              match pobs with
              | Some o ->
                  let s = o.slots.(d) in
                  let dt = Prof.now_ns () - tph in
                  s.ws_write_ns <- s.ws_write_ns + dt;
                  Histogram.record s.h_write dt
              | None -> ());
          (* Phase C — refresh the movers' closed neighborhoods.  Writes
             stay in the worker's own range; out-of-range neighbors are
             handed off and replayed sequentially below.  Recomputation is
             idempotent, so duplicates (several movers sharing a neighbor,
             or several domains deferring the same node) are harmless and
             the result is independent of the partition count. *)
          incr gen;
          let g = !gen in
          Pool.Team.run team (fun d ->
              match pobs with
              | None ->
                  let ev = evs.(d) in
                  let b = bufs.(d) in
                  frontier.(d) <- [];
                  let l = lo d and h = hi d in
                  for k = 0 to b.len - 1 do
                    let u = b.mu.(k) in
                    if stamp.(u) <> g then begin
                      stamp.(u) <- g;
                      recompute ev d u
                    end;
                    for i = offsets.(u) to offsets.(u + 1) - 1 do
                      let v = nbrs.(i) in
                      if v >= l && v < h then begin
                        if stamp.(v) <> g then begin
                          stamp.(v) <- g;
                          recompute ev d v
                        end
                      end
                      else frontier.(d) <- v :: frontier.(d)
                    done
                  done
              | Some o ->
                  (* Instrumented twin: same recomputation in the same
                     order, plus per-domain touch/eval/dedup counts. *)
                  let tph = Prof.now_ns () in
                  let s = o.slots.(d) in
                  let touched = ref 0 and evals = ref 0 and dedup = ref 0 in
                  let ev = evs.(d) in
                  let b = bufs.(d) in
                  frontier.(d) <- [];
                  let l = lo d and h = hi d in
                  for k = 0 to b.len - 1 do
                    let u = b.mu.(k) in
                    incr touched;
                    if stamp.(u) <> g then begin
                      stamp.(u) <- g;
                      incr evals;
                      recompute ev d u
                    end
                    else incr dedup;
                    for i = offsets.(u) to offsets.(u + 1) - 1 do
                      let v = nbrs.(i) in
                      if v >= l && v < h then begin
                        incr touched;
                        if stamp.(v) <> g then begin
                          stamp.(v) <- g;
                          incr evals;
                          recompute ev d v
                        end
                        else incr dedup
                      end
                      else frontier.(d) <- v :: frontier.(d)
                    done
                  done;
                  s.ws_touched <- s.ws_touched + !touched;
                  s.ws_evals <- s.ws_evals + !evals;
                  s.ws_dedup <- s.ws_dedup + !dedup;
                  let dt = Prof.now_ns () - tph in
                  s.ws_refresh_ns <- s.ws_refresh_ns + dt;
                  Histogram.record s.h_refresh dt);
          (match pobs with
          | None ->
              Array.iter
                (fun fr ->
                  List.iter
                    (fun v ->
                      if stamp.(v) <> g then begin
                        stamp.(v) <- g;
                        recompute evs.(0) (owner v) v
                      end)
                    fr)
                frontier
          | Some o ->
              (* Sequential frontier replay, timed and counted on the
                 caller: the cross-boundary cost ROADMAP item 1 asks
                 about. *)
              let t_r = Prof.now_ns () in
              let handed = ref 0 and replayed = ref 0 in
              Array.iter
                (fun fr ->
                  List.iter
                    (fun v ->
                      incr handed;
                      if stamp.(v) <> g then begin
                        stamp.(v) <- g;
                        incr replayed;
                        recompute evs.(0) (owner v) v
                      end)
                    fr)
                frontier;
              Metrics.add o.c_frontier !handed;
              Metrics.add o.c_replays !replayed;
              Prof.record_span o.t_replay (Prof.now_ns () - t_r));
          incr steps;
          Array.iter (fun b -> total_moves := !total_moves + b.len) bufs;
          (match pobs with
          | Some o ->
              let t_c = Prof.now_ns () in
              let sm = ref 0 in
              Array.iter
                (fun b ->
                  for k = 0 to b.len - 1 do
                    Metrics.incr o.prc.(b.mr.(k))
                  done;
                  sm := !sm + b.len)
                bufs;
              if count_legit && sum illegit = 0 then
                Metrics.incr o.pc_legit;
              Prof.tick o.pp ~moves:!sm;
              Prof.record_span o.t_callbacks (Prof.now_ns () - t_c)
          | None -> ());
          if count_legit && sum illegit = 0 then incr legit_steps;
          (match heartbeat with
          | Some (every, f) when every > 0 && !steps mod every = 0 ->
              let now = Unix.gettimeofday () in
              let dt = now -. !hb_last_t in
              let dmoves = !total_moves - !hb_last_moves in
              hb_last_t := now;
              hb_last_moves := !total_moves;
              let legit_now =
                if track_legit then nn - sum illegit
                else
                  match evs.(0).legit with
                  | None -> -1
                  | Some clo ->
                      (* Legitimacy is not tracked incrementally on this
                         run: full rescan at the observation boundary
                         (amortized over the heartbeat interval). *)
                      let ev = evs.(0) in
                      let c = ref 0 in
                      for u = 0 to nn - 1 do
                        ev.cell.u <- u;
                        if clo () then incr c
                      done;
                      !c
              in
              f
                {
                  hb_steps = !steps;
                  hb_moves = !total_moves;
                  hb_enabled = sum en_count;
                  hb_legit = legit_now;
                  hb_availability =
                    (if count_legit && !steps > 0 then
                       float_of_int !legit_steps /. float_of_int !steps
                     else -1.);
                  hb_moves_per_s =
                    (if dt > 0. then float_of_int dmoves /. dt else 0.);
                }
          | _ -> ());
          trip_moves monitor ~moves_bound ~steps:!steps ~moves:!total_moves;
          (* Under the synchronous daemon each step completes one round. *)
          trip_rounds monitor ~rounds_bound ~steps:!steps ~rounds:!steps;
          if track_legit && sum illegit = 0 then begin
            outcome := Engine.Stabilized;
            raise Exit
          end
        done
      with Exit -> ());
      (* Final per-domain GC samples, on the worker domains themselves
         (OCaml 5 keeps allocation counters per domain). *)
      match pobs with
      | Some o ->
          Pool.Team.run team (fun d ->
              let q = Gc.quick_stat () in
              let s = o.slots.(d) in
              s.ws_minor <- q.Gc.minor_words -. s.ws_minor0;
              s.ws_major <- q.Gc.major_words -. s.ws_major0)
      | None -> ());
  (match pobs with
  | Some o ->
      merge_part_prof o ~nparts;
      finish_prof o.pp (Unix.gettimeofday () -. t0)
  | None -> ());
  let rule_totals = Array.make nr 0 in
  Array.iter
    (fun row -> Array.iteri (fun r c -> rule_totals.(r) <- rule_totals.(r) + c) row)
    rule_moves;
  {
    outcome = !outcome;
    steps = !steps;
    moves = !total_moves;
    moves_per_process;
    moves_per_rule = rule_list p rule_totals;
    (* Under the synchronous daemon every pending node either moves or is
       neutralized within the step, so each step completes one round. *)
    rounds = !steps;
    legitimate = (if track_legit then sum illegit = 0 else true);
    wall_s = Unix.gettimeofday () -. t0;
  }
