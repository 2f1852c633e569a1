module Sym = Ssreset_check.Sym
module Csr = Ssreset_graph.Csr
module Engine = Ssreset_sim.Engine
module Step = Ssreset_sim.Step
module Daemon = Ssreset_sim.Daemon
module Pool = Ssreset_sim.Pool
module Bits = Ssreset_sim.Bits
module Prof = Ssreset_obs.Prof
module Metrics = Ssreset_obs.Metrics
module Histogram = Ssreset_obs.Histogram

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

type daemon = Daemon.t =
  | Synchronous
  | Central_random
  | Central_first
  | Central_last
  | Round_robin
  | Distributed_random of float
  | Locally_central
  | Adversarial of string list
  | Starve of int

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

type beat = Step.beat = {
  hb_steps : int;
  hb_moves : int;
  hb_enabled : int;
  hb_legit : int;
  hb_availability : float;
  hb_moves_per_s : float;
}

(* ---------------------------- sequential run --------------------------- *)

(* The compiled-IR evaluator over the step core.  Legitimacy rides on
   [eval]: the core re-evaluates exactly the processes whose views
   changed, which are the only ones whose legitimacy can change.  Posts
   are staged into growable rows, one slot per field, and committed into
   the state arrays. *)
let run ?rng ?(seed = 0) ?(max_steps = 10_000_000) ?(stop_on_legitimate = true)
    ?on_step ?prof ?monitor ?rounds_bound ?moves_bound ?heartbeat ~daemon p =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| seed |]
  in
  let nf = p.nf in
  let ev = make_ev p in
  let illegit = ref 0 in
  let eval =
    match ev.legit with
    | None -> fun v -> first_enabled ev v
    | Some clo ->
        let la = Array.make (Csr.n p.csr) true in
        fun v ->
          let r = first_enabled ev v in
          let lg = clo () in
          if lg <> la.(v) then begin
            la.(v) <- lg;
            illegit := !illegit + if lg then -1 else 1
          end;
          r
  in
  let mp = ref (Array.make (256 * nf) 0) in
  let stage k u r =
    if (k + 1) * nf > Array.length !mp then begin
      let b = Array.make (2 * Array.length !mp) 0 in
      Array.blit !mp 0 b 0 (k * nf);
      mp := b
    end;
    ev.cell.u <- u;
    compute_post p ev r ~dst:!mp ~off:(k * nf)
  in
  let commit k u =
    let mp = !mp in
    for f = 0 to nf - 1 do
      p.state.(f).(u) <- mp.((k * nf) + f)
    done
  in
  let t =
    Step.create ~prof ~daemon ~rng ~csr:p.csr ~rules:p.rule_names ~eval ~stage
      ~commit
  in
  let tracked = Option.map (fun _ () -> !illegit) ev.legit in
  let outcome =
    Step.run t
      {
        Step.after_step =
          Option.map
            (fun f () -> f ~step:(Step.steps t - 1) ~moved:(Step.moved t))
            on_step;
        on_round = None;
        stop =
          (if stop_on_legitimate && tracked <> None then
             Some (fun () -> !illegit = 0)
           else None);
        illegit = tracked;
        monitor;
        rounds_bound;
        moves_bound;
        heartbeat;
      }
      ~max_steps
  in
  {
    outcome;
    steps = Step.steps t;
    moves = Step.moves t;
    moves_per_process = Step.moves_per_process t;
    moves_per_rule = Step.moves_per_rule t;
    rounds = Step.rounds t;
    legitimate = !illegit = 0;
    wall_s = Step.wall_s t;
  }

(* --------------------------- partitioned run --------------------------- *)

(* Growable per-worker mover buffers, reset (not shrunk) every step. *)
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
    let grow a k =
      let c = Array.make (2 * b.len * k) 0 in
      Array.blit a 0 c 0 (b.len * k);
      c
    in
    b.mu <- grow b.mu 1;
    b.mr <- grow b.mr 1;
    b.mp <- grow b.mp nf
  end;
  b.mu.(b.len) <- u;
  b.mr.(b.len) <- r;
  b.len <- b.len + 1

(* Worker-private instrumentation slots for the partitioned path: each
   domain accumulates its own phase nanoseconds, duration histograms and
   GC word deltas — separate heap blocks, no sharing — and everything is
   merged, with the run's scheduler counts, into the single profiler on
   the calling domain after the team shuts down ({!Prof.merge_spans} /
   {!Histogram.merge_into} are lossless, so the merged stream is exact). *)
type wslots = {
  ws_ns : int array;  (* per worker phase, indexed like [worker_phases] *)
  ws_hist : Histogram.t array;
  ws_gc : float array;  (* minor, major words allocated on the worker *)
}

(* Caller-side context for the partitioned profile: merged phase timers
   (registered up front, so the summary displays them in pipeline order),
   per-rule move counters, and the cross-boundary handoff counters. *)
type part_prof = {
  pp : Prof.t;
  slots : wslots array;
  t_phases : Prof.timer array;  (* indexed like [worker_phases] *)
  t_replay : Prof.timer;
  t_callbacks : Prof.timer;
  prc : Metrics.counter array;  (* moves.R *)
  c_frontier : Metrics.counter;  (* nodes handed off across a boundary *)
  c_replays : Metrics.counter;  (* handoffs actually recomputed *)
  pc_legit : Metrics.counter;
}

(* The phases every worker runs, in pipeline order. *)
let worker_phases = [| "init"; "compute"; "write"; "refresh" |]
let ph_init = 0 and ph_compute = 1 and ph_write = 2 and ph_refresh = 3

let make_part_prof pr ~nparts rule_names =
  Prof.gc_mark pr;
  let m = Prof.metrics pr in
  let t_phases =
    Array.map (fun ph -> Prof.timer pr ("phase." ^ ph)) worker_phases
  in
  (* Registered here for display order; Pool.Team feeds it at shutdown. *)
  ignore (Prof.timer pr "phase.barrier");
  let t_replay = Prof.timer pr "phase.replay" in
  let t_callbacks = Prof.timer pr "phase.callbacks" in
  {
    pp = pr;
    slots =
      Array.init nparts (fun _ ->
          {
            ws_ns = Array.make (Array.length worker_phases) 0;
            ws_hist = Array.map (fun _ -> Histogram.create ()) worker_phases;
            ws_gc = [| 0.; 0. |];
          });
    t_phases;
    t_replay;
    t_callbacks;
    prc = Array.map (fun r -> Metrics.counter m ("moves." ^ r)) rule_names;
    c_frontier = Metrics.counter m "flat.frontier_handoffs";
    c_replays = Metrics.counter m "flat.frontier_replays";
    pc_legit = Metrics.counter m "obs.legit_steps";
  }

(* Add the calling worker's GC words to its slot with [sign]: -1 at the
   start, +1 at the end.  OCaml 5 keeps allocation counters per domain, so
   both samples are taken on the worker itself. *)
let sample_gc pobs d sign =
  Option.iter
    (fun o ->
      let q = Gc.quick_stat () and gc = o.slots.(d).ws_gc in
      gc.(0) <- gc.(0) +. (sign *. q.Gc.minor_words);
      gc.(1) <- gc.(1) +. (sign *. q.Gc.major_words))
    pobs

(* Merge the per-domain slots into the stream: phase timers get every
   worker's spans (sum ≈ parts × wall together with phase.barrier, which
   is what the multi-worker coverage check validates), per-worker gauges
   keep the split for the `prof report` worker table. *)
let merge_part_prof o ~nparts ~touched ~evals ~flips =
  let m = Prof.metrics o.pp in
  Array.iteri
    (fun d s ->
      Array.iteri
        (fun ph tm -> Prof.merge_spans tm ~total_ns:s.ws_ns.(ph) s.ws_hist.(ph))
        o.t_phases;
      let gset name v =
        let g = Metrics.gauge m (Printf.sprintf "flat.worker%d.%s" d name) in
        Metrics.set g (Metrics.gauge_value g +. v)
      in
      List.iter
        (fun ph ->
          gset (worker_phases.(ph) ^ "_s") (float_of_int s.ws_ns.(ph) /. 1e9))
        [ ph_compute; ph_write; ph_refresh ];
      gset "gc_minor_words" s.ws_gc.(0);
      gset "gc_major_words" s.ws_gc.(1))
    o.slots;
  let touched = Array.fold_left ( + ) 0 touched
  and evals = Array.fold_left ( + ) 0 evals in
  Metrics.add (Metrics.counter m "sched.touched") touched;
  Metrics.add (Metrics.counter m "sched.evals") evals;
  Metrics.add (Metrics.counter m "sched.dedup_hits") (touched - evals);
  Metrics.add (Metrics.counter m "sched.table_flips")
    (Array.fold_left ( + ) 0 flips);
  Metrics.set (Metrics.gauge m "flat.parts") (float_of_int nparts)

(* Run [body] as worker [d]'s share of phase [ph]; profiled, its span goes
   to the worker's private slot. *)
let worker_phase pobs d ph body =
  match pobs with
  | None -> body ()
  | Some o ->
      let t = Prof.now_ns () in
      body ();
      let s = o.slots.(d) in
      let dt = Prof.now_ns () - t in
      s.ws_ns.(ph) <- s.ws_ns.(ph) + dt;
      Histogram.record s.ws_hist.(ph) dt

let run_partitioned ?(max_steps = 10_000_000) ?(stop_on_legitimate = true)
    ?prof ?monitor ?rounds_bound ?moves_bound ?heartbeat ~parts p =
  Step.check_heartbeat heartbeat;
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
  (* Legitimacy is tracked whenever the spec defines it, as in {!run}. *)
  let track_legit = evs.(0).legit <> None in
  let stopping = stop_on_legitimate && track_legit in
  let rule_of = Array.make nn (-1) in
  let enabled = Bits.create nn in
  let en_count = Array.make nparts 0 in
  let legit_of = if track_legit then Array.make nn true else [||] in
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
  (* Per-domain refresh counts (touch attempts, guard re-evaluations),
     written once per phase from worker-local refs, and rule changes,
     charged to the node's owner by [recompute]. *)
  let w_touched = Array.make nparts 0 and w_evals = Array.make nparts 0 in
  let w_flips = Array.make nparts 0 in
  let recompute ev d v =
    let r = first_enabled ev v in
    if r <> rule_of.(v) then w_flips.(d) <- w_flips.(d) + 1;
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
  let hb_last = ref (t0, 0) in
  let outcome = ref Engine.Step_limit in
  Fun.protect
    ~finally:(fun () -> Pool.Team.shutdown team)
    (fun () ->
      Pool.Team.run team (fun d ->
          sample_gc pobs d (-1.);
          (* The initial scan is a refresh of the worker's whole range;
             it changes no table entry, so its flips are not counted. *)
          worker_phase pobs d ph_init (fun () ->
              for u = lo d to hi d - 1 do
                recompute evs.(d) d u
              done;
              w_flips.(d) <- 0));
      (try
         if stopping && sum illegit = 0 then begin
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
              worker_phase pobs d ph_compute (fun () ->
                let ev = evs.(d) in
                let b = bufs.(d) in
                b.len <- 0;
                Bits.iter_range enabled (lo d) (hi d) (fun u ->
                    let r = rule_of.(u) in
                    movers_push b nf u r;
                    ev.cell.u <- u;
                    compute_post p ev r ~dst:b.mp ~off:((b.len - 1) * nf))));
          (* Phase B — write back own-range movers and account them. *)
          Pool.Team.run team (fun d ->
              worker_phase pobs d ph_write (fun () ->
                let b = bufs.(d) in
                for k = 0 to b.len - 1 do
                  let u = b.mu.(k) in
                  for f = 0 to nf - 1 do
                    p.state.(f).(u) <- b.mp.((k * nf) + f)
                  done;
                  moves_per_process.(u) <- moves_per_process.(u) + 1;
                  rule_moves.(d).(b.mr.(k)) <- rule_moves.(d).(b.mr.(k)) + 1
                done));
          (* Phase C — refresh the movers' closed neighborhoods.  Writes
             stay in the worker's own range; out-of-range neighbors are
             handed off and replayed sequentially below.  Recomputation is
             idempotent, so duplicates (several movers sharing a neighbor,
             or several domains deferring the same node) are harmless and
             the result is independent of the partition count. *)
          incr gen;
          let g = !gen in
          Pool.Team.run team (fun d ->
              worker_phase pobs d ph_refresh (fun () ->
                let ev = evs.(d) in
                let b = bufs.(d) in
                frontier.(d) <- [];
                let l = lo d and h = hi d in
                let touched = ref 0 and evals = ref 0 in
                let touch v =
                  incr touched;
                  if stamp.(v) <> g then begin
                    stamp.(v) <- g;
                    incr evals;
                    recompute ev d v
                  end
                in
                for k = 0 to b.len - 1 do
                  let u = b.mu.(k) in
                  touch u;
                  for i = offsets.(u) to offsets.(u + 1) - 1 do
                    let v = nbrs.(i) in
                    if v >= l && v < h then touch v
                    else frontier.(d) <- v :: frontier.(d)
                  done
                done;
                w_touched.(d) <- w_touched.(d) + !touched;
                w_evals.(d) <- w_evals.(d) + !evals));
          (* Sequential frontier replay: the cross-boundary cost, counted
             as handoffs and the replays the stamp did not skip. *)
          let t_r = match pobs with Some _ -> Prof.now_ns () | None -> 0 in
          let handed = ref 0 and replayed = ref 0 in
          Array.iter
            (List.iter (fun v ->
                 incr handed;
                 if stamp.(v) <> g then begin
                   stamp.(v) <- g;
                   incr replayed;
                   recompute evs.(0) (owner v) v
                 end))
            frontier;
          let moved = Array.fold_left (fun acc b -> acc + b.len) 0 bufs in
          incr steps;
          total_moves := !total_moves + moved;
          let legit = count_legit && sum illegit = 0 in
          if legit then incr legit_steps;
          (match pobs with
          | Some o ->
              Metrics.add o.c_frontier !handed;
              Metrics.add o.c_replays !replayed;
              let t_c = Prof.now_ns () in
              Prof.record_span o.t_replay (t_c - t_r);
              Array.iter
                (fun b ->
                  for k = 0 to b.len - 1 do
                    Metrics.incr o.prc.(b.mr.(k))
                  done)
                bufs;
              if legit then Metrics.incr o.pc_legit;
              Prof.tick o.pp ~moves:moved;
              Prof.record_span o.t_callbacks (Prof.now_ns () - t_c)
          | None -> ());
          (match heartbeat with
          | Some (every, f) when !steps mod every = 0 ->
              f
                (Step.beat hb_last ~steps:!steps ~moves:!total_moves
                   ~enabled:(sum en_count)
                   ~legit:(if track_legit then nn - sum illegit else -1)
                   ~legit_steps:
                     (if count_legit then Some !legit_steps else None))
          | _ -> ());
          Step.trip monitor "moves-bound" moves_bound ~steps:!steps
            ~value:!total_moves;
          (* Under the synchronous daemon each step completes one round. *)
          Step.trip monitor "rounds-bound" rounds_bound ~steps:!steps
            ~value:!steps;
          if stopping && sum illegit = 0 then begin
            outcome := Engine.Stabilized;
            raise Exit
          end
        done
      with Exit -> ());
      if pobs <> None then Pool.Team.run team (fun d -> sample_gc pobs d 1.));
  (match pobs with
  | Some o ->
      merge_part_prof o ~nparts ~touched:w_touched ~evals:w_evals
        ~flips:w_flips;
      Step.finish_prof o.pp (Unix.gettimeofday () -. t0)
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
    moves_per_rule = Step.rule_list p.rule_names rule_totals;
    (* Under the synchronous daemon every pending node either moves or is
       neutralized within the step, so each step completes one round. *)
    rounds = !steps;
    legitimate = sum illegit = 0;
    wall_s = Unix.gettimeofday () -. t0;
  }
