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
let spec p = p.spec
let params p = p.params
let fields p = Array.mapi (fun i name -> (name, p.kinds.(i))) p.field_names

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

(* One evaluator = one set of closures over the shared state arrays.  A
   term compiles to an [int -> int -> int] and a form to an
   [int -> int -> bool] of self and the bound neighbor: a neighborhood
   aggregate passes each neighbor it visits as the second argument (at
   top level, where a well-formed IR reads no [Nbr] field, it is 0).  A
   comparison between a field read and a constant, or between two field
   reads, is one closure over the field arrays.

   A neighborhood quantifier ([Forall_nbr]/[Exists_nbr]) that occurs two
   or more times, up to structural equality, across the guards,
   assignments and legitimacy predicate is compiled once, behind a memo
   that is valid for one evaluation epoch.  A quantifier's value depends
   only on self and the state (its body binds its own neighbor), and
   neither changes within one evaluation, so every [first_enabled] and
   every [compute_post] starts a new epoch and the repeated occurrences
   then scan the neighborhood once.  The memos and the [Mex_nbr] scratch
   arrays are mutable, so partitioned runs compile one evaluator per
   worker domain; the state arrays stay shared. *)
type ev = {
  epoch : int ref;
  guards : (int -> int -> bool) array;
  assigns : (int * (int -> int -> int)) array array;  (* per rule *)
  legit : (int -> int -> bool) option;
}

(* Operators of the fused comparisons; [Ge] and [Gt] come from moving the
   constant of [k <= x] / [k < x] to the right. *)
type cmp = Eq | Le | Lt | Ge | Gt

let flip = function Eq -> Eq | Le -> Ge | Lt -> Gt | Ge -> Le | Gt -> Lt

let field_const op (site : Sym.site) (x : int array) (k : int) :
    int -> int -> bool =
  match (op, site) with
  | Eq, Sym.Self -> fun u _ -> x.(u) = k
  | Eq, Sym.Nbr -> fun _ v -> x.(v) = k
  | Le, Sym.Self -> fun u _ -> x.(u) <= k
  | Le, Sym.Nbr -> fun _ v -> x.(v) <= k
  | Lt, Sym.Self -> fun u _ -> x.(u) < k
  | Lt, Sym.Nbr -> fun _ v -> x.(v) < k
  | Ge, Sym.Self -> fun u _ -> x.(u) >= k
  | Ge, Sym.Nbr -> fun _ v -> x.(v) >= k
  | Gt, Sym.Self -> fun u _ -> x.(u) > k
  | Gt, Sym.Nbr -> fun _ v -> x.(v) > k

let rec field_field op (s : Sym.site) (x : int array) (t : Sym.site)
    (y : int array) : int -> int -> bool =
  match (op, s, t) with
  | Eq, Sym.Self, Sym.Self -> fun u _ -> x.(u) = y.(u)
  | Eq, Sym.Self, Sym.Nbr -> fun u v -> x.(u) = y.(v)
  | Eq, Sym.Nbr, Sym.Self -> fun u v -> x.(v) = y.(u)
  | Eq, Sym.Nbr, Sym.Nbr -> fun _ v -> x.(v) = y.(v)
  | Le, Sym.Self, Sym.Self -> fun u _ -> x.(u) <= y.(u)
  | Le, Sym.Self, Sym.Nbr -> fun u v -> x.(u) <= y.(v)
  | Le, Sym.Nbr, Sym.Self -> fun u v -> x.(v) <= y.(u)
  | Le, Sym.Nbr, Sym.Nbr -> fun _ v -> x.(v) <= y.(v)
  | Lt, Sym.Self, Sym.Self -> fun u _ -> x.(u) < y.(u)
  | Lt, Sym.Self, Sym.Nbr -> fun u v -> x.(u) < y.(v)
  | Lt, Sym.Nbr, Sym.Self -> fun u v -> x.(v) < y.(u)
  | Lt, Sym.Nbr, Sym.Nbr -> fun _ v -> x.(v) < y.(v)
  | Ge, _, _ -> field_field Le t y s x
  | Gt, _, _ -> field_field Lt t y s x

let compare_terms op (a : int -> int -> int) (b : int -> int -> int) :
    int -> int -> bool =
  match op with
  | Eq -> fun u v -> a u v = b u v
  | Le -> fun u v -> a u v <= b u v
  | Lt -> fun u v -> a u v < b u v
  | Ge -> fun u v -> a u v >= b u v
  | Gt -> fun u v -> a u v > b u v

(* Occurrences of every [Forall_nbr]/[Exists_nbr] node, nested ones
   included, in the forms [fs] and the terms [ts]. *)
let quantifier_counts fs ts =
  let counts = Hashtbl.create 16 in
  let rec term (t : Sym.term) =
    match t with
    | Sym.Num _ | Sym.Bool _ | Sym.Param _ | Sym.Var _ | Sym.Ctor _ -> ()
    | Sym.Add (a, b) | Sym.Sub (a, b) ->
        term a;
        term b
    | Sym.Neg a -> term a
    | Sym.Ite (c, a, b) | Sym.Min_nbr (c, a, b) ->
        form c;
        term a;
        term b
    | Sym.Mex_nbr (c, a) ->
        form c;
        term a
    | Sym.Count_nbr c -> form c
  and form (f : Sym.form) =
    match f with
    | Sym.Const _ -> ()
    | Sym.Not g -> form g
    | Sym.And gs | Sym.Or gs -> List.iter form gs
    | Sym.Imp (a, b) ->
        form a;
        form b
    | Sym.Eq (a, b) | Sym.Le (a, b) | Sym.Lt (a, b) ->
        term a;
        term b
    | Sym.Forall_nbr body | Sym.Exists_nbr body ->
        let k = Option.value ~default:0 (Hashtbl.find_opt counts f) in
        Hashtbl.replace counts f (k + 1);
        form body
  in
  List.iter form fs;
  List.iter term ts;
  counts

let make_ev p =
  let epoch = ref 0 in
  let offsets = p.csr.Csr.offsets in
  let nbrs = p.csr.Csr.nbrs in
  let field f = p.state.(field_index p f) in
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
  (* The value of a closed term over literals and parameters. *)
  let rec closed (t : Sym.term) =
    match t with
    | Sym.Num k -> Some k
    | Sym.Bool b -> Some (if b then 1 else 0)
    | Sym.Param name -> Some (param_val name)
    | Sym.Ctor c -> Some (ctor c)
    | Sym.Add (a, b) ->
        Option.bind (closed a) (fun x -> Option.map (( + ) x) (closed b))
    | Sym.Sub (a, b) ->
        Option.bind (closed a) (fun x -> Option.map (( - ) x) (closed b))
    | Sym.Neg a -> Option.map ( ~- ) (closed a)
    | Sym.Var _ | Sym.Ite _ | Sym.Min_nbr _ | Sym.Mex_nbr _ | Sym.Count_nbr _
      ->
        None
  in
  let rules = Array.of_list p.spec.Sym.sp_ir.Sym.rules in
  let counts =
    quantifier_counts
      (Option.to_list p.spec.Sym.sp_legitimate
      @ Array.to_list (Array.map (fun r -> r.Sym.guard) rules))
      (List.concat_map (fun r -> List.map snd r.Sym.assigns)
         (Array.to_list rules))
  in
  let memos = Hashtbl.create 16 in
  (* [scan] behind a memo of the current epoch's value. *)
  let memoize (scan : int -> int -> bool) =
    let at = ref (-1) and value = ref false in
    fun u v ->
      if !at <> !epoch then begin
        value := scan u v;
        at := !epoch
      end;
      !value
  in
  let rec cterm (t : Sym.term) : int -> int -> int =
    match t with
    | Sym.Num _ | Sym.Bool _ | Sym.Param _ | Sym.Ctor _ ->
        let k = Option.get (closed t) in
        fun _ _ -> k
    | Sym.Var (Sym.Self, f) ->
        let a = field f in
        fun u _ -> a.(u)
    | Sym.Var (Sym.Nbr, f) ->
        let a = field f in
        fun _ v -> a.(v)
    | Sym.Add (a, b) -> (
        match closed t with
        | Some k -> fun _ _ -> k
        | None ->
            let ca = cterm a and cb = cterm b in
            fun u v -> ca u v + cb u v)
    | Sym.Sub (a, b) -> (
        match closed t with
        | Some k -> fun _ _ -> k
        | None ->
            let ca = cterm a and cb = cterm b in
            fun u v -> ca u v - cb u v)
    | Sym.Neg a -> (
        match closed t with
        | Some k -> fun _ _ -> k
        | None ->
            let ca = cterm a in
            fun u v -> -ca u v)
    | Sym.Ite (c, a, b) ->
        let cc = cform c and ca = cterm a and cb = cterm b in
        fun u v -> if cc u v then ca u v else cb u v
    | Sym.Min_nbr (filt, body, dflt) ->
        let cf = cform filt and cb = cterm body and cd = cterm dflt in
        fun u v ->
          let best = ref max_int and found = ref false in
          for i = offsets.(u) to offsets.(u + 1) - 1 do
            let w = nbrs.(i) in
            if cf u w then begin
              found := true;
              let x = cb u w in
              if x < !best then best := x
            end
          done;
          if !found then !best else cd u v
    | Sym.Mex_nbr (filt, body) ->
        let cf = cform filt and cb = cterm body in
        (* mex <= deg, so a degree-sized seen-bitmap suffices; values
           outside [0, deg] can never be the answer.  Sized once for the
           largest degree and cleared after each use. *)
        let seen = Array.make (Csr.max_degree p.csr + 1) false in
        fun u _ ->
          let lo = offsets.(u) and hi = offsets.(u + 1) in
          let deg = hi - lo in
          for i = lo to hi - 1 do
            let w = nbrs.(i) in
            if cf u w then begin
              let x = cb u w in
              if x >= 0 && x <= deg then seen.(x) <- true
            end
          done;
          let c = ref 0 in
          while seen.(!c) do
            incr c
          done;
          Array.fill seen 0 (deg + 1) false;
          !c
    | Sym.Count_nbr filt ->
        let cf = cform filt in
        fun u _ ->
          let k = ref 0 in
          for i = offsets.(u) to offsets.(u + 1) - 1 do
            if cf u nbrs.(i) then incr k
          done;
          !k
  and cform (f : Sym.form) : int -> int -> bool =
    match f with
    | Sym.Const b -> fun _ _ -> b
    | Sym.Not g ->
        let cg = cform g in
        fun u v -> not (cg u v)
    | Sym.And gs -> (
        match Array.of_list (List.map cform gs) with
        | [||] -> fun _ _ -> true
        | [| a |] -> a
        | [| a; b |] -> fun u v -> a u v && b u v
        | [| a; b; c |] -> fun u v -> a u v && b u v && c u v
        | cs ->
            let k = Array.length cs in
            fun u v ->
              let i = ref 0 in
              while !i < k && cs.(!i) u v do
                incr i
              done;
              !i = k)
    | Sym.Or gs -> (
        match Array.of_list (List.map cform gs) with
        | [||] -> fun _ _ -> false
        | [| a |] -> a
        | [| a; b |] -> fun u v -> a u v || b u v
        | [| a; b; c |] -> fun u v -> a u v || b u v || c u v
        | cs ->
            let k = Array.length cs in
            fun u v ->
              let i = ref 0 in
              while !i < k && not (cs.(!i) u v) do
                incr i
              done;
              !i < k)
    | Sym.Imp (a, b) ->
        let ca = cform a and cb = cform b in
        fun u v -> (not (ca u v)) || cb u v
    | Sym.Eq (a, b) -> ccmp Eq a b
    | Sym.Le (a, b) -> ccmp Le a b
    | Sym.Lt (a, b) -> ccmp Lt a b
    | Sym.Forall_nbr body ->
        shared f (fun () ->
            let cb = cform body in
            fun u _ ->
              let stop = offsets.(u + 1) in
              let i = ref offsets.(u) in
              while !i < stop && cb u nbrs.(!i) do
                incr i
              done;
              !i = stop)
    | Sym.Exists_nbr body ->
        shared f (fun () ->
            let cb = cform body in
            fun u _ ->
              let stop = offsets.(u + 1) in
              let i = ref offsets.(u) in
              while !i < stop && not (cb u nbrs.(!i)) do
                incr i
              done;
              !i < stop)
  and ccmp op a b =
    let operand (t : Sym.term) =
      match t with
      | Sym.Var (site, f) -> `Field (site, field f)
      | _ -> ( match closed t with Some k -> `Const k | None -> `Term)
    in
    match (operand a, operand b) with
    | `Field (s, x), `Const k -> field_const op s x k
    | `Const k, `Field (s, x) -> field_const (flip op) s x k
    | `Field (s, x), `Field (t, y) -> field_field op s x t y
    | _ -> compare_terms op (cterm a) (cterm b)
  (* Quantifier [q], compiled by [scan]: once and memoized when it
     repeats, afresh otherwise. *)
  and shared q scan =
    if Hashtbl.find counts q < 2 then scan ()
    else
      match Hashtbl.find_opt memos q with
      | Some c -> c
      | None ->
          let c = memoize (scan ()) in
          Hashtbl.add memos q c;
          c
  in
  {
    epoch;
    guards = Array.map (fun r -> cform r.Sym.guard) rules;
    assigns =
      Array.map
        (fun r ->
          Array.of_list
            (List.map (fun (f, t) -> (field_index p f, cterm t)) r.Sym.assigns))
        rules;
    legit = Option.map cform p.spec.Sym.sp_legitimate;
  }

(* First enabled rule of [u], or -1 — the flat twin of the classic
   engine's enabled table entry.  Starts an evaluation epoch: a [legit]
   call on the same [u] right after it shares the quantifier memos. *)
let first_enabled ev u =
  incr ev.epoch;
  let gs = ev.guards in
  let k = Array.length gs in
  let i = ref 0 in
  while !i < k && not (gs.(!i) u 0) do
    incr i
  done;
  if !i < k then !i else -1

(* Post-values of rule [r] at [u], buffered into [dst] at [off] (row
   layout: one slot per field), in an epoch of their own.  Assignment
   terms read the pre-state arrays, never [dst], so buffering preserves
   act-on-pre-state. *)
let compute_post p ev r u ~dst ~off =
  incr ev.epoch;
  for f = 0 to p.nf - 1 do
    dst.(off + f) <- p.state.(f).(u)
  done;
  let a = ev.assigns.(r) in
  for j = 0 to Array.length a - 1 do
    let f, clo = a.(j) in
    dst.(off + f) <- clo u 0
  done

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
          let lg = clo v 0 in
          if lg <> la.(v) then begin
            la.(v) <- lg;
            illegit := !illegit + if lg then -1 else 1
          end;
          r
  in
  (* Sized like the core's mover buffers: full size under the synchronous
     daemon, which moves every enabled process. *)
  let cap =
    match daemon with Synchronous -> max 256 (Csr.n p.csr) | _ -> 256
  in
  let mp = ref (Array.make (cap * nf) 0) in
  let stage k u r =
    if (k + 1) * nf > Array.length !mp then begin
      let b = Array.make (2 * Array.length !mp) 0 in
      Array.blit !mp 0 b 0 (k * nf);
      mp := b
    end;
    compute_post p ev r u ~dst:!mp ~off:(k * nf)
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

(* Per-worker mover buffers, sized to the worker's range (the most the
   synchronous daemon can move there in one step) and reset every step. *)
type movers = {
  mu : int array;  (* mover node *)
  mr : int array;  (* mover rule *)
  mp : int array;  (* post rows, nf slots per mover *)
  mutable len : int;
}

let movers_make nf size =
  {
    mu = Array.make size 0;
    mr = Array.make size 0;
    mp = Array.make (size * nf) 0;
    len = 0;
  }

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

(* Run [body d] as worker [d]'s share of phase [ph]; profiled, its span
   goes to the worker's private slot. *)
let worker_phase pobs d ph body =
  match pobs with
  | None -> body d
  | Some o ->
      let t = Prof.now_ns () in
      body d;
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
  let bufs = Array.init nparts (fun d -> movers_make nf (hi d - lo d)) in
  let moves_per_process = Array.make nn 0 in
  let rule_moves = Array.make_matrix nparts nr 0 in
  let offsets = p.csr.Csr.offsets in
  let nbrs = p.csr.Csr.nbrs in
  (* Per-domain frontier buffers: a mover hands off each out-of-range
     neighbor once per step, so the range's cross-range degree bounds the
     handoffs of any step. *)
  let frontier =
    Array.init nparts (fun d ->
        let l = lo d and h = hi d and count = ref 0 in
        for u = l to h - 1 do
          for i = offsets.(u) to offsets.(u + 1) - 1 do
            if nbrs.(i) < l || nbrs.(i) >= h then incr count
          done
        done;
        Array.make !count 0)
  in
  let frontier_len = Array.make nparts 0 in
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
      let lg = (Option.get ev.legit) v 0 in
      if lg <> legit_of.(v) then begin
        legit_of.(v) <- lg;
        illegit.(d) <- illegit.(d) + (if lg then -1 else 1)
      end
    end
  in
  (* Refresh [v] on worker [d]'s evaluator unless the current step's stamp
     [g] says it already was; true when it was re-evaluated. *)
  let refresh_node ev d g v =
    stamp.(v) <> g
    && begin
         stamp.(v) <- g;
         recompute ev d v;
         true
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
  (* The step's three phases, built once per run. *)
  let push =
    Array.init nparts (fun d ->
        let ev = evs.(d) and b = bufs.(d) in
        fun u ->
          let k = b.len and r = rule_of.(u) in
          b.mu.(k) <- u;
          b.mr.(k) <- r;
          b.len <- k + 1;
          compute_post p ev r u ~dst:b.mp ~off:(k * nf))
  in
  (* Phase A — every enabled node moves (synchronous daemon); buffer post
     rows from the shared pre-state, no writes. *)
  let compute d =
    bufs.(d).len <- 0;
    Bits.iter_range enabled (lo d) (hi d) push.(d)
  in
  (* Phase B — write back own-range movers and account them. *)
  let write d =
    let b = bufs.(d) in
    for k = 0 to b.len - 1 do
      let u = b.mu.(k) in
      for f = 0 to nf - 1 do
        p.state.(f).(u) <- b.mp.((k * nf) + f)
      done;
      moves_per_process.(u) <- moves_per_process.(u) + 1;
      rule_moves.(d).(b.mr.(k)) <- rule_moves.(d).(b.mr.(k)) + 1
    done
  in
  (* Phase C — refresh the movers' closed neighborhoods.  Writes stay in
     the worker's own range; out-of-range neighbors are handed off and
     replayed sequentially after the phase.  Recomputation is idempotent,
     so duplicates (several movers sharing a neighbor, or several domains
     deferring the same node) are harmless and the result is independent
     of the partition count. *)
  let refresh d =
    let ev = evs.(d) and b = bufs.(d) and fr = frontier.(d) in
    let g = !gen and l = lo d and h = hi d in
    let touched = ref 0 and evals = ref 0 and handed = ref 0 in
    for k = 0 to b.len - 1 do
      let u = b.mu.(k) in
      incr touched;
      if refresh_node ev d g u then incr evals;
      for i = offsets.(u) to offsets.(u + 1) - 1 do
        let v = nbrs.(i) in
        if v >= l && v < h then begin
          incr touched;
          if refresh_node ev d g v then incr evals
        end
        else begin
          fr.(!handed) <- v;
          incr handed
        end
      done
    done;
    frontier_len.(d) <- !handed;
    w_touched.(d) <- w_touched.(d) + !touched;
    w_evals.(d) <- w_evals.(d) + !evals
  in
  let phase ph body d = worker_phase pobs d ph body in
  let phase_compute = phase ph_compute compute
  and phase_write = phase ph_write write
  and phase_refresh = phase ph_refresh refresh in
  Fun.protect
    ~finally:(fun () -> Pool.Team.shutdown team)
    (fun () ->
      Pool.Team.run team (fun d ->
          sample_gc pobs d (-1.);
          (* The initial scan is a refresh of the worker's whole range;
             it changes no table entry, so its flips are not counted. *)
          worker_phase pobs d ph_init (fun d ->
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
          Pool.Team.run team phase_compute;
          Pool.Team.run team phase_write;
          incr gen;
          Pool.Team.run team phase_refresh;
          (* Sequential frontier replay, in each domain's reverse handoff
             order: the cross-boundary cost, counted as handoffs and the
             replays the stamp did not skip. *)
          let t_r = match pobs with Some _ -> Prof.now_ns () | None -> 0 in
          let g = !gen in
          let handed = ref 0 and replayed = ref 0 in
          for d = 0 to nparts - 1 do
            let fr = frontier.(d) in
            handed := !handed + frontier_len.(d);
            for i = frontier_len.(d) - 1 downto 0 do
              let v = fr.(i) in
              if refresh_node evs.(0) (owner v) g v then incr replayed
            done
          done;
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
