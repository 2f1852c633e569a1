module Algorithm = Ssreset_sim.Algorithm
module Bits = Ssreset_sim.Bits
module Daemon = Ssreset_sim.Daemon
module Graph = Ssreset_graph.Graph

type ty = TInt | TBool | TEnum of string * string list
type site = Self | Nbr

type term =
  | Num of int
  | Bool of bool
  | Param of string
  | Var of site * string
  | Add of term * term
  | Sub of term * term
  | Neg of term
  | Ite of form * term * term
  | Ctor of string
  | Min_nbr of form * term * term
  | Mex_nbr of form * term
  | Count_nbr of form

and form =
  | Const of bool
  | Not of form
  | And of form list
  | Or of form list
  | Imp of form * form
  | Eq of term * term
  | Le of term * term
  | Lt of term * term
  | Forall_nbr of form
  | Exists_nbr of form

type assign = string * term
type rule = { rule : string; guard : form; assigns : assign list }
type param = { pname : string; lower : int option }

type ir = {
  ir_name : string;
  fields : (string * ty) list;
  params : param list;
  ranges : (string * term * term) list;
  rules : rule list;
}

type cert_spec = { cs_name : string; cs_rules : string list; cs_local : term }

type rank_spec = {
  rk_name : string;
  rk_rules : string list;
  rk_components : term list;
}

type spec = {
  sp_ir : ir;
  sp_legitimate : form option;
  sp_p_icorrect : form option;
  sp_p_reset : form option;
  sp_reset : assign list option;
  sp_cert : cert_spec option;
  sp_rank : rank_spec option;
}

let spec_of_ir ir =
  { sp_ir = ir;
    sp_legitimate = None;
    sp_p_icorrect = None;
    sp_p_reset = None;
    sp_reset = None;
    sp_cert = None;
    sp_rank = None }

(* --- values and evaluation ------------------------------------------- *)

type value = VInt of int | VBool of bool | VEnum of string

let value_equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VBool x, VBool y -> x = y
  | VEnum x, VEnum y -> String.equal x y
  | _ -> false

let pp_value ppf = function
  | VInt i -> Fmt.int ppf i
  | VBool b -> Fmt.bool ppf b
  | VEnum c -> Fmt.string ppf c

exception Ill_formed of string

let ill fmt = Fmt.kstr (fun m -> raise (Ill_formed m)) fmt

type venv = {
  ve_params : (string * int) list;
  ve_self : (string * value) list;
  ve_nbrs : (string * value) list array;
  ve_cur : int option;
}

let lookup fields f =
  match List.assoc_opt f fields with
  | Some v -> v
  | None -> ill "unknown field %s" f

let as_int = function
  | VInt i -> i
  | v -> ill "expected an integer, got %a" pp_value v

let rec eval_term env = function
  | Num i -> VInt i
  | Bool b -> VBool b
  | Param p -> (
      match List.assoc_opt p env.ve_params with
      | Some v -> VInt v
      | None -> ill "unknown parameter %s" p)
  | Var (Self, f) -> lookup env.ve_self f
  | Var (Nbr, f) -> (
      match env.ve_cur with
      | Some i -> lookup env.ve_nbrs.(i) f
      | None -> ill "Nbr field %s outside a neighborhood quantifier" f)
  | Add (a, b) -> VInt (as_int (eval_term env a) + as_int (eval_term env b))
  | Sub (a, b) -> VInt (as_int (eval_term env a) - as_int (eval_term env b))
  | Neg a -> VInt (-as_int (eval_term env a))
  | Ite (c, a, b) ->
      if eval_form_env env c then eval_term env a else eval_term env b
  | Ctor c -> VEnum c
  | Min_nbr (filt, body, dflt) ->
      let best = ref None in
      for i = 0 to Array.length env.ve_nbrs - 1 do
        let e = { env with ve_cur = Some i } in
        if eval_form_env e filt then begin
          let v = as_int (eval_term e body) in
          match !best with
          | Some b when b <= v -> ()
          | _ -> best := Some v
        end
      done;
      (match !best with Some v -> VInt v | None -> eval_term env dflt)
  | Mex_nbr (filt, body) ->
      (* Least c >= 0 such that no qualifying neighbor's body equals c.
         At most [deg] neighbors qualify, so the answer is <= deg. *)
      let used = ref [] in
      for i = 0 to Array.length env.ve_nbrs - 1 do
        let e = { env with ve_cur = Some i } in
        if eval_form_env e filt then
          used := as_int (eval_term e body) :: !used
      done;
      let c = ref 0 in
      while List.mem !c !used do
        incr c
      done;
      VInt !c
  | Count_nbr filt ->
      let k = ref 0 in
      for i = 0 to Array.length env.ve_nbrs - 1 do
        if eval_form_env { env with ve_cur = Some i } filt then incr k
      done;
      VInt !k

and eval_form_env env = function
  | Const b -> b
  | Not f -> not (eval_form_env env f)
  | And fs -> List.for_all (eval_form_env env) fs
  | Or fs -> List.exists (eval_form_env env) fs
  | Imp (a, b) -> (not (eval_form_env env a)) || eval_form_env env b
  | Eq (a, b) -> value_equal (eval_term env a) (eval_term env b)
  | Le (a, b) -> as_int (eval_term env a) <= as_int (eval_term env b)
  | Lt (a, b) -> as_int (eval_term env a) < as_int (eval_term env b)
  | Forall_nbr f ->
      let ok = ref true in
      for i = 0 to Array.length env.ve_nbrs - 1 do
        if !ok then ok := eval_form_env { env with ve_cur = Some i } f
      done;
      !ok
  | Exists_nbr f ->
      let hit = ref false in
      for i = 0 to Array.length env.ve_nbrs - 1 do
        if not !hit then hit := eval_form_env { env with ve_cur = Some i } f
      done;
      !hit

let env ~params ~self ~nbrs =
  { ve_params = params; ve_self = self; ve_nbrs = nbrs; ve_cur = None }

let eval_form ~params ~self ~nbrs f = eval_form_env (env ~params ~self ~nbrs) f

let eval_int ~params ?(self = []) t =
  as_int (eval_term (env ~params ~self ~nbrs:[||]) t)

let eval_rule_enabled ~params ~self ~nbrs r =
  eval_form ~params ~self ~nbrs r.guard

let eval_rule_apply ~params ~fields ~self ~nbrs r =
  let e = env ~params ~self ~nbrs in
  List.map
    (fun (f, _) ->
      match List.assoc_opt f r.assigns with
      | Some t -> (f, eval_term e t)
      | None -> (f, lookup self f))
    fields

let rec subst_self_term assigns = function
  | (Num _ | Bool _ | Param _ | Ctor _ | Var (Nbr, _)) as t -> t
  | Var (Self, f) as t -> (
      match List.assoc_opt f assigns with Some t' -> t' | None -> t)
  | Add (a, b) -> Add (subst_self_term assigns a, subst_self_term assigns b)
  | Sub (a, b) -> Sub (subst_self_term assigns a, subst_self_term assigns b)
  | Neg a -> Neg (subst_self_term assigns a)
  | Ite (c, a, b) ->
      Ite
        ( subst_self_form assigns c,
          subst_self_term assigns a,
          subst_self_term assigns b )
  | Min_nbr (filt, body, dflt) ->
      Min_nbr
        ( subst_self_form assigns filt,
          subst_self_term assigns body,
          subst_self_term assigns dflt )
  | Mex_nbr (filt, body) ->
      Mex_nbr (subst_self_form assigns filt, subst_self_term assigns body)
  | Count_nbr filt -> Count_nbr (subst_self_form assigns filt)

and subst_self_form assigns = function
  | Const _ as f -> f
  | Not f -> Not (subst_self_form assigns f)
  | And fs -> And (List.map (subst_self_form assigns) fs)
  | Or fs -> Or (List.map (subst_self_form assigns) fs)
  | Imp (a, b) -> Imp (subst_self_form assigns a, subst_self_form assigns b)
  | Eq (a, b) -> Eq (subst_self_term assigns a, subst_self_term assigns b)
  | Le (a, b) -> Le (subst_self_term assigns a, subst_self_term assigns b)
  | Lt (a, b) -> Lt (subst_self_term assigns a, subst_self_term assigns b)
  | Forall_nbr f -> Forall_nbr (subst_self_form assigns f)
  | Exists_nbr f -> Exists_nbr (subst_self_form assigns f)

let subst_self assigns f = subst_self_form assigns f

(* --- ranks -------------------------------------------------------------- *)

(* Tuples of different lengths are never ordered, so a rank whose length
   varies surfaces as a failed step instead of passing vacuously. *)
let lex_lt a b =
  let rec go a b =
    match (a, b) with
    | [], [] -> false
    | x :: xs, y :: ys -> x < y || (x = y && go xs ys)
    | _ -> false
  in
  List.compare_lengths a b = 0 && go a b

let rank_step ~params rk ~pre ~post =
  let tuple self = List.map (eval_int ~params ~self) rk.rk_components in
  let pre_t = tuple pre and post_t = tuple post in
  let fail what =
    Error
      (Fmt.str "rank %s %s (pre [%a], post [%a])" rk.rk_name what
         Fmt.(list ~sep:(any " ") int)
         pre_t
         Fmt.(list ~sep:(any " ") int)
         post_t)
  in
  if List.exists (fun v -> v < 0) (pre_t @ post_t) then
    fail "not bounded below"
  else if not (lex_lt post_t pre_t) then fail "does not strictly decrease"
  else Ok ()

(* --- static lint ------------------------------------------------------ *)

let well_formed ir =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun m -> errors := m :: !errors) fmt in
  let field_ok f = List.mem_assoc f ir.fields in
  let param_ok p = List.exists (fun q -> q.pname = p) ir.params in
  let rec walk_term ~ctx ~depth ~allow_fields = function
    | Num _ | Bool _ | Ctor _ -> ()
    | Param p -> if not (param_ok p) then err "%s: unknown parameter %s" ctx p
    | Var (site, f) ->
        if not allow_fields then err "%s: field %s in a closed term" ctx f
        else if not (field_ok f) then err "%s: unknown field %s" ctx f
        else if site = Nbr && depth = 0 then
          err "%s: Nbr field %s outside a neighborhood quantifier" ctx f
    | Add (a, b) | Sub (a, b) ->
        walk_term ~ctx ~depth ~allow_fields a;
        walk_term ~ctx ~depth ~allow_fields b
    | Neg a -> walk_term ~ctx ~depth ~allow_fields a
    | Ite (c, a, b) ->
        walk_form ~ctx ~depth ~allow_fields c;
        walk_term ~ctx ~depth ~allow_fields a;
        walk_term ~ctx ~depth ~allow_fields b
    | Min_nbr (filt, body, dflt) ->
        walk_form ~ctx ~depth:(depth + 1) ~allow_fields filt;
        walk_term ~ctx ~depth:(depth + 1) ~allow_fields body;
        walk_term ~ctx ~depth ~allow_fields dflt
    | Mex_nbr (filt, body) ->
        walk_form ~ctx ~depth:(depth + 1) ~allow_fields filt;
        walk_term ~ctx ~depth:(depth + 1) ~allow_fields body
    | Count_nbr filt -> walk_form ~ctx ~depth:(depth + 1) ~allow_fields filt
  and walk_form ~ctx ~depth ~allow_fields = function
    | Const _ -> ()
    | Not f -> walk_form ~ctx ~depth ~allow_fields f
    | And fs | Or fs -> List.iter (walk_form ~ctx ~depth ~allow_fields) fs
    | Imp (a, b) ->
        walk_form ~ctx ~depth ~allow_fields a;
        walk_form ~ctx ~depth ~allow_fields b
    | Eq (a, b) | Le (a, b) | Lt (a, b) ->
        walk_term ~ctx ~depth ~allow_fields a;
        walk_term ~ctx ~depth ~allow_fields b
    | Forall_nbr f | Exists_nbr f ->
        walk_form ~ctx ~depth:(depth + 1) ~allow_fields f
  in
  let names = List.map (fun r -> r.rule) ir.rules in
  if List.length (List.sort_uniq compare names) <> List.length names then
    err "%s: duplicate rule names" ir.ir_name;
  List.iter
    (fun r ->
      let ctx = Printf.sprintf "%s/%s" ir.ir_name r.rule in
      walk_form ~ctx:(ctx ^ " guard") ~depth:0 ~allow_fields:true r.guard;
      List.iter
        (fun (f, t) ->
          if not (field_ok f) then err "%s: assign to unknown field %s" ctx f;
          walk_term ~ctx:(ctx ^ " assign " ^ f) ~depth:0 ~allow_fields:true t)
        r.assigns)
    ir.rules;
  List.iter
    (fun (f, lo, hi) ->
      let ctx = Printf.sprintf "%s range %s" ir.ir_name f in
      if not (field_ok f) then err "%s: unknown field" ctx;
      walk_term ~ctx ~depth:0 ~allow_fields:false lo;
      walk_term ~ctx ~depth:0 ~allow_fields:false hi)
    ir.ranges;
  List.rev !errors

(* --- instances -------------------------------------------------------- *)

module type INSTANCE = sig
  type state

  val spec : spec
  val param_values : (string * int) list
  val algorithm : state Algorithm.t
  val graph : Graph.t
  val domain : int -> state list
  val encode : state -> (string * value) list
  val is_legitimate : (state array -> bool) option
end

type instance = (module INSTANCE)

let make_instance (type s) ~spec ~params
    ~(algorithm : s Algorithm.t) ~graph ~domain ~encode ?is_legitimate () :
    instance =
  (module struct
    type state = s

    let spec = spec
    let param_values = params
    let algorithm = algorithm
    let graph = graph
    let domain = domain
    let encode = encode
    let is_legitimate = is_legitimate
  end)

(* --- mismatch accounting ---------------------------------------------- *)

type mismatch = {
  where : string;
  rules : string list;
  detail : string;
  count : int;
}

type diff = {
  views : int;
  steps : int;
  daemons : int;
  mismatches : mismatch list;
}

let diff_ok d = d.mismatches = []

let pp_mismatch ppf m =
  Fmt.pf ppf "[%s] %a — %d occurrence(s), e.g. %s" m.where
    Fmt.(list ~sep:(any ", ") string)
    m.rules m.count m.detail

let sort_mismatches ms =
  List.sort (fun a b -> compare (a.where, a.rules) (b.where, b.rules)) ms

let merge_diffs ds =
  let table = Hashtbl.create 16 in
  List.iter
    (fun d ->
      List.iter
        (fun m ->
          match Hashtbl.find_opt table (m.where, m.rules) with
          | None -> Hashtbl.add table (m.where, m.rules) m
          | Some prior ->
              Hashtbl.replace table (m.where, m.rules)
                { prior with count = prior.count + m.count })
        d.mismatches)
    ds;
  { views = List.fold_left (fun acc d -> acc + d.views) 0 ds;
    steps = List.fold_left (fun acc d -> acc + d.steps) 0 ds;
    daemons = List.fold_left (fun acc d -> acc + d.daemons) 0 ds;
    mismatches =
      Hashtbl.fold (fun _ m acc -> m :: acc) table [] |> sort_mismatches }

(* A recorder with one witness per (where, rules) and summed counts. *)
let recorder () =
  let table = Hashtbl.create 16 in
  let record ~where ~rules detail =
    let rules = List.sort_uniq compare rules in
    match Hashtbl.find_opt table (where, rules) with
    | Some (_, count) -> incr count
    | None -> Hashtbl.add table (where, rules) (detail (), ref 1)
  in
  let dump () =
    Hashtbl.fold
      (fun (where, rules) (detail, count) acc ->
        { where; rules; detail; count = !count } :: acc)
      table []
    |> sort_mismatches
  in
  (record, dump)

(* --- view-space differential ----------------------------------------- *)

let pp_valuation ppf vals =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string pp_value))
    vals

let run_views (type s) ~max_views_per_process
    (module I : INSTANCE with type state = s) =
  let ir = I.spec.sp_ir in
  let (record, dump) = recorder () in
  List.iter
    (fun e -> record ~where:"static" ~rules:[] (fun () -> e))
    (well_formed ir);
  let concrete_names =
    List.map (fun r -> r.Algorithm.rule_name) I.algorithm.Algorithm.rules
  and ir_names = List.map (fun r -> r.rule) ir.rules in
  if concrete_names <> ir_names then
    record ~where:"static" ~rules:ir_names (fun () ->
        Fmt.str "IR rules [%a] do not match algorithm rules [%a]"
          Fmt.(list ~sep:(any "; ") string)
          ir_names
          Fmt.(list ~sep:(any "; ") string)
          concrete_names);
  (* Pairs comparable by name, independent of order mismatches above. *)
  let pairs =
    List.filter_map
      (fun (r : s Algorithm.rule) ->
        List.find_opt (fun sr -> sr.rule = r.Algorithm.rule_name) ir.rules
        |> Option.map (fun sr -> (r, sr)))
      I.algorithm.Algorithm.rules
  in
  let n = Graph.n I.graph in
  let pp_view ppf (v : s Algorithm.view) =
    Fmt.pf ppf "@[<h>self=%a nbrs=[%a]@]" I.algorithm.Algorithm.pp
      v.Algorithm.state
      Fmt.(array ~sep:(any " ") I.algorithm.Algorithm.pp)
      v.Algorithm.nbrs
  in
  (* Seed-domain states must satisfy the declared ranges: the emitted
     range axioms are assumptions, so a domain state outside them would
     make the SMT obligations vacuously strong. *)
  for u = 0 to n - 1 do
    List.iter
      (fun s ->
        let self = I.encode s in
        let e = env ~params:I.param_values ~self ~nbrs:[||] in
        List.iter
          (fun (f, lo, hi) ->
            let v = as_int (lookup self f) in
            if
              v < as_int (eval_term e lo) || v >= as_int (eval_term e hi)
            then
              record ~where:"range" ~rules:[] (fun () ->
                  Fmt.str "domain state %a of process %d has %s = %d \
                           outside the declared range"
                    I.algorithm.Algorithm.pp s u f v))
          ir.ranges)
      (I.domain u)
  done;
  let views = ref 0 in
  for u = 0 to n - 1 do
    let nbrs = Graph.neighbors I.graph u in
    let dims =
      Array.init
        (1 + Array.length nbrs)
        (fun i ->
          Array.of_list (I.domain (if i = 0 then u else nbrs.(i - 1))))
    in
    Algorithm.sample_views ~max:max_views_per_process dims @@ fun _ view ->
      incr views;
      let self = I.encode view.Algorithm.state in
      let enc_nbrs = Array.map I.encode view.Algorithm.nbrs in
      List.iter
        (fun ((r : s Algorithm.rule), sr) ->
          match
            let concrete = r.Algorithm.guard view in
            let symbolic =
              eval_rule_enabled ~params:I.param_values ~self ~nbrs:enc_nbrs
                sr
            in
            if concrete <> symbolic then
              record ~where:"views" ~rules:[ sr.rule ] (fun () ->
                  Fmt.str "guard disagrees (OCaml %b, IR %b) on %a" concrete
                    symbolic pp_view view)
            else if concrete then begin
              let post = I.encode (r.Algorithm.action view) in
              let sym_post =
                eval_rule_apply ~params:I.param_values ~fields:ir.fields
                  ~self ~nbrs:enc_nbrs sr
              in
              if
                not
                  (List.for_all
                     (fun (f, _) ->
                       value_equal (lookup post f) (lookup sym_post f))
                     ir.fields)
              then
                record ~where:"views" ~rules:[ sr.rule ] (fun () ->
                    Fmt.str "post-state disagrees (OCaml %a, IR %a) on %a"
                      pp_valuation post pp_valuation sym_post pp_view view);
              (* Ranking differential: on every enabled view of a covered
                 rule, the mover's rank must take a strict step — the
                 concrete shadow of the rank-decrease SMT obligations
                 ({!Obligation}). *)
              (match I.spec.sp_rank with
              | Some rk when List.mem sr.rule rk.rk_rules -> (
                  match rank_step ~params:I.param_values rk ~pre:self ~post with
                  | Ok () -> ()
                  | Error why ->
                      record ~where:"rank" ~rules:[ sr.rule ] (fun () ->
                          Fmt.str "%s on %a" why pp_view view))
              | _ -> ())
            end
          with
          | () -> ()
          | exception Ill_formed msg ->
              record ~where:"views" ~rules:[ sr.rule ] (fun () ->
                  Fmt.str "IR evaluation failed: %s on %a" msg pp_view view))
        pairs
  done;
  { views = !views; steps = 0; daemons = 0; mismatches = dump () }

(* --- daemon-driven differential --------------------------------------- *)

let run_daemons (type s) ~max_steps ~seeds
    (module I : INSTANCE with type state = s) =
  let ir = I.spec.sp_ir in
  let (record, dump) = recorder () in
  let g = I.graph in
  let n = Graph.n g in
  let domains = Array.init n (fun u -> Array.of_list (I.domain u)) in
  let rule_by_name name =
    List.find_opt (fun sr -> sr.rule = name) ir.rules
  in
  let steps = ref 0 in
  List.iter
    (fun (dname, daemon) ->
      let where = "daemon " ^ dname in
      (* One round-robin cursor per daemon, carried across its seeds. *)
      let cursor = ref 0 in
      List.iter
        (fun seed ->
          let rng =
            Random.State.make [| 0x5347; seed; Hashtbl.hash dname |]
          in
          let cfg =
            Array.init n (fun u ->
                domains.(u).(Random.State.int rng (Array.length domains.(u))))
          in
          (try
             let step = ref 0 in
             let continue = ref true in
             while !continue && !step < max_steps do
               let views = Algorithm.views g cfg in
               let enc = Array.map I.encode cfg in
               let enc_view u =
                 ( enc.(u),
                   Array.map (fun v -> enc.(v)) (Graph.neighbors g u) )
               in
               (* Enabled set (process + first enabled rule name), both ways. *)
               let concrete =
                 List.filter_map
                   (fun u ->
                     Algorithm.enabled_rule I.algorithm views.(u)
                     |> Option.map (fun (r : s Algorithm.rule) ->
                            (u, r.Algorithm.rule_name)))
                   (List.init n Fun.id)
               in
               let symbolic =
                 List.filter_map
                   (fun u ->
                     let self, nbrs = enc_view u in
                     List.find_opt
                       (fun sr ->
                         eval_rule_enabled ~params:I.param_values ~self ~nbrs
                           sr)
                       ir.rules
                     |> Option.map (fun sr -> (u, sr.rule)))
                   (List.init n Fun.id)
               in
               if concrete <> symbolic then
                 record ~where
                   ~rules:(List.sort_uniq compare (List.map snd concrete))
                   (fun () ->
                     Fmt.str
                       "enabled set disagrees at step %d (OCaml %a, IR %a)"
                       !step
                       Fmt.(
                         list ~sep:(any " ")
                           (pair ~sep:(any ":") int string))
                       concrete
                       Fmt.(
                         list ~sep:(any " ")
                           (pair ~sep:(any ":") int string))
                       symbolic);
               (* Legitimacy predicate cross-check, when both sides have one. *)
               (match (I.is_legitimate, I.spec.sp_legitimate) with
               | Some concrete_legit, Some form ->
                   let sym_legit =
                     try
                       Array.for_all Fun.id
                         (Array.init n (fun u ->
                              let self, nbrs = enc_view u in
                              eval_form ~params:I.param_values ~self ~nbrs
                                form))
                     with Ill_formed msg ->
                       record ~where:"legitimate" ~rules:[] (fun () -> msg);
                       concrete_legit cfg
                   in
                   if sym_legit <> concrete_legit cfg then
                     record ~where:"legitimate" ~rules:[] (fun () ->
                         Fmt.str
                           "legitimacy disagrees at step %d under %s \
                            (OCaml %b, IR form %b)"
                           !step dname (concrete_legit cfg) sym_legit)
               | _ -> ());
               match concrete with
               | [] -> continue := false
               | _ ->
                   let enabled = Bits.create n in
                   List.iter
                     (fun (u, _) -> ignore (Bits.add enabled u))
                     concrete;
                   let chosen = ref [] in
                   Daemon.select daemon rng ~cursor ~enabled
                     ~count:(List.length concrete)
                     ~rule_name:(fun u -> List.assoc u concrete)
                     ~for_all_neighbors:(fun u f ->
                       Graph.for_all_neighbors g u ~f)
                     (fun u -> chosen := u :: !chosen);
                   let selection = List.rev !chosen in
                   Daemon.check_selection enabled selection;
                   (* Composite atomicity: all movers act on the pre-state. *)
                   let updates =
                     List.map
                       (fun u ->
                         let r =
                           Option.get
                             (Algorithm.enabled_rule I.algorithm views.(u))
                         in
                         let post = r.Algorithm.action views.(u) in
                         (match rule_by_name r.Algorithm.rule_name with
                         | None -> ()
                         | Some sr ->
                             let self, nbrs = enc_view u in
                             let sym_post =
                               eval_rule_apply ~params:I.param_values
                                 ~fields:ir.fields ~self ~nbrs sr
                             in
                             let enc_post = I.encode post in
                             if
                               not
                                 (List.for_all
                                    (fun (f, _) ->
                                      value_equal (lookup enc_post f)
                                        (lookup sym_post f))
                                    ir.fields)
                             then
                               record ~where ~rules:[ sr.rule ] (fun () ->
                                   Fmt.str
                                     "mover %d post-state disagrees at step \
                                      %d (OCaml %a, IR %a)"
                                     u !step pp_valuation enc_post
                                     pp_valuation sym_post));
                         (u, post))
                       selection
                   in
                   List.iter (fun (u, s) -> cfg.(u) <- s) updates;
                   incr step;
                   incr steps
             done
           with Ill_formed msg ->
             record ~where ~rules:[] (fun () ->
                 Fmt.str "IR evaluation failed: %s" msg)))
        seeds)
    Daemon.registry;
  { views = 0;
    steps = !steps;
    daemons = List.length Daemon.registry;
    mismatches = dump () }

let check ?(max_views_per_process = 2000) ?(max_steps = 50) (inst : instance)
    =
  let (module I) = inst in
  merge_diffs
    [ run_views ~max_views_per_process (module I);
      run_daemons ~max_steps ~seeds:[ 0; 1 ] (module I) ]
