module Sym = Ssreset_check.Sym

exception Unsupported of string

type node = Term of Sym.term | Form of Sym.form

(* ------------------------------- analyses ------------------------------- *)

(* Whether a term or form reads the innermost bound neighbor: a [Var (Nbr,
   _)] outside any nested binder.  A nested aggregate binds its own
   neighbor, except in a [Min_nbr] default, which is evaluated outside
   the binder. *)
let rec term_reads_nbr (t : Sym.term) =
  match t with
  | Sym.Var (Sym.Nbr, _) -> true
  | Sym.Var (Sym.Self, _) | Sym.Num _ | Sym.Bool _ | Sym.Param _ | Sym.Ctor _
    ->
      false
  | Sym.Add (a, b) | Sym.Sub (a, b) -> term_reads_nbr a || term_reads_nbr b
  | Sym.Neg a -> term_reads_nbr a
  | Sym.Ite (c, a, b) ->
      form_reads_nbr c || term_reads_nbr a || term_reads_nbr b
  | Sym.Min_nbr (_, _, d) -> term_reads_nbr d
  | Sym.Mex_nbr _ | Sym.Count_nbr _ -> false

and form_reads_nbr (f : Sym.form) =
  match f with
  | Sym.Const _ | Sym.Forall_nbr _ | Sym.Exists_nbr _ -> false
  | Sym.Not g -> form_reads_nbr g
  | Sym.And gs | Sym.Or gs -> List.exists form_reads_nbr gs
  | Sym.Imp (a, b) -> form_reads_nbr a || form_reads_nbr b
  | Sym.Eq (a, b) | Sym.Le (a, b) | Sym.Lt (a, b) ->
      term_reads_nbr a || term_reads_nbr b

let reads_nbr = function Term t -> term_reads_nbr t | Form f -> form_reads_nbr f

(* Every node occurrence, nested ones and binder bodies included. *)
let rec iter_term k (t : Sym.term) =
  k (Term t);
  match t with
  | Sym.Var _ | Sym.Num _ | Sym.Bool _ | Sym.Param _ | Sym.Ctor _ -> ()
  | Sym.Add (a, b) | Sym.Sub (a, b) ->
      iter_term k a;
      iter_term k b
  | Sym.Neg a -> iter_term k a
  | Sym.Ite (c, a, b) | Sym.Min_nbr (c, a, b) ->
      iter_form k c;
      iter_term k a;
      iter_term k b
  | Sym.Mex_nbr (c, a) ->
      iter_form k c;
      iter_term k a
  | Sym.Count_nbr c -> iter_form k c

and iter_form k (f : Sym.form) =
  k (Form f);
  match f with
  | Sym.Const _ -> ()
  | Sym.Not g | Sym.Forall_nbr g | Sym.Exists_nbr g -> iter_form k g
  | Sym.And gs | Sym.Or gs -> List.iter (iter_form k) gs
  | Sym.Imp (a, b) ->
      iter_form k a;
      iter_form k b
  | Sym.Eq (a, b) | Sym.Le (a, b) | Sym.Lt (a, b) ->
      iter_term k a;
      iter_term k b

let iter k = function Term t -> iter_term k t | Form f -> iter_form k f

(* Whether a neighborhood aggregate occurs anywhere inside. *)
let scans nd =
  let found = ref false in
  let k = function
    | Term (Sym.Min_nbr _ | Sym.Mex_nbr _ | Sym.Count_nbr _)
    | Form (Sym.Forall_nbr _ | Sym.Exists_nbr _) ->
        found := true
    | Term _ | Form _ -> ()
  in
  iter k nd;
  !found

(* Literals and parameters under [Add]/[Sub]/[Neg]: computed once per
   build, like the closure compiler's constant folding. *)
let rec closed (t : Sym.term) =
  match t with
  | Sym.Num _ | Sym.Bool _ | Sym.Param _ | Sym.Ctor _ -> true
  | Sym.Add (a, b) | Sym.Sub (a, b) -> closed a && closed b
  | Sym.Neg a -> closed a
  | _ -> false

(* At most one load: never worth a hoist or a memo. *)
let atomic (t : Sym.term) =
  match t with Sym.Var (Sym.Self, _) -> true | _ -> closed t

(* A node whose value depends on self and the state only, and whose
   evaluation scans a neighborhood: its repeated occurrences share one
   lazily filled memo per evaluation. *)
let memoizable nd = (not (reads_nbr nd)) && scans nd

(* A node of a loop body that does not depend on the bound neighbor and
   costs more than a load: evaluated once, before the loop.  Invariant
   comparisons stay in place, where short-circuiting may skip them. *)
let hoistable nd =
  (not (reads_nbr nd))
  && match nd with Term t -> not (atomic t) | Form _ -> scans nd

(* The maximal hoistable nodes of a loop body, in order of first
   occurrence.  The walk stops at nested binders (their bodies are planned
   when their own loop is emitted) but enters a [Min_nbr] default, which
   is evaluated in the enclosing body. *)
let plan_hoists parts =
  let acc = ref [] in
  let add nd = if not (List.mem nd !acc) then acc := nd :: !acc in
  let rec term (t : Sym.term) =
    if hoistable (Term t) then add (Term t)
    else
      match t with
      | Sym.Var _ | Sym.Num _ | Sym.Bool _ | Sym.Param _ | Sym.Ctor _
      | Sym.Mex_nbr _ | Sym.Count_nbr _ ->
          ()
      | Sym.Add (a, b) | Sym.Sub (a, b) ->
          term a;
          term b
      | Sym.Neg a -> term a
      | Sym.Ite (c, a, b) ->
          form c;
          term a;
          term b
      | Sym.Min_nbr (_, _, d) -> term d
  and form (f : Sym.form) =
    if hoistable (Form f) then add (Form f)
    else
      match f with
      | Sym.Const _ | Sym.Forall_nbr _ | Sym.Exists_nbr _ -> ()
      | Sym.Not g -> form g
      | Sym.And gs | Sym.Or gs -> List.iter form gs
      | Sym.Imp (a, b) ->
          form a;
          form b
      | Sym.Eq (a, b) | Sym.Le (a, b) | Sym.Lt (a, b) ->
          term a;
          term b
  in
  List.iter (function Term t -> term t | Form f -> form f) parts;
  List.rev !acc

(* ------------------------------- emitter -------------------------------- *)

(* Names in the generated code: field arrays [a<i>], parameters [p<i>] and
   closed constants [c<i>] are bound once per build; memos [m<i>] once per
   evaluation; hoists [h<i>] before their loop; loop locals carry their
   nesting depth ([i1], [w1], ...). *)

type builder = {
  spec_name : string;
  fields : (string * int) list;
  ctors : (string * int) list;
  params : (string * int) list;
  used_fields : bool array;
  used_params : bool array;
  mutable consts : (Sym.term * string) list;  (* newest first *)
  mutable uses_offsets : bool;
  mutable uses_nbrs : bool;
  mutable hoisted : node list;  (* newest first *)
}

(* One generated function: [eval], or one rule's branch of [post]. *)
type fn = {
  memos : node list;  (* nodes read through a memo *)
  mutable slot_of : (node * int) list;  (* memos read so far *)
  mutable fresh : int;
  mutable self_used : bool;
}

type scope = {
  nbr : string option;  (* variable of the innermost bound neighbor *)
  depth : int;
  hoists : (node * string) list;
}

let top = { nbr = None; depth = 0; hoists = [] }

let unsupported b construct reason =
  raise
    (Unsupported
       (Printf.sprintf "spec %s: cannot emit %s: %s" b.spec_name construct
          reason))

let lookup b kind name table =
  match List.assoc_opt name table with
  | Some i -> i
  | None -> unsupported b (Printf.sprintf "%s %s" kind name) "not declared"

let field_var b construct name =
  let i =
    match List.assoc_opt name b.fields with
    | Some i -> i
    | None -> unsupported b construct "undeclared field"
  in
  b.used_fields.(i) <- true;
  Printf.sprintf "a%d" i

let int_lit k = if k < 0 then Printf.sprintf "(%d)" k else string_of_int k

(* A closed term over the build-time parameter variables. *)
let rec closed_expr b (t : Sym.term) =
  match t with
  | Sym.Num k -> int_lit k
  | Sym.Bool v -> if v then "1" else "0"
  | Sym.Ctor c -> string_of_int (lookup b "Ctor" c b.ctors)
  | Sym.Param p ->
      let i = lookup b "Param" p b.params in
      b.used_params.(i) <- true;
      Printf.sprintf "p%d" i
  | Sym.Add (x, y) ->
      Printf.sprintf "(%s + %s)" (closed_expr b x) (closed_expr b y)
  | Sym.Sub (x, y) ->
      Printf.sprintf "(%s - %s)" (closed_expr b x) (closed_expr b y)
  | Sym.Neg x -> Printf.sprintf "(- %s)" (closed_expr b x)
  | _ -> assert false

let const b (t : Sym.term) =
  match t with
  | Sym.Num _ | Sym.Bool _ | Sym.Ctor _ | Sym.Param _ -> closed_expr b t
  | _ -> (
      match List.assoc_opt t b.consts with
      | Some v -> v
      | None ->
          let v = Printf.sprintf "c%d" (List.length b.consts) in
          ignore (closed_expr b t);
          b.consts <- (t, v) :: b.consts;
          v)

let fresh fn prefix =
  let k = fn.fresh in
  fn.fresh <- k + 1;
  Printf.sprintf "%s%d" prefix k

(* The variable of [nd]'s memo. *)
let slot fn nd =
  let i =
    match List.assoc_opt nd fn.slot_of with
    | Some i -> i
    | None ->
        let i = List.length fn.slot_of in
        fn.slot_of <- (nd, i) :: fn.slot_of;
        i
  in
  Printf.sprintf "m%d" i

let rec term b fn sc (t : Sym.term) =
  match List.assoc_opt (Term t) sc.hoists with
  | Some v -> v
  | None ->
      if List.mem (Term t) fn.memos then
        let m = slot fn (Term t) in
        let code = raw_term b fn sc t in
        Printf.sprintf
          "(if !%s_set then !%s else begin let x = %s in %s := x; %s_set := \
           true; x end)"
          m m code m m
      else raw_term b fn sc t

and form b fn sc (f : Sym.form) =
  match List.assoc_opt (Form f) sc.hoists with
  | Some v -> v
  | None ->
      if List.mem (Form f) fn.memos then
        let m = slot fn (Form f) in
        let code = raw_form b fn sc f in
        Printf.sprintf
          "(if !%s = 0 then %s := (if %s then 2 else 1); !%s = 2)" m m code m
      else raw_form b fn sc f

and raw_term b fn sc (t : Sym.term) =
  match t with
  | _ when closed t -> const b t
  | Sym.Var (Sym.Self, f) ->
      fn.self_used <- true;
      let construct = Printf.sprintf "Var (Self, %s)" f in
      Printf.sprintf "%s.(u)" (field_var b construct f)
  | Sym.Var (Sym.Nbr, f) -> (
      let construct = Printf.sprintf "Var (Nbr, %s)" f in
      match sc.nbr with
      | None -> unsupported b construct "outside a neighborhood binder"
      | Some w -> Printf.sprintf "%s.(%s)" (field_var b construct f) w)
  | Sym.Add (x, y) ->
      Printf.sprintf "(%s + %s)" (term b fn sc x) (term b fn sc y)
  | Sym.Sub (x, y) ->
      Printf.sprintf "(%s - %s)" (term b fn sc x) (term b fn sc y)
  | Sym.Neg x -> Printf.sprintf "(- %s)" (term b fn sc x)
  | Sym.Ite (c, x, y) ->
      Printf.sprintf "(if %s then %s else %s)" (form b fn sc c) (term b fn sc x)
        (term b fn sc y)
  | Sym.Count_nbr filt ->
      let lets, inner, bind = binder b fn sc [ Form filt ] in
      let n = Printf.sprintf "n%d" inner.depth in
      Printf.sprintf "(%slet %s = ref 0 in %s if %s then incr %s done; !%s)"
        lets n (for_each inner bind) (form b fn inner filt) n n
  | Sym.Min_nbr (filt, body, dflt) ->
      let lets, inner, bind = binder b fn sc [ Form filt; Term body ] in
      let best = Printf.sprintf "best%d" inner.depth
      and found = Printf.sprintf "found%d" inner.depth in
      Printf.sprintf
        "(%slet %s = ref max_int and %s = ref false in %s if %s then begin %s \
         := true; let x = %s in if x < !%s then %s := x end done; if !%s then \
         !%s else %s)"
        lets best found (for_each inner bind) (form b fn inner filt) found
        (term b fn inner body) best best found best (term b fn sc dflt)
  | Sym.Mex_nbr (filt, body) ->
      (* The least c >= 0 no qualifying neighbor's body equals: values
         below the word size are marked in one int, larger answers (only
         possible at degree >= the word size) are found by rescanning. *)
      let lets, inner, bind = binder b fn sc [ Form filt; Term body ] in
      let d = inner.depth in
      let bits = Sys.int_size - 1 in
      let f = form b fn inner filt and x = term b fn inner body in
      Printf.sprintf
        "(%slet seen%d = ref 0 in %s if %s then begin let x = %s in if x \
         >= 0 && x < %d then seen%d := !seen%d lor (1 lsl x) end done; let \
         c%d = ref 0 in while !c%d < %d && !seen%d land (1 lsl !c%d) <> 0 do \
         incr c%d done; if !c%d < %d then !c%d else begin let again%d = ref \
         true in while !again%d do again%d := false; %s if %s && %s = !c%d \
         then again%d := true done; if !again%d then incr c%d done; !c%d end)"
        lets d (for_each inner bind) f x bits d d d d bits d d d d bits d d d
        d (for_each inner bind) f x d d d d d
  | Sym.Num _ | Sym.Bool _ | Sym.Param _ | Sym.Ctor _ -> assert false

and raw_form b fn sc (f : Sym.form) =
  let chain op unit gs =
    match gs with
    | [] -> unit
    | [ g ] -> form b fn sc g
    | gs -> "(" ^ String.concat op (List.map (form b fn sc) gs) ^ ")"
  in
  let cmp op x y =
    Printf.sprintf "(%s %s %s)" (term b fn sc x) op (term b fn sc y)
  in
  match f with
  | Sym.Const v -> string_of_bool v
  | Sym.Not g -> Printf.sprintf "(not %s)" (form b fn sc g)
  | Sym.And gs -> chain " && " "true" gs
  | Sym.Or gs -> chain " || " "false" gs
  | Sym.Imp (x, y) ->
      Printf.sprintf "((not %s) || %s)" (form b fn sc x) (form b fn sc y)
  | Sym.Eq (x, y) -> cmp "=" x y
  | Sym.Le (x, y) -> cmp "<=" x y
  | Sym.Lt (x, y) -> cmp "<" x y
  | Sym.Forall_nbr body | Sym.Exists_nbr body ->
      let lets, inner, bind = binder b fn sc [ Form body ] in
      let d = inner.depth in
      let test = form b fn inner body in
      let test =
        if bind then Printf.sprintf "(let w%d = nbrs.(!i%d) in %s)" d d test
        else test
      in
      let forall = match f with Sym.Forall_nbr _ -> true | _ -> false in
      Printf.sprintf
        "(%slet i%d = ref offsets.(u) and e%d = offsets.(u + 1) in while \
         !i%d < e%d && %s%s do incr i%d done; !i%d %s e%d)"
        lets d d d d
        (if forall then "" else "not ")
        test d d
        (if forall then "=" else "<")
        d

(* Enter a neighborhood binder over [parts] (its filter and body): the
   hoists of [parts] as [let]s evaluated in [sc], the scope of the loop
   body, and whether the body reads the bound neighbor. *)
and binder b fn sc parts =
  fn.self_used <- true;
  b.uses_offsets <- true;
  let bind = List.exists reads_nbr parts in
  if bind then b.uses_nbrs <- true;
  let planned =
    List.filter
      (fun nd -> not (List.mem_assoc nd sc.hoists))
      (plan_hoists parts)
  in
  let lets, hoists =
    List.fold_left
      (fun (lets, hs) nd ->
        let v = fresh fn "h" in
        let code =
          match nd with Term t -> term b fn sc t | Form f -> form b fn sc f
        in
        if not (List.mem nd b.hoisted) then b.hoisted <- nd :: b.hoisted;
        (lets ^ Printf.sprintf "let %s = %s in " v code, (nd, v) :: hs))
      ("", sc.hoists) planned
  in
  let depth = sc.depth + 1 in
  ( lets,
    {
      nbr = (if bind then Some (Printf.sprintf "w%d" depth) else None);
      depth;
      hoists;
    },
    bind )

(* The head of a [for] loop over the neighborhood, up to the body. *)
and for_each inner bind =
  let d = inner.depth in
  if bind then
    Printf.sprintf
      "for i%d = offsets.(u) to offsets.(u + 1) - 1 do let w%d = nbrs.(i%d) in"
      d d d
  else "for _ = offsets.(u) to offsets.(u + 1) - 1 do"

(* Emit one function with [gen]: the memoizable nodes that occur twice or
   more in its [roots] are read through memos, declared on entry. *)
let emit_fn roots gen =
  let memos = ref [] and counts = Hashtbl.create 16 in
  let count nd =
    if memoizable nd then begin
      let k = Option.value ~default:0 (Hashtbl.find_opt counts nd) in
      Hashtbl.replace counts nd (k + 1);
      if k = 1 then memos := nd :: !memos
    end
  in
  List.iter (iter count) roots;
  let fn = { memos = !memos; slot_of = []; fresh = 0; self_used = false } in
  let code = gen fn in
  let decls =
    String.concat ""
      (List.rev_map
         (fun (nd, i) ->
           match nd with
           | Form _ -> Printf.sprintf "let m%d = ref 0 in\n    " i
           | Term _ ->
               Printf.sprintf "let m%d = ref 0 and m%d_set = ref false in\n    "
                 i i)
         fn.slot_of)
  in
  (fn, decls ^ code)

let builder (spec : Sym.spec) =
  let ir = spec.Sym.sp_ir in
  let b0 =
    {
      spec_name = ir.Sym.ir_name;
      fields = List.mapi (fun i (f, _) -> (f, i)) ir.Sym.fields;
      ctors = [];
      params = List.mapi (fun i p -> (p.Sym.pname, i)) ir.Sym.params;
      used_fields = Array.make (List.length ir.Sym.fields) false;
      used_params = Array.make (List.length ir.Sym.params) false;
      consts = [];
      uses_offsets = false;
      uses_nbrs = false;
      hoisted = [];
    }
  in
  if ir.Sym.fields = [] then unsupported b0 "an IR" "it declares no field";
  let ctors =
    List.fold_left
      (fun acc (_, (ty : Sym.ty)) ->
        match ty with
        | Sym.TEnum (_, cs) ->
            List.fold_left
              (fun acc (i, c) ->
                match List.assoc_opt c acc with
                | None -> (c, i) :: acc
                | Some j when j = i -> acc
                | Some _ ->
                    unsupported b0 ("Ctor " ^ c) "ambiguous across enum sorts")
              acc
              (List.mapi (fun i c -> (i, c)) cs)
        | Sym.TInt | Sym.TBool -> acc)
      [] ir.Sym.fields
  in
  { b0 with ctors }

(* The source of one spec's builder function, [build_<k>]. *)
let emit_builder k (spec : Sym.spec) =
  let b = builder spec in
  let ir = spec.Sym.sp_ir in
  let rules = ir.Sym.rules in
  let legit = spec.Sym.sp_legitimate in
  let eval_fn, eval_body =
    emit_fn
      (List.map (fun r -> Form r.Sym.guard) rules
      @ List.map (fun l -> Form l) (Option.to_list legit))
      (fun fn ->
        let guards =
          String.concat ""
            (List.mapi
               (fun i r ->
                 Printf.sprintf "if %s then %d\n    else "
                   (form b fn top r.Sym.guard) i)
               rules)
        in
        let lg =
          match legit with
          | None -> "1"
          | Some l -> Printf.sprintf "(if %s then 1 else 0)" (form b fn top l)
        in
        Printf.sprintf "let r =\n    %s-1 in\n    ((r + 1) lsl 1) lor %s" guards
          lg)
  in
  let post_self = ref false in
  let branches =
    List.mapi
      (fun i r ->
        let assigned = List.map fst r.Sym.assigns in
        let fn, body =
          emit_fn
            (List.map (fun (_, t) -> Term t) r.Sym.assigns)
            (fun fn ->
              let keep =
                List.filter_map
                  (fun (f, j) ->
                    if List.mem f assigned then None
                    else begin
                      fn.self_used <- true;
                      b.used_fields.(j) <- true;
                      Some (Printf.sprintf "dst.(off + %d) <- a%d.(u); " j j)
                    end)
                  b.fields
              in
              let writes =
                List.map
                  (fun (f, t) ->
                    let j = lookup b "assignment to" f b.fields in
                    Printf.sprintf "dst.(off + %d) <- %s; " j (term b fn top t))
                  r.Sym.assigns
              in
              String.concat "" (keep @ writes) ^ "()")
        in
        if fn.self_used then post_self := true;
        Printf.sprintf "    | %d -> %s\n" i body)
      rules
  in
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "(* %s *)\nlet build_%d (g : Evaluator.input) : Evaluator.t =\n"
    ir.Sym.ir_name k;
  List.iter
    (fun (f, j) ->
      if b.used_fields.(j) then
        pr "  let a%d = g.Evaluator.state.(%d) (* %s *) in\n" j j f)
    b.fields;
  if b.uses_offsets then pr "  let offsets = g.Evaluator.offsets in\n";
  if b.uses_nbrs then pr "  let nbrs = g.Evaluator.nbrs in\n";
  List.iter
    (fun (p, j) ->
      if b.used_params.(j) then pr "  let p%d = Evaluator.param g %S in\n" j p)
    b.params;
  List.iter
    (fun (t, v) -> pr "  let %s = %s in\n" v (closed_expr b t))
    (List.rev b.consts);
  pr "  let eval %s =\n    %s\n  in\n"
    (if eval_fn.self_used then "u" else "_u")
    eval_body;
  pr "  let post r %s dst off =\n    match r with\n"
    (if !post_self then "u" else "_u");
  List.iter (pr "%s") branches;
  pr "    | _ -> invalid_arg (Printf.sprintf \"Flat: no rule %%d\" r)\n  in\n";
  pr "  { Evaluator.eval; post }\n\n";
  (b, Buffer.contents buf)

let hoists spec =
  let b, _ = emit_builder 0 spec in
  List.rev b.hoisted

let emit_module specs =
  let names = List.map (fun s -> s.Sym.sp_ir.Sym.ir_name) specs in
  List.iter
    (fun n ->
      if List.length (List.filter (String.equal n) names) > 1 then
        raise (Unsupported (Printf.sprintf "spec %s: listed twice" n)))
    names;
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    "(* Straight-line evaluators of Ssreset_check.Registry.flat_specs,\n\
    \   written by lib/sim/flat/gen at build time. *)\n\n";
  List.iteri
    (fun k spec -> Buffer.add_string buf (snd (emit_builder k spec)))
    specs;
  Buffer.add_string buf "let builders =\n  [\n";
  List.iteri
    (fun k n -> Printf.bprintf buf "    (%S, build_%d);\n" n k)
    names;
  Buffer.add_string buf "  ]\n";
  Buffer.contents buf
