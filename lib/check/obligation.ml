module Json = Ssreset_obs.Json
module SS = Set.Make (String)

type family = Ring | Path | Star | Complete

let families = [ Ring; Path; Star; Complete ]

let family_to_string = function
  | Ring -> "ring"
  | Path -> "path"
  | Star -> "star"
  | Complete -> "complete"

let family_graphs family n =
  let module Gen = Ssreset_graph.Gen in
  match family with
  | Complete -> [ Gen.complete n ]
  | Ring -> if n < 3 then [] else [ Gen.ring n ]
  | Path -> if n < 2 then [] else [ Gen.path n ]
  | Star -> if n < 2 then [] else [ Gen.star n ]

type kind =
  | Closure
  | Cert_decrease of string
  | Range of string * string
  | Requirement of string
  | Rank of string
  | Composition of string

let kind_to_string = function
  | Closure -> "closure"
  | Cert_decrease _ -> "cert-decrease"
  | Range _ -> "range"
  | Requirement _ -> "requirement"
  | Rank _ -> "rank"
  | Composition _ -> "composition"

type t = {
  ob_algo : string;
  ob_family : family;
  ob_kind : kind;
  ob_name : string;
  ob_descr : string;
  ob_script : Smt.script;
}

(* --- compilation context ----------------------------------------------

   Needs are collected while compiling the goal assertions; the prelude
   (sorts, parameter constants, field functions, topology) then declares
   exactly what was mentioned, which is what {!Smt.lint_script}'s
   unused-declaration check demands. *)

type ctx = {
  ir : Sym.ir;
  mutable c_params : SS.t;
  mutable c_fields : SS.t;  (* pre-state functions *)
  mutable c_posts : SS.t;  (* post-state functions *)
  mutable c_edge : bool;
  mutable c_enums : SS.t;
  mutable c_moved : bool;
  mutable c_fresh : int;
  skolems : (Sym.term * bool, string) Hashtbl.t;
      (* (neighborhood-aggregate term, post flag) -> auxiliary function *)
  mutable c_sides : Smt.sexp list;  (* skolem decls + axioms, reversed *)
}

let new_ctx ir =
  { ir;
    c_params = SS.empty;
    c_fields = SS.empty;
    c_posts = SS.empty;
    c_edge = false;
    c_enums = SS.empty;
    c_moved = false;
    c_fresh = 0;
    skolems = Hashtbl.create 8;
    c_sides = [] }

let fresh ctx =
  let v = Printf.sprintf "v%d" ctx.c_fresh in
  ctx.c_fresh <- ctx.c_fresh + 1;
  v

let assert_ body = Smt.List [ Smt.Atom "assert"; body ]
let iatom i = Smt.Atom (string_of_int i)

let int_lit i =
  if i < 0 then Smt.app "-" [ iatom (-i) ] else iatom i

let forall1 v sort body =
  Smt.List
    [ Smt.Atom "forall";
      Smt.List [ Smt.List [ Smt.Atom v; Smt.Atom sort ] ];
      body ]

let exists1 v sort body =
  Smt.List
    [ Smt.Atom "exists";
      Smt.List [ Smt.List [ Smt.Atom v; Smt.Atom sort ] ];
      body ]

let forall2 u v sort body =
  Smt.List
    [ Smt.Atom "forall";
      Smt.List
        [ Smt.List [ Smt.Atom u; Smt.Atom sort ];
          Smt.List [ Smt.Atom v; Smt.Atom sort ] ];
      body ]

(* Mixed-sort binder list, e.g. [forall ((w Node) (k Int))]. *)
let forall_b binds body =
  Smt.List
    [ Smt.Atom "forall";
      Smt.List
        (List.map
           (fun (v, sort) -> Smt.List [ Smt.Atom v; Smt.Atom sort ])
           binds);
      body ]

let field_ty ctx f = List.assoc f ctx.ir.Sym.fields

let sort_of_ty = function
  | Sym.TInt -> "Int"
  | Sym.TBool -> "Bool"
  | Sym.TEnum (s, _) -> s

let mark_field ctx ~post f =
  (match field_ty ctx f with
  | Sym.TEnum (s, _) -> ctx.c_enums <- SS.add s ctx.c_enums
  | _ -> ());
  if post then ctx.c_posts <- SS.add f ctx.c_posts
  else ctx.c_fields <- SS.add f ctx.c_fields

let field_app ctx ~post f node =
  mark_field ctx ~post f;
  Smt.app (if post then f ^ "_post" else f) [ Smt.Atom node ]

(* [st] selects which state the field functions read: post-state reads
   apply to Self and Nbr alike (a global configuration predicate after a
   step). *)
let rec c_term ctx ~node ~cur ~post = function
  | Sym.Num i -> int_lit i
  | Sym.Bool b -> Smt.Atom (if b then "true" else "false")
  | Sym.Param p ->
      ctx.c_params <- SS.add p ctx.c_params;
      Smt.Atom p
  | Sym.Var (Sym.Self, f) -> field_app ctx ~post f node
  | Sym.Var (Sym.Nbr, f) -> (
      match cur with
      | Some v -> field_app ctx ~post f v
      | None -> invalid_arg "Obligation: Nbr outside a quantifier")
  | Sym.Add (a, b) ->
      Smt.app "+" [ c_term ctx ~node ~cur ~post a; c_term ctx ~node ~cur ~post b ]
  | Sym.Sub (a, b) ->
      Smt.app "-" [ c_term ctx ~node ~cur ~post a; c_term ctx ~node ~cur ~post b ]
  | Sym.Neg a -> Smt.app "-" [ c_term ctx ~node ~cur ~post a ]
  | Sym.Ite (c, a, b) ->
      Smt.app "ite"
        [ c_form ctx ~node ~cur ~post c;
          c_term ctx ~node ~cur ~post a;
          c_term ctx ~node ~cur ~post b ]
  | Sym.Ctor c ->
      (* A bare constructor can survive substitution even when every field
         of its enum type cancels out (e.g. reset-lands after substituting
         [m := Und] into [m = Und]), so register the sort here too. *)
      List.iter
        (fun (_, ty) ->
          match ty with
          | Sym.TEnum (s, ctors) when List.mem c ctors ->
              ctx.c_enums <- SS.add s ctx.c_enums
          | _ -> ())
        ctx.ir.Sym.fields;
      Smt.Atom c
  | (Sym.Min_nbr _ | Sym.Mex_nbr _ | Sym.Count_nbr _) as t ->
      Smt.app (skolem ctx ~post t) [ Smt.Atom node ]

and c_form ctx ~node ~cur ~post = function
  | Sym.Const true -> Smt.Atom "true"
  | Sym.Const false -> Smt.Atom "false"
  | Sym.Not f -> Smt.app "not" [ c_form ctx ~node ~cur ~post f ]
  | Sym.And [] -> Smt.Atom "true"
  | Sym.And [ f ] -> c_form ctx ~node ~cur ~post f
  | Sym.And fs -> Smt.app "and" (List.map (c_form ctx ~node ~cur ~post) fs)
  | Sym.Or [] -> Smt.Atom "false"
  | Sym.Or [ f ] -> c_form ctx ~node ~cur ~post f
  | Sym.Or fs -> Smt.app "or" (List.map (c_form ctx ~node ~cur ~post) fs)
  | Sym.Imp (a, b) ->
      Smt.app "=>"
        [ c_form ctx ~node ~cur ~post a; c_form ctx ~node ~cur ~post b ]
  | Sym.Eq (a, b) ->
      Smt.app "="
        [ c_term ctx ~node ~cur ~post a; c_term ctx ~node ~cur ~post b ]
  | Sym.Le (a, b) ->
      Smt.app "<="
        [ c_term ctx ~node ~cur ~post a; c_term ctx ~node ~cur ~post b ]
  | Sym.Lt (a, b) ->
      Smt.app "<"
        [ c_term ctx ~node ~cur ~post a; c_term ctx ~node ~cur ~post b ]
  | Sym.Forall_nbr f ->
      ctx.c_edge <- true;
      let v = fresh ctx in
      forall1 v "Node"
        (Smt.app "=>"
           [ Smt.app "E" [ Smt.Atom node; Smt.Atom v ];
             c_form ctx ~node ~cur:(Some v) ~post f ])
  | Sym.Exists_nbr f ->
      ctx.c_edge <- true;
      let v = fresh ctx in
      exists1 v "Node"
        (Smt.app "and"
           [ Smt.app "E" [ Smt.Atom node; Smt.Atom v ];
             c_form ctx ~node ~cur:(Some v) ~post f ])

(* Neighborhood aggregates (min / mex / count) are not first-order per se;
   each occurrence becomes a fresh Skolem function [Node -> Int] plus
   universally quantified defining axioms.  The axioms are satisfied in
   every finite model by the actual aggregate value, so the conservative
   extension preserves the superset-of-concrete-families soundness
   argument: an unsat verdict still covers every concrete instance.
   (Pathological infinite models without attainable minima are excluded —
   harmless for the same reason.)  Occurrences are deduplicated per
   (term, state) so one aggregate used by several goal parts shares its
   witness. *)
and skolem ctx ~post t =
  match Hashtbl.find_opt ctx.skolems (t, post) with
  | Some name -> name
  | None ->
      ctx.c_edge <- true;
      let tag =
        match t with
        | Sym.Min_nbr _ -> "min"
        | Sym.Mex_nbr _ -> "mex"
        | Sym.Count_nbr _ -> "cnt"
        | _ -> assert false
      in
      let name =
        Printf.sprintf "%s_aux%d%s" tag
          (Hashtbl.length ctx.skolems)
          (if post then "_post" else "")
      in
      Hashtbl.add ctx.skolems (t, post) name;
      let side c = ctx.c_sides <- c :: ctx.c_sides in
      side
        (Smt.List
           [ Smt.Atom "declare-fun";
             Smt.Atom name;
             Smt.List [ Smt.Atom "Node" ];
             Smt.Atom "Int" ]);
      let app x = Smt.app name [ Smt.Atom x ] in
      let e u v = Smt.app "E" [ Smt.Atom u; Smt.Atom v ] in
      let w = fresh ctx in
      (match t with
      | Sym.Min_nbr (filt, body, dflt) ->
          let qual v =
            Smt.app "and"
              [ e w v; c_form ctx ~node:w ~cur:(Some v) ~post filt ]
          in
          let bod v = c_term ctx ~node:w ~cur:(Some v) ~post body in
          let v1 = fresh ctx and v2 = fresh ctx and v3 = fresh ctx in
          (* If a qualifying neighbor exists, the value is attained and is
             a lower bound over qualifiers; otherwise it is the default. *)
          side
            (assert_
               (forall1 w "Node"
                  (Smt.app "ite"
                     [ exists1 v1 "Node" (qual v1);
                       Smt.app "and"
                         [ exists1 v2 "Node"
                             (Smt.app "and"
                                [ qual v2; Smt.app "=" [ app w; bod v2 ] ]);
                           forall1 v3 "Node"
                             (Smt.app "=>"
                                [ qual v3; Smt.app "<=" [ app w; bod v3 ] ])
                         ];
                       Smt.app "="
                         [ app w; c_term ctx ~node:w ~cur:None ~post dflt ]
                     ])))
      | Sym.Mex_nbr (filt, body) ->
          let qual v =
            Smt.app "and"
              [ e w v; c_form ctx ~node:w ~cur:(Some v) ~post filt ]
          in
          let bod v = c_term ctx ~node:w ~cur:(Some v) ~post body in
          side
            (assert_
               (forall1 w "Node" (Smt.app "<=" [ iatom 0; app w ])));
          let v1 = fresh ctx in
          side
            (assert_
               (forall_b
                  [ (w, "Node"); (v1, "Node") ]
                  (Smt.app "=>"
                     [ qual v1; Smt.app "distinct" [ bod v1; app w ] ])));
          let k = fresh ctx and v2 = fresh ctx in
          side
            (assert_
               (forall_b
                  [ (w, "Node"); (k, "Int") ]
                  (Smt.app "=>"
                     [ Smt.app "and"
                         [ Smt.app "<=" [ iatom 0; Smt.Atom k ];
                           Smt.app "<" [ Smt.Atom k; app w ] ];
                       exists1 v2 "Node"
                         (Smt.app "and"
                            [ qual v2; Smt.app "=" [ bod v2; Smt.Atom k ] ])
                     ])))
      | Sym.Count_nbr filt ->
          let qual v =
            Smt.app "and"
              [ e w v; c_form ctx ~node:w ~cur:(Some v) ~post filt ]
          in
          side
            (assert_
               (forall1 w "Node" (Smt.app "<=" [ iatom 0; app w ])));
          let v1 = fresh ctx in
          side
            (assert_
               (forall1 w "Node"
                  (Smt.app "="
                     [ exists1 v1 "Node" (qual v1);
                       Smt.app "<=" [ iatom 1; app w ] ])))
      | _ -> assert false);
      name

let guard_at ctx node (r : Sym.rule) =
  c_form ctx ~node ~cur:None ~post:false r.Sym.guard

(* --- prelude assembly -------------------------------------------------- *)

let topology_axioms family =
  let e u v = Smt.app "E" [ Smt.Atom u; Smt.Atom v ] in
  match family with
  | Complete ->
      ( [],
        [ assert_
            (forall2 "t0" "t1" "Node"
               (Smt.app "="
                  [ e "t0" "t1";
                    Smt.app "distinct" [ Smt.Atom "t0"; Smt.Atom "t1" ] ])) ] )
  | Ring ->
      let nxt x = Smt.app "nxt" [ x ] in
      ( [ Smt.List
            [ Smt.Atom "declare-fun";
              Smt.Atom "nxt";
              Smt.List [ Smt.Atom "Node" ];
              Smt.Atom "Node" ] ],
        [ assert_
            (forall2 "t0" "t1" "Node"
               (Smt.app "="
                  [ e "t0" "t1";
                    Smt.app "or"
                      [ Smt.app "=" [ Smt.Atom "t1"; nxt (Smt.Atom "t0") ];
                        Smt.app "=" [ Smt.Atom "t0"; nxt (Smt.Atom "t1") ] ] ]));
          assert_
            (forall2 "t0" "t1" "Node"
               (Smt.app "=>"
                  [ Smt.app "=" [ nxt (Smt.Atom "t0"); nxt (Smt.Atom "t1") ];
                    Smt.app "=" [ Smt.Atom "t0"; Smt.Atom "t1" ] ]));
          assert_
            (forall1 "t0" "Node"
               (Smt.app "distinct" [ nxt (Smt.Atom "t0"); Smt.Atom "t0" ]));
          assert_
            (forall1 "t0" "Node"
               (Smt.app "distinct"
                  [ nxt (nxt (Smt.Atom "t0")); Smt.Atom "t0" ])) ] )
  | Path ->
      let idx x = Smt.app "idx" [ x ] in
      ( [ Smt.List
            [ Smt.Atom "declare-fun";
              Smt.Atom "idx";
              Smt.List [ Smt.Atom "Node" ];
              Smt.Atom "Int" ] ],
        [ assert_
            (forall2 "t0" "t1" "Node"
               (Smt.app "=>"
                  [ Smt.app "=" [ idx (Smt.Atom "t0"); idx (Smt.Atom "t1") ];
                    Smt.app "=" [ Smt.Atom "t0"; Smt.Atom "t1" ] ]));
          assert_
            (forall2 "t0" "t1" "Node"
               (Smt.app "="
                  [ e "t0" "t1";
                    Smt.app "or"
                      [ Smt.app "="
                          [ Smt.app "-"
                              [ idx (Smt.Atom "t0"); idx (Smt.Atom "t1") ];
                            Smt.Atom "1" ];
                        Smt.app "="
                          [ Smt.app "-"
                              [ idx (Smt.Atom "t1"); idx (Smt.Atom "t0") ];
                            Smt.Atom "1" ] ] ])) ] )
  | Star ->
      ( [ Smt.List
            [ Smt.Atom "declare-const"; Smt.Atom "hub"; Smt.Atom "Node" ] ],
        [ assert_
            (forall2 "t0" "t1" "Node"
               (Smt.app "="
                  [ e "t0" "t1";
                    Smt.app "or"
                      [ Smt.app "and"
                          [ Smt.app "=" [ Smt.Atom "t0"; Smt.Atom "hub" ];
                            Smt.app "distinct"
                              [ Smt.Atom "t1"; Smt.Atom "hub" ] ];
                        Smt.app "and"
                          [ Smt.app "=" [ Smt.Atom "t1"; Smt.Atom "hub" ];
                            Smt.app "distinct"
                              [ Smt.Atom "t0"; Smt.Atom "hub" ] ] ] ])) ] )

(* Pre-state range axioms for every used ranged field; compiled after the
   goal so the parameter usage they introduce is still reflected in the
   prelude (compile order: goal, then ranges, then prelude assembly). *)
let range_axioms ctx =
  List.filter_map
    (fun (f, lo, hi) ->
      if not (SS.mem f ctx.c_fields) then None
      else
        let u = fresh ctx in
        let fu = field_app ctx ~post:false f u in
        Some
          (assert_
             (forall1 u "Node"
                (Smt.app "and"
                   [ Smt.app "<="
                       [ c_term ctx ~node:u ~cur:None ~post:false lo; fu ];
                     Smt.app "<"
                       [ fu; c_term ctx ~node:u ~cur:None ~post:false hi ] ]))))
    ctx.ir.Sym.ranges

let prelude ctx family =
  let cmds = ref [] in
  let add c = cmds := c :: !cmds in
  add (Smt.List [ Smt.Atom "set-logic"; Smt.Atom "ALL" ]);
  add (Smt.List [ Smt.Atom "declare-sort"; Smt.Atom "Node"; Smt.Atom "0" ]);
  List.iter
    (fun (p : Sym.param) ->
      if SS.mem p.Sym.pname ctx.c_params then begin
        add
          (Smt.List
             [ Smt.Atom "declare-const"; Smt.Atom p.Sym.pname; Smt.Atom "Int" ]);
        match p.Sym.lower with
        | None -> ()
        | Some lo ->
            add (assert_ (Smt.app ">=" [ Smt.Atom p.Sym.pname; int_lit lo ]))
      end)
    ctx.ir.Sym.params;
  (* Enum sorts: constructors plus distinctness; per-field exhaustiveness
     is emitted with the field below. *)
  List.iter
    (fun (_, ty) ->
      match ty with
      | Sym.TEnum (s, ctors) when SS.mem s ctx.c_enums ->
          ctx.c_enums <- SS.remove s ctx.c_enums;
          add (Smt.List [ Smt.Atom "declare-sort"; Smt.Atom s; Smt.Atom "0" ]);
          List.iter
            (fun c ->
              add
                (Smt.List
                   [ Smt.Atom "declare-const"; Smt.Atom c; Smt.Atom s ]))
            ctors;
          if List.length ctors > 1 then
            add
              (assert_ (Smt.app "distinct" (List.map Smt.atom ctors)))
      | _ -> ())
    ctx.ir.Sym.fields;
  List.iter
    (fun (f, ty) ->
      let declare name =
        add
          (Smt.List
             [ Smt.Atom "declare-fun";
               Smt.Atom name;
               Smt.List [ Smt.Atom "Node" ];
               Smt.Atom (sort_of_ty ty) ])
      in
      if SS.mem f ctx.c_fields then begin
        declare f;
        match ty with
        | Sym.TEnum (_, ctors) ->
            let u = fresh ctx in
            add
              (assert_
                 (forall1 u "Node"
                    (Smt.app "or"
                       (List.map
                          (fun c ->
                            Smt.app "="
                              [ Smt.app f [ Smt.Atom u ]; Smt.Atom c ])
                          ctors))))
        | _ -> ()
      end;
      if SS.mem f ctx.c_posts then declare (f ^ "_post"))
    ctx.ir.Sym.fields;
  if ctx.c_moved then
    add
      (Smt.List
         [ Smt.Atom "declare-fun";
           Smt.Atom "moved";
           Smt.List [ Smt.Atom "Node" ];
           Smt.Atom "Bool" ]);
  if ctx.c_edge then begin
    add
      (Smt.List
         [ Smt.Atom "declare-fun";
           Smt.Atom "E";
           Smt.List [ Smt.Atom "Node"; Smt.Atom "Node" ];
           Smt.Atom "Bool" ]);
    let decls, axioms = topology_axioms family in
    List.iter add decls;
    List.iter add axioms
  end;
  List.rev !cmds

let finish ~algo ~family ~kind ~name ~descr ctx core =
  let ranges = range_axioms ctx in
  let sides = List.rev ctx.c_sides in
  let header =
    [ Printf.sprintf "obligation: %s" name;
      Printf.sprintf "algorithm: %s" algo;
      Printf.sprintf "family: %s (axiomatized superset, any n)"
        (family_to_string family);
      descr;
      "expected: unsat" ]
  in
  { ob_algo = algo;
    ob_family = family;
    ob_kind = kind;
    ob_name = name;
    ob_descr = descr;
    ob_script =
      { Smt.header;
        body =
          prelude ctx family @ sides @ ranges @ core
          @ [ Smt.List [ Smt.Atom "check-sat" ] ] } }

(* --- obligation builders ----------------------------------------------- *)

(* Post-state definitions under first-enabled-rule semantics, for every
   field whose post function the (already compiled) goal mentioned.  The
   ite chain mirrors the evaluation order of [Algorithm.enabled_rule]. *)
let post_definitions ctx =
  let moved u = Smt.app "moved" [ Smt.Atom u ] in
  List.filter_map
    (fun (f, _) ->
      if not (SS.mem f ctx.c_posts) then None
      else
        let keep = field_app ctx ~post:false f "u" in
        let chain =
          List.fold_right
            (fun (r : Sym.rule) acc ->
              let value =
                match List.assoc_opt f r.Sym.assigns with
                | Some t -> c_term ctx ~node:"u" ~cur:None ~post:false t
                | None -> keep
              in
              Smt.app "ite" [ guard_at ctx "u" r; value; acc ])
            ctx.ir.Sym.rules keep
        in
        Some
          (assert_
             (forall1 "u" "Node"
                (Smt.app "="
                   [ field_app ctx ~post:true f "u";
                     Smt.app "ite" [ moved "u"; chain; keep ] ]))))
    ctx.ir.Sym.fields

let closure ~algo (spec : Sym.spec) family legit =
  let ir = spec.Sym.sp_ir in
  let ctx = new_ctx ir in
  let moved u = Smt.app "moved" [ Smt.Atom u ] in
  ctx.c_moved <- true;
  (* Compile the post-state goal first so [c_posts] records exactly the
     fields whose post functions need defining. *)
  let legit_post = c_form ctx ~node:"u" ~cur:None ~post:true legit in
  let legit_pre = c_form ctx ~node:"u" ~cur:None ~post:false legit in
  let guards = List.map (guard_at ctx "u") ir.Sym.rules in
  let enabled =
    match guards with [ g ] -> g | gs -> Smt.app "or" gs
  in
  let post_defs = post_definitions ctx in
  finish ~algo ~family ~kind:Closure ~name:"closure"
    ~descr:
      "legitimate configuration + one covered step (moved subset of \
       enabled, nonempty) must stay legitimate"
    ctx
    ([ assert_ (forall1 "u" "Node" legit_pre);
       assert_ (forall1 "u" "Node" (Smt.app "=>" [ moved "u"; enabled ]));
       assert_ (exists1 "u" "Node" (moved "u")) ]
    @ post_defs
    @ [ assert_ (Smt.app "not" [ forall1 "u" "Node" legit_post ]) ])

let cert_decrease ~algo (spec : Sym.spec) family (cert : Sym.cert_spec)
    (r : Sym.rule) =
  let ctx = new_ctx spec.Sym.sp_ir in
  let guard = guard_at ctx "u" r in
  let local = c_term ctx ~node:"u" ~cur:None ~post:false cert.Sym.cs_local in
  let local' =
    c_term ctx ~node:"u" ~cur:None ~post:false
      (Sym.subst_self_term r.Sym.assigns cert.Sym.cs_local)
  in
  finish ~algo ~family
    ~kind:(Cert_decrease r.Sym.rule)
    ~name:(Printf.sprintf "cert-decrease.%s" r.Sym.rule)
    ~descr:
      (Printf.sprintf
         "certificate %s: a %s mover's local potential strictly decreases \
          and stays nonnegative (pointwise decrease of the global sum)"
         cert.Sym.cs_name r.Sym.rule)
    ctx
    [ assert_
        (exists1 "u" "Node"
           (Smt.app "and"
              [ guard;
                Smt.app "not"
                  [ Smt.app "and"
                      [ Smt.app "<=" [ Smt.Atom "0"; local' ];
                        Smt.app "<" [ local'; local ] ] ] ])) ]

let range_preserved ~algo (spec : Sym.spec) family (r : Sym.rule) (f, lo, hi)
    assign =
  let ctx = new_ctx spec.Sym.sp_ir in
  let guard = guard_at ctx "u" r in
  let t' = c_term ctx ~node:"u" ~cur:None ~post:false assign in
  let lo' = c_term ctx ~node:"u" ~cur:None ~post:false lo in
  let hi' = c_term ctx ~node:"u" ~cur:None ~post:false hi in
  finish ~algo ~family
    ~kind:(Range (r.Sym.rule, f))
    ~name:(Printf.sprintf "range.%s.%s" r.Sym.rule f)
    ~descr:
      (Printf.sprintf "rule %s keeps field %s inside its declared range"
         r.Sym.rule f)
    ctx
    [ assert_
        (exists1 "u" "Node"
           (Smt.app "and"
              [ guard;
                Smt.app "not"
                  [ Smt.app "and"
                      [ Smt.app "<=" [ lo'; t' ]; Smt.app "<" [ t'; hi' ] ] ] ])) ]

(* Requirement obligations never need post-state functions: a single
   mover's post-state predicate is the pre-state predicate with the
   assignment terms substituted for its own fields ({!Sym.subst_self}). *)

let requirement ~algo (spec : Sym.spec) family ~id ~descr body =
  let ctx = new_ctx spec.Sym.sp_ir in
  let goal = body ctx in
  finish ~algo ~family ~kind:(Requirement id)
    ~name:(Printf.sprintf "req.%s" id)
    ~descr ctx
    [ assert_ (exists1 "u" "Node" (Smt.app "not" [ goal ])) ]

(* Re-site a Self-only quantifier-free form at the bound neighbor. *)
let rec nbrize_term = function
  | (Sym.Num _ | Sym.Bool _ | Sym.Param _ | Sym.Ctor _) as t -> t
  | Sym.Var (Sym.Self, f) -> Sym.Var (Sym.Nbr, f)
  | Sym.Var (Sym.Nbr, _) ->
      invalid_arg "Obligation: p_reset must read Self fields only"
  | Sym.Add (a, b) -> Sym.Add (nbrize_term a, nbrize_term b)
  | Sym.Sub (a, b) -> Sym.Sub (nbrize_term a, nbrize_term b)
  | Sym.Neg a -> Sym.Neg (nbrize_term a)
  | Sym.Ite (c, a, b) -> Sym.Ite (nbrize_form c, nbrize_term a, nbrize_term b)
  | Sym.Min_nbr _ | Sym.Mex_nbr _ | Sym.Count_nbr _ ->
      invalid_arg "Obligation: p_reset must be quantifier-free"

and nbrize_form = function
  | Sym.Const _ as f -> f
  | Sym.Not f -> Sym.Not (nbrize_form f)
  | Sym.And fs -> Sym.And (List.map nbrize_form fs)
  | Sym.Or fs -> Sym.Or (List.map nbrize_form fs)
  | Sym.Imp (a, b) -> Sym.Imp (nbrize_form a, nbrize_form b)
  | Sym.Eq (a, b) -> Sym.Eq (nbrize_term a, nbrize_term b)
  | Sym.Le (a, b) -> Sym.Le (nbrize_term a, nbrize_term b)
  | Sym.Lt (a, b) -> Sym.Lt (nbrize_term a, nbrize_term b)
  | Sym.Forall_nbr _ | Sym.Exists_nbr _ ->
      invalid_arg "Obligation: p_reset must be quantifier-free"

let requirements ~algo (spec : Sym.spec) family =
  let ir = spec.Sym.sp_ir in
  let form f ctx = c_form ctx ~node:"u" ~cur:None ~post:false f in
  let lands =
    match (spec.Sym.sp_reset, spec.Sym.sp_p_reset) with
    | Some reset, Some p_reset ->
        [ requirement ~algo spec family ~id:"reset-lands"
            ~descr:"executing the reset macro establishes p_reset"
            (form (Sym.subst_self reset p_reset)) ]
    | _ -> []
  in
  let idempotent =
    match spec.Sym.sp_reset with
    | Some reset when reset <> [] ->
        [ requirement ~algo spec family ~id:"reset-idempotent"
            ~descr:"resetting a reset state changes nothing"
            (form
               (Sym.And
                  (List.map
                     (fun (_, t) -> Sym.Eq (Sym.subst_self_term reset t, t))
                     reset))) ]
    | _ -> []
  in
  let guard_icorrect =
    match spec.Sym.sp_p_icorrect with
    | Some p_ic ->
        List.map
          (fun (r : Sym.rule) ->
            requirement ~algo spec family
              ~id:(Printf.sprintf "guard-icorrect.%s" r.Sym.rule)
              ~descr:
                (Printf.sprintf
                   "an enabled process is locally correct (guard of %s \
                    implies p_icorrect)"
                   r.Sym.rule)
              (form (Sym.Imp (r.Sym.guard, p_ic))))
          ir.Sym.rules
    | None -> []
  in
  let reset_icorrect =
    match (spec.Sym.sp_p_reset, spec.Sym.sp_p_icorrect) with
    | Some p_reset, Some p_ic ->
        [ requirement ~algo spec family ~id:"reset-icorrect"
            ~descr:
              "a reset process whose neighbors are all reset is locally \
               correct"
            (form
               (Sym.Imp
                  ( Sym.And
                      [ p_reset; Sym.Forall_nbr (nbrize_form p_reset) ],
                    p_ic ))) ]
    | _ -> []
  in
  let icorrect_step =
    match spec.Sym.sp_p_icorrect with
    | Some p_ic ->
        List.map
          (fun (r : Sym.rule) ->
            requirement ~algo spec family
              ~id:(Printf.sprintf "icorrect-step.%s" r.Sym.rule)
              ~descr:
                (Printf.sprintf
                   "a process's own %s move preserves its local \
                    correctness (neighbors unchanged)"
                   r.Sym.rule)
              (form
                 (Sym.Imp
                    ( Sym.And [ p_ic; r.Sym.guard ],
                      Sym.subst_self r.Sym.assigns p_ic ))))
          ir.Sym.rules
    | None -> []
  in
  lands @ idempotent @ guard_icorrect @ reset_icorrect @ icorrect_step

(* --- global-ranking obligations ----------------------------------------

   Implicit-rankings encoding of a global convergence measure: each
   process carries a lexicographic tuple of nonnegative Self-only
   components ({!Sym.rank_spec}), and the global rank is the multiset of
   all tuples.  A step whose movers all fire covered rules strictly
   decreases the multiset under the Dershowitz–Manna order: every tuple
   is pointwise-dominated (movers strictly, non-movers unchanged), which
   is first-order expressible over the symbolic node sort — no cardinality
   or summation needed, so the same obligation covers every n. *)

let lex_rel ~strict post pre =
  let rec go post pre =
    match (post, pre) with
    | [], [] -> Smt.Atom (if strict then "false" else "true")
    | [ q ], [ p ] -> Smt.app (if strict then "<" else "<=") [ q; p ]
    | q :: qs, p :: ps ->
        Smt.app "or"
          [ Smt.app "<" [ q; p ];
            Smt.app "and" [ Smt.app "=" [ q; p ]; go qs ps ] ]
    | _ -> invalid_arg "Obligation: rank tuple arity mismatch"
  in
  go post pre

let rec fields_of_term acc = function
  | Sym.Num _ | Sym.Bool _ | Sym.Param _ | Sym.Ctor _ -> acc
  | Sym.Var (_, f) -> SS.add f acc
  | Sym.Add (a, b) | Sym.Sub (a, b) ->
      fields_of_term (fields_of_term acc a) b
  | Sym.Neg a -> fields_of_term acc a
  | Sym.Ite (c, a, b) ->
      fields_of_form (fields_of_term (fields_of_term acc a) b) c
  | Sym.Min_nbr (f, b, d) ->
      fields_of_form (fields_of_term (fields_of_term acc b) d) f
  | Sym.Mex_nbr (f, b) -> fields_of_form (fields_of_term acc b) f
  | Sym.Count_nbr f -> fields_of_form acc f

and fields_of_form acc = function
  | Sym.Const _ -> acc
  | Sym.Not f | Sym.Forall_nbr f | Sym.Exists_nbr f -> fields_of_form acc f
  | Sym.And fs | Sym.Or fs -> List.fold_left fields_of_form acc fs
  | Sym.Imp (a, b) -> fields_of_form (fields_of_form acc a) b
  | Sym.Eq (a, b) | Sym.Le (a, b) | Sym.Lt (a, b) ->
      fields_of_term (fields_of_term acc a) b

let rank_bounded ~algo ~prefix ~mk_kind (spec : Sym.spec) family
    (rk : Sym.rank_spec) =
  let ctx = new_ctx spec.Sym.sp_ir in
  let tuple =
    List.map
      (c_term ctx ~node:"u" ~cur:None ~post:false)
      rk.Sym.rk_components
  in
  let nonneg =
    match List.map (fun t -> Smt.app "<=" [ iatom 0; t ]) tuple with
    | [ c ] -> c
    | cs -> Smt.app "and" cs
  in
  finish ~algo ~family
    ~kind:(mk_kind "rank-bounded")
    ~name:(prefix ^ "rank-bounded")
    ~descr:
      (Printf.sprintf
         "rank %s: every component of every process's tuple is bounded \
          below by 0 (well-foundedness of the global measure)"
         rk.Sym.rk_name)
    ctx
    [ assert_ (exists1 "u" "Node" (Smt.app "not" [ nonneg ])) ]

let rank_move ~algo ~prefix ~mk_kind ~strict (spec : Sym.spec) family
    (rk : Sym.rank_spec) (r : Sym.rule) =
  let ctx = new_ctx spec.Sym.sp_ir in
  let guard = guard_at ctx "u" r in
  let pre =
    List.map
      (c_term ctx ~node:"u" ~cur:None ~post:false)
      rk.Sym.rk_components
  in
  let post =
    List.map
      (fun c ->
        c_term ctx ~node:"u" ~cur:None ~post:false
          (Sym.subst_self_term r.Sym.assigns c))
      rk.Sym.rk_components
  in
  let nm = if strict then "rank-decrease" else "rank-no-increase" in
  finish ~algo ~family
    ~kind:(mk_kind (Printf.sprintf "%s.%s" nm r.Sym.rule))
    ~name:(Printf.sprintf "%s%s.%s" prefix nm r.Sym.rule)
    ~descr:
      (Printf.sprintf
         "rank %s: a %s mover's tuple lexicographically %s (neighbors \
          unchanged)"
         rk.Sym.rk_name r.Sym.rule
         (if strict then "strictly decreases" else "does not increase"))
    ctx
    [ assert_
        (exists1 "u" "Node"
           (Smt.app "and"
              [ guard; Smt.app "not" [ lex_rel ~strict post pre ] ])) ]

(* An uncovered rule that does not write any field a component reads must
   leave the tuple exactly unchanged — the interface piece that lets a
   layered (PADEC-style) argument treat the other layer's moves as silent
   with respect to this rank. *)
let rank_frame ~algo ~prefix ~mk_kind (spec : Sym.spec) family
    (rk : Sym.rank_spec) (r : Sym.rule) =
  let ctx = new_ctx spec.Sym.sp_ir in
  let guard = guard_at ctx "u" r in
  let eqs =
    List.map
      (fun c ->
        Smt.app "="
          [ c_term ctx ~node:"u" ~cur:None ~post:false
              (Sym.subst_self_term r.Sym.assigns c);
            c_term ctx ~node:"u" ~cur:None ~post:false c ])
      rk.Sym.rk_components
  in
  let same = match eqs with [ e ] -> e | es -> Smt.app "and" es in
  finish ~algo ~family
    ~kind:(mk_kind (Printf.sprintf "rank-frame.%s" r.Sym.rule))
    ~name:(Printf.sprintf "%srank-frame.%s" prefix r.Sym.rule)
    ~descr:
      (Printf.sprintf
         "rank %s: a %s move leaves the mover's rank tuple unchanged \
          (the other layer is silent for this measure)"
         rk.Sym.rk_name r.Sym.rule)
    ctx
    [ assert_
        (exists1 "u" "Node"
           (Smt.app "and" [ guard; Smt.app "not" [ same ] ])) ]

(* The global step obligation: any nonempty step whose movers' first
   enabled rule is covered pointwise-dominates the configuration's rank
   tuples and strictly decreases at least one — multiset decrease of the
   global rank, for any n. *)
let rank_step ~algo ~prefix ~mk_kind (spec : Sym.spec) family
    (rk : Sym.rank_spec) =
  let ir = spec.Sym.sp_ir in
  let ctx = new_ctx ir in
  let moved u = Smt.app "moved" [ Smt.Atom u ] in
  ctx.c_moved <- true;
  (* Goal first, so [c_posts] records the fields the tuple reads. *)
  let tuple_post =
    List.map
      (c_term ctx ~node:"u" ~cur:None ~post:true)
      rk.Sym.rk_components
  in
  let tuple_pre =
    List.map
      (c_term ctx ~node:"u" ~cur:None ~post:false)
      rk.Sym.rk_components
  in
  let fires =
    let rec chains negs = function
      | [] -> []
      | (r : Sym.rule) :: rest ->
          let g = guard_at ctx "u" r in
          let fire =
            match List.rev negs with
            | [] -> g
            | prior -> Smt.app "and" (prior @ [ g ])
          in
          (r.Sym.rule, fire) :: chains (Smt.app "not" [ g ] :: negs) rest
    in
    chains [] ir.Sym.rules
  in
  let covered_fire =
    match
      List.filter_map
        (fun (n, f) -> if List.mem n rk.Sym.rk_rules then Some f else None)
        fires
    with
    | [] -> Smt.Atom "false"
    | [ f ] -> f
    | fs -> Smt.app "or" fs
  in
  let post_defs = post_definitions ctx in
  finish ~algo ~family
    ~kind:(mk_kind "rank-step")
    ~name:(prefix ^ "rank-step")
    ~descr:
      (Printf.sprintf
         "rank %s: a step whose movers all fire covered rules \
          pointwise-dominates every tuple and strictly decreases a \
          mover's (global multiset decrease)"
         rk.Sym.rk_name)
    ctx
    ([ assert_
         (forall1 "u" "Node" (Smt.app "=>" [ moved "u"; covered_fire ]));
       assert_ (exists1 "u" "Node" (moved "u")) ]
    @ post_defs
    @ [ assert_
          (Smt.app "not"
             [ Smt.app "and"
                 [ forall1 "u" "Node"
                     (lex_rel ~strict:false tuple_post tuple_pre);
                   exists1 "u" "Node"
                     (lex_rel ~strict:true tuple_post tuple_pre) ] ]) ])

let rank_obligations ~algo ~prefix ~mk_kind (spec : Sym.spec) family =
  match spec.Sym.sp_rank with
  | None -> []
  | Some rk ->
      let ir = spec.Sym.sp_ir in
      let covered =
        List.filter
          (fun (r : Sym.rule) -> List.mem r.Sym.rule rk.Sym.rk_rules)
          ir.Sym.rules
      in
      let comp_fields =
        List.fold_left fields_of_term SS.empty rk.Sym.rk_components
      in
      let frames =
        List.filter
          (fun (r : Sym.rule) ->
            (not (List.mem r.Sym.rule rk.Sym.rk_rules))
            && List.for_all
                 (fun (f, _) -> not (SS.mem f comp_fields))
                 r.Sym.assigns)
          ir.Sym.rules
      in
      (rank_bounded ~algo ~prefix ~mk_kind spec family rk
      :: List.map
           (rank_move ~algo ~prefix ~mk_kind ~strict:false spec family rk)
           covered)
      @ List.map
          (rank_move ~algo ~prefix ~mk_kind ~strict:true spec family rk)
          covered
      @ [ rank_step ~algo ~prefix ~mk_kind spec family rk ]
      @ List.map (rank_frame ~algo ~prefix ~mk_kind spec family rk) frames

let compile_composition ~algo (spec : Sym.spec) family =
  rank_obligations ~algo ~prefix:"comp." ~mk_kind:(fun s -> Composition s)
    spec family

let compile_composition_all ~algo spec =
  List.concat_map (compile_composition ~algo spec) families

let compile ~algo (spec : Sym.spec) family =
  let ir = spec.Sym.sp_ir in
  let closure_obs =
    match spec.Sym.sp_legitimate with
    | Some legit -> [ closure ~algo spec family legit ]
    | None -> []
  in
  let cert_obs =
    match spec.Sym.sp_cert with
    | Some cert ->
        List.filter_map
          (fun (r : Sym.rule) ->
            if List.mem r.Sym.rule cert.Sym.cs_rules then
              Some (cert_decrease ~algo spec family cert r)
            else None)
          ir.Sym.rules
    | None -> []
  in
  let range_obs =
    List.concat_map
      (fun (r : Sym.rule) ->
        List.filter_map
          (fun ((f, _, _) as range) ->
            Option.map
              (range_preserved ~algo spec family r range)
              (List.assoc_opt f r.Sym.assigns))
          ir.Sym.ranges)
      ir.Sym.rules
  in
  closure_obs @ cert_obs @ range_obs
  @ requirements ~algo spec family
  @ rank_obligations ~algo ~prefix:"" ~mk_kind:(fun s -> Rank s) spec family

let compile_all ~algo spec =
  List.concat_map (compile ~algo spec) families

let filename ob =
  Printf.sprintf "%s.%s.%s.smt2" ob.ob_algo
    (family_to_string ob.ob_family)
    ob.ob_name

let lint ob =
  match Smt.parse_string (Smt.to_string ob.ob_script) with
  | Error msg -> [ "re-parse: " ^ msg ]
  | Ok cmds -> Smt.lint_script cmds

let to_json obs =
  Json.Obj
    [ ("schema", Json.String "ssreset-smt-v2");
      ("schema_version", Json.Int 2);
      ("count", Json.Int (List.length obs));
      ( "obligations",
        Json.List
          (List.map
             (fun ob ->
               Json.Obj
                 [ ("file", Json.String (filename ob));
                   ("algo", Json.String ob.ob_algo);
                   ("family", Json.String (family_to_string ob.ob_family));
                   ("kind", Json.String (kind_to_string ob.ob_kind));
                   ("name", Json.String ob.ob_name);
                   ("expect", Json.String "unsat");
                   ("descr", Json.String ob.ob_descr) ])
             obs) ) ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write ~dir obs =
  mkdir_p dir;
  List.iter
    (fun ob -> Smt.write_file (Filename.concat dir (filename ob)) ob.ob_script)
    obs;
  let manifest = Filename.concat dir "manifest.json" in
  Out_channel.with_open_text manifest (fun oc ->
      Out_channel.output_string oc (Json.to_string_hum (to_json obs));
      Out_channel.output_char oc '\n');
  manifest
