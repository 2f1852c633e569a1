module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Algorithm = Ssreset_sim.Algorithm
module Sdr = Ssreset_core.Sdr
module Min_unison = Ssreset_unison.Min_unison
module Tail_unison = Ssreset_unison.Tail_unison
module Unison = Ssreset_unison.Unison
module Coloring = Ssreset_coloring.Coloring
module Mis = Ssreset_mis.Mis
module Matching = Ssreset_matching.Matching
module Fga = Ssreset_alliance.Fga
module Spec = Ssreset_alliance.Spec
module Checker = Ssreset_alliance.Checker

type entry = {
  name : string;
  description : string;
  expect_silent : bool;
  round_bound : (int -> int) option;
  min_n : int;
  max_n_quick : int;
  max_n_full : int;
  instance : Graph.t -> Finite.t;
  footprint : (Graph.t -> Footprint.target) option;
  sym : (Graph.t -> Sym.instance) option;
  smt_spec : Sym.spec option;
  comp_spec : Sym.spec option;
}

(* --- instances ------------------------------------------------------- *)

let never_terminal _ _ = false

(* The model checker's rank is the entry's own {!Sym.rank_spec}, bound to
   the instance's state encoder and parameter values — the measure the
   differential and the SMT export check, not a second copy of it. *)
let ranking (spec : Sym.spec) ~params ~encode =
  Option.map (fun rank -> { Finite.rank; params; encode }) spec.Sym.sp_rank

(* --- symbolic rule IRs -------------------------------------------------

   First-order executable specs of the unison rule cores, attached
   alongside the OCaml rules.  {!run}'s differential pass checks them
   against the concrete algorithms view-by-view and under every daemon;
   {!Obligation.compile} turns the same IRs into unbounded-n SMT
   obligations.  The mod-K arithmetic is expressed with if-then-else
   ([({c}+1) mod K] is [ite (c = K-1) 0 (c+1)]), exact on the declared
   clock ranges. *)

let s_c = Sym.Var (Sym.Self, "c")
let s_b = Sym.Var (Sym.Nbr, "c")

let s_incmod t =
  Sym.Ite
    ( Sym.Eq (t, Sym.Sub (Sym.Param "K", Sym.Num 1)),
      Sym.Num 0,
      Sym.Add (t, Sym.Num 1) )

let s_decmod t =
  Sym.Ite
    ( Sym.Eq (t, Sym.Num 0),
      Sym.Sub (Sym.Param "K", Sym.Num 1),
      Sym.Sub (t, Sym.Num 1) )

(* P_Ok(u,v): v's clock is within one increment of u's (mod K). *)
let s_ring_ok =
  Sym.Or
    [ Sym.Eq (s_b, s_c); Sym.Eq (s_b, s_incmod s_c); Sym.Eq (s_b, s_decmod s_c) ]

(* P_Up(u): every neighbor is at u's value or one ahead. *)
let s_up = Sym.Or [ Sym.Eq (s_b, s_c); Sym.Eq (s_b, s_incmod s_c) ]

let tail_core_spec ~ir_name ~reset ~climb ~tick =
  let compatible =
    Sym.Or
      [ Sym.And [ Sym.Le (Sym.Num 0, s_b); s_ring_ok ];
        Sym.And [ Sym.Lt (s_b, Sym.Num 0); Sym.Le (s_c, Sym.Num 1) ] ]
  in
  let climb_debt = Sym.Ite (Sym.Lt (s_c, Sym.Num 0), Sym.Neg s_c, Sym.Num 0) in
  let ir =
    { Sym.ir_name;
      fields = [ ("c", Sym.TInt) ];
      params =
        [ { Sym.pname = "K"; lower = Some 4 };
          { Sym.pname = "alpha"; lower = Some 1 } ];
      ranges = [ ("c", Sym.Neg (Sym.Param "alpha"), Sym.Param "K") ];
      rules =
        [ { Sym.rule = reset;
            guard =
              Sym.And
                [ Sym.Le (Sym.Num 0, s_c);
                  Sym.Exists_nbr (Sym.Not compatible) ];
            assigns = [ ("c", Sym.Neg (Sym.Param "alpha")) ] };
          { Sym.rule = climb;
            guard =
              Sym.And
                [ Sym.Lt (s_c, Sym.Num 0);
                  Sym.Forall_nbr (Sym.Le (s_c, s_b));
                  Sym.Or
                    [ Sym.Lt (s_c, Sym.Num (-1));
                      Sym.Forall_nbr (Sym.Le (s_b, Sym.Num 1)) ] ];
            assigns = [ ("c", Sym.Add (s_c, Sym.Num 1)) ] };
          { Sym.rule = tick;
            guard =
              Sym.And [ Sym.Le (Sym.Num 0, s_c); Sym.Forall_nbr s_up ];
            assigns = [ ("c", s_incmod s_c) ] } ] }
  in
  { (Sym.spec_of_ir ir) with
    Sym.sp_legitimate =
      Some (Sym.And [ Sym.Le (Sym.Num 0, s_c); Sym.Forall_nbr s_ring_ok ]);
    sp_cert =
      Some
        { Sym.cs_name = "climb-debt";
          cs_rules = [ climb ];
          cs_local = climb_debt };
    (* The same term as a global rank: {!Obligation} additionally proves
       the multiset/lex step argument ([rank-step]) the pointwise
       cert-decrease obligations only sketch. *)
    sp_rank =
      Some
        { Sym.rk_name = "climb-debt";
          rk_rules = [ climb ];
          rk_components = [ climb_debt ] } }

let tail_unison_spec =
  tail_core_spec ~ir_name:"tail-unison" ~reset:Tail_unison.rule_reset
    ~climb:Tail_unison.rule_climb ~tick:Tail_unison.rule_tick

let min_unison_spec =
  tail_core_spec ~ir_name:"min-unison" ~reset:Min_unison.rule_zero
    ~climb:Min_unison.rule_climb ~tick:Min_unison.rule_tick

let encode_clock c = [ ("c", Sym.VInt c) ]

let min_unison g =
  let n = Graph.n g in
  let k = max 4 ((n * n) + 1) and alpha = max 1 (n - 2) in
  let module M = Min_unison.Make (struct
    let k = k
    let alpha = alpha
  end) in
  Finite.make
    ~name:(Printf.sprintf "min-unison[K=%d,a=%d]" k alpha)
    ~algorithm:M.algorithm ~graph:g
    ~domain:(fun _ -> List.init (k + alpha) (fun i -> i - alpha))
    ~legitimate:M.is_legitimate ~terminal_ok:never_terminal
    ?certificate:
      (ranking min_unison_spec ~params:[ ("K", k); ("alpha", alpha) ]
         ~encode:encode_clock)
    ()

let tail_unison g =
  let n = Graph.n g in
  let k = max 4 ((2 * n) + 2) and alpha = max 1 n in
  let module T = Tail_unison.Make (struct
    let k = k
    let alpha = alpha
  end) in
  Finite.make
    ~name:(Printf.sprintf "tail-unison[K=%d,a=%d]" k alpha)
    ~algorithm:T.algorithm ~graph:g
    ~domain:(fun _ -> List.init (k + alpha) (fun i -> i - alpha))
    ~legitimate:T.is_legitimate ~terminal_ok:never_terminal
    ?certificate:
      (ranking tail_unison_spec ~params:[ ("K", k); ("alpha", alpha) ]
         ~encode:encode_clock)
    ()

let tail_unison_sym g =
  let n = Graph.n g in
  let k = max 4 ((2 * n) + 2) and alpha = max 1 n in
  let module T = Tail_unison.Make (struct
    let k = k
    let alpha = alpha
  end) in
  Sym.make_instance ~spec:tail_unison_spec
    ~params:[ ("K", k); ("alpha", alpha) ]
    ~algorithm:T.algorithm ~graph:g
    ~domain:(fun _ -> List.init (k + alpha) (fun i -> i - alpha))
    ~encode:encode_clock
    ~is_legitimate:(T.is_legitimate g) ()

let min_unison_sym g =
  let n = Graph.n g in
  let k = max 4 ((n * n) + 1) and alpha = max 1 (n - 2) in
  let module M = Min_unison.Make (struct
    let k = k
    let alpha = alpha
  end) in
  Sym.make_instance ~spec:min_unison_spec
    ~params:[ ("K", k); ("alpha", alpha) ]
    ~algorithm:M.algorithm ~graph:g
    ~domain:(fun _ -> List.init (k + alpha) (fun i -> i - alpha))
    ~encode:encode_clock
    ~is_legitimate:(M.is_legitimate g) ()

(* The unison SDR input layer (Algorithm 2), with the full §3.5 reset
   interface: p_icorrect / p_reset / reset back the requirement
   obligations of {!Obligation}.  The differential validates the IR
   against the {e bare} input algorithm — the composed transformer's
   correctness on top of it is the model checker's job. *)
let unison_input_spec =
  let ir =
    { Sym.ir_name = "unison";
      fields = [ ("c", Sym.TInt) ];
      params = [ { Sym.pname = "K"; lower = Some 2 } ];
      ranges = [ ("c", Sym.Num 0, Sym.Param "K") ];
      rules =
        [ { Sym.rule = Unison.rule_inc;
            guard = Sym.Forall_nbr s_up;
            assigns = [ ("c", s_incmod s_c) ] } ] }
  in
  { (Sym.spec_of_ir ir) with
    Sym.sp_legitimate = Some (Sym.Forall_nbr s_ring_ok);
    sp_p_icorrect = Some (Sym.Forall_nbr s_ring_ok);
    sp_p_reset = Some (Sym.Eq (s_c, Sym.Num 0));
    sp_reset = Some [ ("c", Sym.Num 0) ] }

let unison_params g =
  let n = Graph.n g in
  let k = n + 2 in
  let clocks = List.init k Fun.id in
  (k, Finite.sdr_domain ~inner:(fun _ -> clocks) ~max_d:n)

let unison_sym g =
  let k, _ = unison_params g in
  let module U = Unison.Make (struct
    let k = k
  end) in
  Sym.make_instance ~spec:unison_input_spec
    ~params:[ ("K", k) ]
    ~algorithm:U.bare ~graph:g
    ~domain:(fun _ -> List.init k Fun.id)
    ~encode:encode_clock
    ~is_legitimate:(fun cfg ->
      Algorithm.for_all_views g cfg ~f:(fun _ v -> U.Input.p_icorrect v))
    ()

(* --- the composed U∘SDR system as one symbolic IR ---------------------

   Unlike {!unison_input_spec} (the bare input layer), this spec describes
   the {e whole} transformed algorithm — SDR-RB/RF/C/R plus the lifted
   U-inc — with the SDR variables as explicit fields (st as an enum, d as
   an int).  It is the source of truth the flat data-path engine compiles
   to closures over unboxed arrays, and the flat-vs-classic differential
   validates it against [Sdr.Make]'s OCaml rules the same way {!Sym.check}
   does here.  SDR-RB's distance update needs the neighborhood minimum,
   hence {!Sym.Min_nbr}.  Attached to the unison-sdr entry as its
   [comp_spec]: {!Obligation.compile_composition} turns the wave rank
   below into the PADEC-style [comp.*] obligations (reset-layer rank
   decrease, input-layer rank silence), the solver-checkable half of the
   composed convergence argument. *)

let unison_sdr_composed_spec =
  let st_s = Sym.Var (Sym.Self, "st") and st_b = Sym.Var (Sym.Nbr, "st") in
  let d_s = Sym.Var (Sym.Self, "d") and d_b = Sym.Var (Sym.Nbr, "d") in
  let c_C = Sym.Ctor "C" and c_RB = Sym.Ctor "RB" and c_RF = Sym.Ctor "RF" in
  let reset_s = Sym.Eq (s_c, Sym.Num 0) in
  let reset_b = Sym.Eq (s_b, Sym.Num 0) in
  let p_rb = Sym.And [ Sym.Eq (st_s, c_C); Sym.Exists_nbr (Sym.Eq (st_b, c_RB)) ] in
  let p_rf =
    Sym.And
      [ Sym.Eq (st_s, c_RB);
        reset_s;
        Sym.Forall_nbr
          (Sym.Or
             [ Sym.And [ Sym.Eq (st_b, c_RB); Sym.Le (d_b, d_s) ];
               Sym.And [ Sym.Eq (st_b, c_RF); reset_b ] ]) ]
  in
  (* ok(s) of P_C, sited at self and at the bound neighbor. *)
  let ok_self =
    Sym.And
      [ reset_s;
        Sym.Or [ Sym.And [ Sym.Eq (st_s, c_RF); Sym.Le (d_s, d_s) ];
                 Sym.Eq (st_s, c_C) ] ]
  in
  let ok_nbr =
    Sym.And
      [ reset_b;
        Sym.Or [ Sym.And [ Sym.Eq (st_b, c_RF); Sym.Le (d_s, d_b) ];
                 Sym.Eq (st_b, c_C) ] ]
  in
  let p_c = Sym.And [ Sym.Eq (st_s, c_RF); ok_self; Sym.Forall_nbr ok_nbr ] in
  let p_r1 =
    Sym.And
      [ Sym.Eq (st_s, c_C); Sym.Not reset_s;
        Sym.Exists_nbr (Sym.Eq (st_b, c_RF)) ]
  in
  let p_r2 = Sym.And [ Sym.Not (Sym.Eq (st_s, c_C)); Sym.Not reset_s ] in
  let p_icorrect = Sym.Forall_nbr s_ring_ok in
  let p_correct = Sym.Or [ Sym.Not (Sym.Eq (st_s, c_C)); p_icorrect ] in
  let p_up = Sym.And [ Sym.Not p_rb; Sym.Or [ p_r1; p_r2; Sym.Not p_correct ] ] in
  let p_clean =
    Sym.And [ Sym.Eq (st_s, c_C); Sym.Forall_nbr (Sym.Eq (st_b, c_C)) ]
  in
  let ir =
    { Sym.ir_name = "unison-sdr-composed";
      fields =
        [ ("st", Sym.TEnum ("Status", [ "C"; "RB"; "RF" ]));
          ("d", Sym.TInt);
          ("c", Sym.TInt) ];
      params =
        [ { Sym.pname = "K"; lower = Some 2 };
          { Sym.pname = "MaxD"; lower = Some 0 } ];
      ranges =
        [ ("c", Sym.Num 0, Sym.Param "K");
          ("d", Sym.Num 0, Sym.Add (Sym.Param "MaxD", Sym.Num 1)) ];
      rules =
        [ { Sym.rule = "SDR-RB";
            guard = p_rb;
            assigns =
              [ ("st", c_RB);
                (* default unreachable: P_RB guarantees an RB neighbor *)
                ("d",
                 Sym.Add
                   ( Sym.Min_nbr (Sym.Eq (st_b, c_RB), d_b, Sym.Num 0),
                     Sym.Num 1 ));
                ("c", Sym.Num 0) ] };
          { Sym.rule = "SDR-RF"; guard = p_rf; assigns = [ ("st", c_RF) ] };
          { Sym.rule = "SDR-C"; guard = p_c; assigns = [ ("st", c_C) ] };
          { Sym.rule = "SDR-R";
            guard = p_up;
            assigns = [ ("st", c_RB); ("d", Sym.Num 0); ("c", Sym.Num 0) ] };
          { Sym.rule = Unison.rule_inc;
            guard = Sym.And [ p_clean; Sym.Forall_nbr s_up ];
            assigns = [ ("c", s_incmod s_c) ] } ] }
  in
  { (Sym.spec_of_ir ir) with
    Sym.sp_legitimate = Some (Sym.And [ p_clean; p_icorrect ]);
    (* The symbolic twin of {!wave_completion}: RB = 2, RF = 1, C = 0 at
       each process.  SDR-RF and SDR-C strictly decrease the mover's
       component; U-inc writes only [c], so it is rank-silent and gets a
       [comp.rank-frame] obligation.  SDR-RB and SDR-R restart waves (they
       raise the rank by design) and stay uncovered. *)
    sp_rank =
      Some
        { Sym.rk_name = "wave-completion";
          rk_rules = [ "SDR-RF"; "SDR-C" ];
          rk_components =
            [ Sym.Ite
                ( Sym.Eq (st_s, c_RB),
                  Sym.Num 2,
                  Sym.Ite (Sym.Eq (st_s, c_RF), Sym.Num 1, Sym.Num 0) ) ] }
  }

let unison_sdr_params_of_n n = [ ("K", n + 2); ("MaxD", n) ]

let tail_unison_params_of_n n =
  [ ("K", max 4 ((2 * n) + 2)); ("alpha", max 1 n) ]

let min_unison_params_of_n n =
  [ ("K", max 4 ((n * n) + 1)); ("alpha", max 1 (n - 2)) ]

let encode_composed (s : Unison.clock Sdr.state) =
  [ ("st", Sym.VEnum (Sdr.status_to_string s.Sdr.st));
    ("d", Sym.VInt s.Sdr.d);
    ("c", Sym.VInt s.Sdr.inner) ]

let unison_sdr g =
  let k, domain = unison_params g in
  let module U = Unison.Make (struct
    let k = k
  end) in
  Finite.make
    ~name:(Printf.sprintf "unison-sdr[K=%d]" k)
    ~algorithm:U.Composed.algorithm ~graph:g ~domain
    ~legitimate:U.Composed.is_normal ~terminal_ok:never_terminal
    ?certificate:
      (ranking unison_sdr_composed_spec
         ~params:(unison_sdr_params_of_n (Graph.n g))
         ~encode:encode_composed)
    ()

let unison_sdr_composed_sym g =
  let k, domain = unison_params g in
  let module U = Unison.Make (struct
    let k = k
  end) in
  Sym.make_instance ~spec:unison_sdr_composed_spec
    ~params:(unison_sdr_params_of_n (Graph.n g))
    ~algorithm:U.Composed.algorithm ~graph:g ~domain
    ~encode:encode_composed
    ~is_legitimate:(U.Composed.is_normal g) ()

let unison_sdr_footprint g =
  let k, domain = unison_params g in
  let module U = Unison.Make (struct
    let k = k
  end) in
  Footprint.sdr_target
    (module U.Input)
    ~name:(Printf.sprintf "unison-sdr[K=%d]" k)
    ~algorithm:U.Composed.algorithm ~graph:g ~domain

let coloring_inner g u =
  { Coloring.id = u; color = None }
  :: List.init (Graph.degree g u + 1) (fun c ->
         { Coloring.id = u; color = Some c })

let coloring_sdr_footprint g =
  let module C = Coloring.Make (struct
    let graph = g
    let ids = None
  end) in
  Footprint.sdr_target
    (module C.Input)
    ~name:"coloring-sdr" ~algorithm:C.Composed.algorithm ~graph:g
    ~domain:(Finite.sdr_domain ~inner:(coloring_inner g) ~max_d:(Graph.n g))

let mis_inner u =
  List.map (fun m -> { Mis.id = u; m }) [ Mis.Undecided; Mis.In; Mis.Out ]

let mis_sdr_footprint g =
  let module M = Mis.Make (struct
    let graph = g
    let ids = None
  end) in
  Footprint.sdr_target
    (module M.Input)
    ~name:"mis-sdr" ~algorithm:M.Composed.algorithm ~graph:g
    ~domain:(Finite.sdr_domain ~inner:mis_inner ~max_d:(Graph.n g))

let matching_inner g u =
  { Matching.id = u; ptr = None }
  :: Array.to_list
       (Array.map
          (fun v -> { Matching.id = u; ptr = Some v })
          (Graph.neighbors g u))

let matching_sdr g =
  let module M = Matching.Make (struct
    let graph = g
    let ids = None
  end) in
  Finite.make ~name:"matching-sdr" ~algorithm:M.Composed.algorithm ~graph:g
    ~domain:(Finite.sdr_domain ~inner:(matching_inner g) ~max_d:(Graph.n g))
    ~legitimate:M.Composed.is_normal
    ~terminal_ok:(fun _ cfg ->
      M.is_maximal_matching (M.matching_of_composed cfg))
    ()

let matching_sdr_footprint g =
  let module M = Matching.Make (struct
    let graph = g
    let ids = None
  end) in
  Footprint.sdr_target
    (module M.Input)
    ~name:"matching-sdr" ~algorithm:M.Composed.algorithm ~graph:g
    ~domain:(Finite.sdr_domain ~inner:(matching_inner g) ~max_d:(Graph.n g))

let fga_inner spec g u =
  let ptrs =
    None :: Some u
    :: Array.to_list (Array.map (fun v -> Some v) (Graph.neighbors g u))
  in
  List.concat_map
    (fun col ->
      List.concat_map
        (fun scr ->
          List.concat_map
            (fun can_q ->
              List.map
                (fun ptr ->
                  { Fga.id = u;
                    f_u = spec.Spec.f g u;
                    g_u = spec.Spec.g g u;
                    col;
                    scr;
                    can_q;
                    ptr })
                ptrs)
            [ true; false ])
        [ -1; 0; 1 ])
    [ true; false ]

let fga_sdr g =
  let spec = Spec.dominating_set in
  let module A = Fga.Make (struct
    let graph = g
    let spec = spec
    let ids = None
  end) in
  (* FGA ∘ SDR is silent: legitimacy IS termination, so the round bound
     8n+4 (Theorem 14) measures full stabilization and the output check
     (a 1-minimal (f,g)-alliance) covers the specification. *)
  Finite.make ~name:"fga-sdr[dominating-set]"
    ~algorithm:A.Composed.algorithm ~graph:g
    ~domain:(Finite.sdr_domain ~inner:(fga_inner spec g) ~max_d:(Graph.n g))
    ~legitimate:(fun g cfg -> Algorithm.is_terminal A.Composed.algorithm g cfg)
    ~terminal_ok:(fun g cfg ->
      Checker.is_one_minimal g spec (A.alliance_of_composed cfg))
    ()

let fga_sdr_footprint g =
  let spec = Spec.dominating_set in
  let module A = Fga.Make (struct
    let graph = g
    let spec = spec
    let ids = None
  end) in
  Footprint.sdr_target
    (module A.Input)
    ~name:"fga-sdr[dominating-set]" ~algorithm:A.Composed.algorithm ~graph:g
    ~domain:(Finite.sdr_domain ~inner:(fga_inner spec g) ~max_d:(Graph.n g))

(* --- symbolic IRs of the four SDR input layers ------------------------

   First-order executable specs of the {e bare} coloring / MIS / matching
   / FGA algorithms (ids fixed to the process indices, [ids = None]), with
   the full §3.5 reset interface so {!Obligation.compile} emits their
   requirement obligations.  Option-typed pointers and colors are encoded
   as integers with ⊥ = -1 (ids are >= 0, so the sentinel is unambiguous);
   the neighborhood folds of the OCaml rules become {!Sym.Min_nbr},
   {!Sym.Mex_nbr} and {!Sym.Count_nbr}, which the obligation compiler
   turns into Skolem functions with defining axioms. *)

let s_id = Sym.Var (Sym.Self, "id")
let s_id_b = Sym.Var (Sym.Nbr, "id")
let s_none = Sym.Num (-1)
let max_id_range = ("id", Sym.Num 0, Sym.Add (Sym.Param "MaxId", Sym.Num 1))
let max_id_param = { Sym.pname = "MaxId"; lower = Some 0 }
let max_id_params g = [ ("MaxId", Graph.n g - 1) ]

let coloring_spec =
  let col_s = Sym.Var (Sym.Self, "col")
  and col_b = Sym.Var (Sym.Nbr, "col") in
  let defined t = Sym.Not (Sym.Eq (t, s_none)) in
  let ir =
    { Sym.ir_name = "coloring";
      fields = [ ("id", Sym.TInt); ("col", Sym.TInt) ];
      params = [ max_id_param ];
      (* No declared range for [col]: the OCaml invariant col <= deg is a
         pigeonhole fact about the {e number} of neighbors, not expressible
         over the uninterpreted node sort, so the IR leaves the color
         unbounded above and the obligations never assume or re-prove it. *)
      ranges = [ max_id_range ];
      rules =
        [ { Sym.rule = Coloring.rule_pick;
            (* [p_icorrect] is omitted from the guard: it is trivially true
               at an uncolored process, and [col = -1] is already the first
               conjunct. *)
            guard =
              Sym.And
                [ Sym.Eq (col_s, s_none);
                  Sym.Forall_nbr
                    (Sym.Or [ defined col_b; Sym.Lt (s_id_b, s_id) ]) ];
            assigns = [ ("col", Sym.Mex_nbr (defined col_b, col_b)) ] } ] }
  in
  { (Sym.spec_of_ir ir) with
    (* The first-order core of the OCaml [p_icorrect] — the col <= deg
       conjunct is dropped (see the range note above), which only weakens
       the interface obligations, never unsoundly strengthens them. *)
    Sym.sp_p_icorrect =
      Some
        (Sym.Or
           [ Sym.Eq (col_s, s_none);
             Sym.And
               [ Sym.Le (Sym.Num 0, col_s);
                 Sym.Forall_nbr (Sym.Not (Sym.Eq (col_b, col_s))) ] ]);
    sp_p_reset = Some (Sym.Eq (col_s, s_none));
    sp_reset = Some [ ("col", s_none) ];
    sp_rank =
      Some
        { Sym.rk_name = "undecided";
          rk_rules = [ Coloring.rule_pick ];
          rk_components =
            [ Sym.Ite (Sym.Eq (col_s, s_none), Sym.Num 1, Sym.Num 0) ] } }

let encode_coloring (s : Coloring.state) =
  [ ("id", Sym.VInt s.Coloring.id);
    ("col", Sym.VInt (match s.Coloring.color with None -> -1 | Some c -> c)) ]

let coloring_sym g =
  let module C = Coloring.Make (struct
    let graph = g
    let ids = None
  end) in
  Sym.make_instance ~spec:coloring_spec ~params:(max_id_params g)
    ~algorithm:C.bare ~graph:g
    ~domain:(coloring_inner g)
    ~encode:encode_coloring ()

let coloring_sdr g =
  let module C = Coloring.Make (struct
    let graph = g
    let ids = None
  end) in
  Finite.make ~name:"coloring-sdr" ~algorithm:C.Composed.algorithm ~graph:g
    ~domain:(Finite.sdr_domain ~inner:(coloring_inner g) ~max_d:(Graph.n g))
    ~legitimate:C.Composed.is_normal
    ~terminal_ok:(fun _ cfg -> C.is_proper (C.coloring_of_composed cfg))
    ?certificate:
      (ranking coloring_spec ~params:(max_id_params g)
         ~encode:(fun s -> encode_coloring s.Sdr.inner))
    ()

let mis_spec =
  let m_s = Sym.Var (Sym.Self, "m") and m_b = Sym.Var (Sym.Nbr, "m") in
  let und = Sym.Ctor "Und"
  and c_in = Sym.Ctor "In"
  and c_out = Sym.Ctor "Out" in
  let p_ic =
    Sym.Or
      [ Sym.Eq (m_s, und);
        Sym.And
          [ Sym.Eq (m_s, c_in);
            Sym.Forall_nbr (Sym.Not (Sym.Eq (m_b, c_in))) ];
        Sym.And [ Sym.Eq (m_s, c_out); Sym.Exists_nbr (Sym.Eq (m_b, c_in)) ]
      ]
  in
  let ir =
    { Sym.ir_name = "mis";
      fields =
        [ ("id", Sym.TInt);
          ("m", Sym.TEnum ("Membership", [ "Und"; "In"; "Out" ])) ];
      params = [ max_id_param ];
      ranges = [ max_id_range ];
      rules =
        [ { Sym.rule = Mis.rule_join;
            guard =
              Sym.And
                [ p_ic;
                  Sym.Eq (m_s, und);
                  Sym.Forall_nbr
                    (Sym.Or
                       [ Sym.Eq (m_b, c_out);
                         Sym.And
                           [ Sym.Eq (m_b, und); Sym.Lt (s_id_b, s_id) ] ])
                ];
            assigns = [ ("m", c_in) ] };
          { Sym.rule = Mis.rule_out;
            guard =
              Sym.And
                [ p_ic;
                  Sym.Eq (m_s, und);
                  Sym.Exists_nbr (Sym.Eq (m_b, c_in)) ];
            assigns = [ ("m", c_out) ] } ] }
  in
  { (Sym.spec_of_ir ir) with
    Sym.sp_p_icorrect = Some p_ic;
    sp_p_reset = Some (Sym.Eq (m_s, und));
    sp_reset = Some [ ("m", und) ];
    sp_rank =
      Some
        { Sym.rk_name = "undecided";
          rk_rules = [ Mis.rule_join; Mis.rule_out ];
          rk_components =
            [ Sym.Ite (Sym.Eq (m_s, und), Sym.Num 1, Sym.Num 0) ] } }

let encode_mis (s : Mis.state) =
  [ ("id", Sym.VInt s.Mis.id);
    ("m",
     Sym.VEnum
       (match s.Mis.m with
       | Mis.Undecided -> "Und"
       | Mis.In -> "In"
       | Mis.Out -> "Out")) ]

let mis_sym g =
  let module M = Mis.Make (struct
    let graph = g
    let ids = None
  end) in
  Sym.make_instance ~spec:mis_spec ~params:(max_id_params g)
    ~algorithm:M.bare ~graph:g ~domain:mis_inner ~encode:encode_mis ()

let mis_sdr g =
  let module M = Mis.Make (struct
    let graph = g
    let ids = None
  end) in
  Finite.make ~name:"mis-sdr" ~algorithm:M.Composed.algorithm ~graph:g
    ~domain:(Finite.sdr_domain ~inner:mis_inner ~max_d:(Graph.n g))
    ~legitimate:M.Composed.is_normal
    ~terminal_ok:(fun _ cfg -> M.is_mis (M.independent_set_of_composed cfg))
    ?certificate:
      (ranking mis_spec ~params:(max_id_params g)
         ~encode:(fun s -> encode_mis s.Sdr.inner))
    ()

let matching_spec =
  let ptr_s = Sym.Var (Sym.Self, "ptr")
  and ptr_b = Sym.Var (Sym.Nbr, "ptr") in
  (* Smallest-id neighbor pointing at self / smallest-id pointer-free
     smaller-id neighbor; -1 when none qualifies (ids are >= 0). *)
  let best_proposer = Sym.Min_nbr (Sym.Eq (ptr_b, s_id), s_id_b, s_none) in
  let best_target =
    Sym.Min_nbr
      ( Sym.And [ Sym.Eq (ptr_b, s_none); Sym.Lt (s_id_b, s_id) ],
        s_id_b,
        s_none )
  in
  (* Any pointer must reach an actual neighbor and be a downward proposal
     or reciprocated; ids are unique, so the existential witnesses the
     OCaml [nbr_by_id] lookup. *)
  let p_ic =
    Sym.Or
      [ Sym.Eq (ptr_s, s_none);
        Sym.Exists_nbr
          (Sym.And
             [ Sym.Eq (s_id_b, ptr_s);
               Sym.Or [ Sym.Lt (ptr_s, s_id); Sym.Eq (ptr_b, s_id) ] ]) ]
  in
  let ir =
    { Sym.ir_name = "matching";
      fields = [ ("id", Sym.TInt); ("ptr", Sym.TInt) ];
      params = [ max_id_param ];
      ranges =
        [ max_id_range;
          ("ptr", s_none, Sym.Add (Sym.Param "MaxId", Sym.Num 1)) ];
      rules =
        [ { Sym.rule = Matching.rule_accept;
            guard =
              Sym.And
                [ p_ic;
                  Sym.Eq (ptr_s, s_none);
                  Sym.Not (Sym.Eq (best_proposer, s_none)) ];
            assigns = [ ("ptr", best_proposer) ] };
          { Sym.rule = Matching.rule_propose;
            guard =
              Sym.And
                [ p_ic;
                  Sym.Eq (ptr_s, s_none);
                  Sym.Eq (best_proposer, s_none);
                  Sym.Not (Sym.Eq (best_target, s_none)) ];
            assigns = [ ("ptr", best_target) ] };
          { Sym.rule = Matching.rule_withdraw;
            guard =
              Sym.And
                [ p_ic;
                  Sym.Not (Sym.Eq (ptr_s, s_none));
                  Sym.Exists_nbr
                    (Sym.And
                       [ Sym.Eq (s_id_b, ptr_s);
                         Sym.Not (Sym.Eq (ptr_b, s_none));
                         Sym.Not (Sym.Eq (ptr_b, s_id)) ]) ];
            assigns = [ ("ptr", s_none) ] } ] }
  in
  { (Sym.spec_of_ir ir) with
    Sym.sp_p_icorrect = Some p_ic;
    sp_p_reset = Some (Sym.Eq (ptr_s, s_none));
    sp_reset = Some [ ("ptr", s_none) ] }

let matching_sym g =
  let module M = Matching.Make (struct
    let graph = g
    let ids = None
  end) in
  Sym.make_instance ~spec:matching_spec ~params:(max_id_params g)
    ~algorithm:M.bare ~graph:g
    ~domain:(matching_inner g)
    ~encode:(fun (s : Matching.state) ->
      [ ("id", Sym.VInt s.Matching.id);
        ("ptr",
         Sym.VInt (match s.Matching.ptr with None -> -1 | Some p -> p)) ])
    ()

(* FGA specialized to [Spec.dominating_set] (f = 1, g = 0), matching the
   registry instance: the thresholds are the parameter [F] (lower bound 1)
   and the literal 0, so [f_u]/[g_u] need not be fields.  The guards read
   the {e stored} [scr]/[can_q]; the actions re-evaluate both ([cmpVar])
   before recomputing the pointer, exactly like the OCaml macros. *)
let fga_spec =
  let col_s = Sym.Var (Sym.Self, "col")
  and col_b = Sym.Var (Sym.Nbr, "col")
  and scr_s = Sym.Var (Sym.Self, "scr")
  and scr_b = Sym.Var (Sym.Nbr, "scr")
  and canq_s = Sym.Var (Sym.Self, "can_q")
  and canq_b = Sym.Var (Sym.Nbr, "can_q")
  and ptr_s = Sym.Var (Sym.Self, "ptr")
  and ptr_b = Sym.Var (Sym.Nbr, "ptr") in
  let tt = Sym.Bool true and ff = Sym.Bool false in
  let cnt = Sym.Count_nbr (Sym.Eq (col_b, tt)) in
  (* realScr(u) as a term, threshold g = 0 inside the alliance, f = F
     outside; and its value after col := false (rule Clr re-evaluates it
     on the updated own state). *)
  let real_scr_at th =
    Sym.Ite
      ( Sym.Lt (cnt, th),
        Sym.Num (-1),
        Sym.Ite (Sym.Eq (cnt, th), Sym.Num 0, Sym.Num 1) )
  in
  let rs = real_scr_at (Sym.Ite (Sym.Eq (col_s, tt), Sym.Num 0, Sym.Param "F"))
  and rs_clr = real_scr_at (Sym.Param "F") in
  let can_quit =
    Sym.And
      [ Sym.Eq (col_s, tt);
        Sym.Le (Sym.Param "F", cnt);
        Sym.Forall_nbr (Sym.Eq (scr_b, Sym.Num 1)) ]
  in
  let canq_term = Sym.Ite (can_quit, tt, ff) in
  let to_quit =
    Sym.And
      [ can_quit;
        Sym.Eq (ptr_s, s_id);
        Sym.Forall_nbr (Sym.Eq (ptr_b, s_id)) ]
  in
  (* bestPtr(u) on stored scr/can_q (guards) — self-approval beats any
     neighbor with a larger id, so the fold is a min over smaller-id
     candidates defaulting to self. *)
  let min_smaller_canq =
    Sym.Min_nbr
      (Sym.And [ Sym.Eq (canq_b, tt); Sym.Lt (s_id_b, s_id) ], s_id_b, s_id)
  and min_canq = Sym.Min_nbr (Sym.Eq (canq_b, tt), s_id_b, s_none) in
  let best_stored =
    Sym.Ite
      ( Sym.Eq (canq_s, tt),
        Sym.Ite (Sym.Eq (scr_s, Sym.Num 1), min_smaller_canq, s_id),
        Sym.Ite (Sym.Eq (scr_s, Sym.Num 1), min_canq, s_none) )
  in
  let upd_ptr =
    Sym.And [ Sym.Not to_quit; Sym.Not (Sym.Eq (ptr_s, best_stored)) ]
  in
  (* bestPtr(u) on the re-evaluated scr/can_q (actions P2 and Clr). *)
  let best_recomputed =
    Sym.Ite
      ( can_quit,
        Sym.Ite (Sym.Eq (rs, Sym.Num 1), min_smaller_canq, s_id),
        Sym.Ite (Sym.Eq (rs, Sym.Num 1), min_canq, s_none) )
  and best_after_clr =
    (* col' = false kills P_canQuit, so only the no-self branch remains. *)
    Sym.Ite (Sym.Eq (rs_clr, Sym.Num 1), min_canq, s_none)
  in
  let p_ic =
    Sym.And
      [ Sym.Le (Sym.Num 0, rs);
        Sym.Or
          [ Sym.And [ Sym.Eq (scr_s, Sym.Num 1); Sym.Eq (rs, Sym.Num 1) ];
            Sym.Eq (ptr_s, s_none);
            Sym.And
              [ Sym.Eq (ptr_s, s_id);
                Sym.Eq (col_s, tt);
                Sym.Eq (scr_s, rs) ];
            Sym.And
              [ Sym.Not (Sym.Eq (ptr_s, s_none));
                Sym.Eq (scr_s, Sym.Num 1);
                Sym.Or
                  [ Sym.And [ Sym.Eq (ptr_s, s_id); Sym.Eq (col_s, ff) ];
                    Sym.And
                      [ Sym.Not (Sym.Eq (ptr_s, s_id));
                        Sym.Exists_nbr
                          (Sym.And
                             [ Sym.Eq (s_id_b, ptr_s); Sym.Eq (col_b, ff) ])
                      ] ] ] ] ]
  in
  let ir =
    { Sym.ir_name = "fga-dominating-set";
      fields =
        [ ("id", Sym.TInt);
          ("col", Sym.TBool);
          ("scr", Sym.TInt);
          ("can_q", Sym.TBool);
          ("ptr", Sym.TInt) ];
      params = [ max_id_param; { Sym.pname = "F"; lower = Some 1 } ];
      ranges =
        [ max_id_range;
          ("scr", Sym.Num (-1), Sym.Num 2);
          ("ptr", s_none, Sym.Add (Sym.Param "MaxId", Sym.Num 1)) ];
      rules =
        [ { Sym.rule = Fga.rule_clr;
            guard = Sym.And [ p_ic; to_quit ];
            assigns =
              [ ("col", ff);
                ("scr", rs_clr);
                ("can_q", ff);
                ("ptr", best_after_clr) ] };
          { Sym.rule = Fga.rule_p1;
            guard =
              Sym.And [ p_ic; upd_ptr; Sym.Not (Sym.Eq (ptr_s, s_none)) ];
            assigns =
              [ ("scr", rs); ("can_q", canq_term); ("ptr", s_none) ] };
          { Sym.rule = Fga.rule_p2;
            guard = Sym.And [ p_ic; upd_ptr; Sym.Eq (ptr_s, s_none) ];
            assigns =
              [ ("scr", rs);
                ("can_q", canq_term);
                ("ptr", best_recomputed) ] };
          { Sym.rule = Fga.rule_q;
            guard =
              Sym.And
                [ p_ic;
                  Sym.Not to_quit;
                  Sym.Not upd_ptr;
                  Sym.Or
                    [ Sym.Not (Sym.Eq (scr_s, rs));
                      Sym.Not (Sym.Eq (canq_s, canq_term)) ] ];
            assigns =
              [ ("scr", rs);
                ("can_q", canq_term);
                ("ptr", Sym.Ite (Sym.Le (rs, Sym.Num 0), s_none, ptr_s)) ]
          } ] }
  in
  { (Sym.spec_of_ir ir) with
    Sym.sp_p_icorrect = Some p_ic;
    sp_p_reset =
      Some
        (Sym.And
           [ Sym.Eq (col_s, tt);
             Sym.Eq (ptr_s, s_none);
             Sym.Eq (canq_s, tt);
             Sym.Eq (scr_s, Sym.Num 1) ]);
    sp_reset =
      Some
        [ ("col", tt); ("ptr", s_none); ("can_q", tt); ("scr", Sym.Num 1) ]
  }

let fga_sym g =
  let spec = Spec.dominating_set in
  let module A = Fga.Make (struct
    let graph = g
    let spec = spec
    let ids = None
  end) in
  Sym.make_instance ~spec:fga_spec
    ~params:[ ("MaxId", Graph.n g - 1); ("F", 1) ]
    ~algorithm:A.bare ~graph:g
    ~domain:(fga_inner spec g)
    ~encode:(fun (s : Fga.state) ->
      [ ("id", Sym.VInt s.Fga.id);
        ("col", Sym.VBool s.Fga.col);
        ("scr", Sym.VInt s.Fga.scr);
        ("can_q", Sym.VBool s.Fga.can_q);
        ("ptr", Sym.VInt (match s.Fga.ptr with None -> -1 | Some p -> p))
      ])
    ()

(* --- registry -------------------------------------------------------- *)

let entries =
  [ { name = "min-unison";
      description = "self-stabilizing minimal unison, K = n^2 + 1";
      expect_silent = false;
      round_bound = None;
      min_n = 1;
      max_n_quick = 3;
      max_n_full = 4;
      instance = min_unison;
      footprint = None;
      sym = Some min_unison_sym;
      smt_spec = Some min_unison_spec;
      comp_spec = None };
    { name = "tail-unison";
      description = "tail-reset unison, K = 2n + 2, alpha = n";
      expect_silent = false;
      round_bound = None;
      min_n = 1;
      max_n_quick = 3;
      max_n_full = 4;
      instance = tail_unison;
      footprint = None;
      sym = Some tail_unison_sym;
      smt_spec = Some tail_unison_spec;
      comp_spec = None };
    { name = "unison-sdr";
      description = "unison composed with SDR, K = n + 2 (3n-round recovery)";
      expect_silent = false;
      round_bound = Some (fun n -> 3 * n);
      min_n = 1;
      max_n_quick = 2;
      max_n_full = 3;
      instance = unison_sdr;
      footprint = Some unison_sdr_footprint;
      sym = Some unison_sym;
      smt_spec = Some unison_input_spec;
      comp_spec = Some unison_sdr_composed_spec };
    { name = "coloring-sdr";
      description = "greedy (Δ+1)-coloring composed with SDR (silent)";
      expect_silent = true;
      round_bound = None;
      min_n = 1;
      max_n_quick = 2;
      max_n_full = 3;
      instance = coloring_sdr;
      footprint = Some coloring_sdr_footprint;
      sym = Some coloring_sym;
      smt_spec = Some coloring_spec;
      comp_spec = None };
    { name = "mis-sdr";
      description = "maximal independent set composed with SDR (silent)";
      expect_silent = true;
      round_bound = None;
      min_n = 1;
      max_n_quick = 2;
      max_n_full = 3;
      instance = mis_sdr;
      footprint = Some mis_sdr_footprint;
      sym = Some mis_sym;
      smt_spec = Some mis_spec;
      comp_spec = None };
    { name = "matching-sdr";
      description = "maximal matching composed with SDR (silent)";
      expect_silent = true;
      round_bound = None;
      min_n = 1;
      max_n_quick = 2;
      max_n_full = 3;
      instance = matching_sdr;
      footprint = Some matching_sdr_footprint;
      sym = Some matching_sym;
      smt_spec = Some matching_spec;
      comp_spec = None };
    { name = "fga-sdr";
      description =
        "1-minimal (1,0)-alliance (FGA) composed with SDR (silent, 8n+4 \
         rounds)";
      expect_silent = true;
      round_bound = Some (fun n -> (8 * n) + 4);
      min_n = 2;
      max_n_quick = 2;
      max_n_full = 2;
      instance = fga_sdr;
      footprint = Some fga_sdr_footprint;
      sym = Some fga_sym;
      smt_spec = Some fga_spec;
      comp_spec = None } ]

let fixtures =
  [ { name = "toy-livelock";
      description = "fixture: always-enabled flip — must livelock";
      expect_silent = false;
      round_bound = None;
      min_n = 2;
      max_n_quick = 2;
      max_n_full = 3;
      instance = Toy.livelock;
      footprint = None;
      sym = None;
      smt_spec = None;
      comp_spec = None };
    { name = "toy-overlap";
      description = "fixture: overlapping guards and a silent move";
      expect_silent = false;
      round_bound = None;
      min_n = 1;
      max_n_quick = 2;
      max_n_full = 3;
      instance = Toy.overlap;
      footprint = None;
      sym = None;
      smt_spec = None;
      comp_spec = None };
    { name = "toy-interference";
      description =
        "fixture: composed input rule writes the SDR distance — footprint \
         must flag";
      expect_silent = false;
      round_bound = None;
      min_n = 1;
      max_n_quick = 2;
      max_n_full = 3;
      instance = Toy.interference;
      footprint = Some Toy.interference_footprint;
      sym = None;
      smt_spec = None;
      comp_spec = None };
    { name = "toy-badsym";
      description =
        "fixture: symbolic IR guard disagrees with the OCaml rule — the \
         differential pass must flag";
      expect_silent = false;
      round_bound = None;
      min_n = 1;
      max_n_quick = 2;
      max_n_full = 3;
      instance = Toy.badsym;
      footprint = None;
      sym = Some Toy.badsym_sym;
      smt_spec = None;
      comp_spec = None };
    { name = "toy-badrank";
      description =
        "fixture: exact IR whose rank claim stutters on the 1 -> 0 move — \
         the ranking differential and the model rank pass must flag";
      expect_silent = false;
      round_bound = None;
      min_n = 1;
      max_n_quick = 2;
      max_n_full = 3;
      instance = Toy.badrank;
      footprint = None;
      sym = Some Toy.badrank_sym;
      smt_spec = None;
      comp_spec = None } ]

let contains ~needle haystack =
  let h = String.lowercase_ascii haystack
  and n = String.lowercase_ascii needle in
  let hl = String.length h and nl = String.length n in
  let rec at i = i + nl <= hl && (String.sub h i nl = n || at (i + 1)) in
  nl = 0 || at 0

let find pattern =
  List.filter
    (fun e -> contains ~needle:pattern e.name)
    (entries @ fixtures)

(* --- runner ---------------------------------------------------------- *)

let merge_findings findings =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (f : Lint.finding) ->
      match Hashtbl.find_opt table (f.Lint.lint, f.Lint.rules) with
      | None -> Hashtbl.add table (f.Lint.lint, f.Lint.rules) f
      | Some prior ->
          Hashtbl.replace table
            (f.Lint.lint, f.Lint.rules)
            { prior with Lint.count = prior.Lint.count + f.Lint.count })
    findings;
  Hashtbl.fold (fun _ f acc -> f :: acc) table []
  |> List.sort (fun (a : Lint.finding) b ->
         compare (a.Lint.lint, a.Lint.rules) (b.Lint.lint, b.Lint.rules))

let footprint_target entry g =
  match entry.footprint with
  | Some f -> f g
  | None -> Footprint.of_finite (entry.instance g)

let has_rank entry =
  (* One rank per entry: the spec's rank_spec, which the model checker
     also evaluates as the instance's certificate. *)
  let g = Gen.complete (max 2 entry.min_n) in
  let module F = (val entry.instance g) in
  Option.is_some F.certificate
  || List.exists
       (fun (s : Sym.spec) -> Option.is_some s.Sym.sp_rank)
       (List.filter_map Fun.id [ entry.smt_spec; entry.comp_spec ])

let listing () =
  let b = Buffer.create 2048 in
  let mark v = if v then "yes" else "-" in
  Printf.bprintf b "%-16s %-10s %-7s %-4s %-4s %s\n" "NAME" "footprint"
    "sym-IR" "smt" "rank" "DESCRIPTION";
  List.iter
    (fun e ->
      Printf.bprintf b "%-16s %-10s %-7s %-4s %-4s %s\n" e.name
        (mark (Option.is_some e.footprint))
        (mark (Option.is_some e.sym))
        (mark (Option.is_some e.smt_spec || Option.is_some e.comp_spec))
        (mark (has_rank e)) e.description)
    (entries @ fixtures);
  Buffer.contents b

let obligations ?family entry =
  let base =
    match (entry.smt_spec, family) with
    | None, _ -> []
    | Some spec, None -> Obligation.compile_all ~algo:entry.name spec
    | Some spec, Some fam -> Obligation.compile ~algo:entry.name spec fam
  and composed =
    match (entry.comp_spec, family) with
    | None, _ -> []
    | Some spec, None ->
        Obligation.compile_composition_all ~algo:entry.name spec
    | Some spec, Some fam ->
        Obligation.compile_composition ~algo:entry.name spec fam
  in
  base @ composed

let run ?(mode = `Full) ?max_n ?max_views_per_process ?(footprint = true)
    ?(sym = true) ?(graphs = fun n -> Gen.all_connected n) ?options entry =
  let max_n =
    match max_n with
    | Some n -> n
    | None -> (
        match mode with
        | `Quick -> entry.max_n_quick
        | `Full -> entry.max_n_full)
  in
  let options =
    { (Option.value ~default:Model.default_options options) with
      Model.expect_silent = entry.expect_silent }
  in
  let lint_findings = ref [] in
  let lint_views = ref 0 in
  let models = ref [] in
  let footprints = ref [] in
  let sym_diffs = ref [] in
  for n = entry.min_n to max_n do
    List.iter
      (fun g ->
        let inst = entry.instance g in
        lint_findings :=
          Lint.run ?max_views_per_process inst @ !lint_findings;
        lint_views :=
          !lint_views + Lint.views_checked ?max_views_per_process inst;
        if footprint then
          footprints := Footprint.analyze (footprint_target entry g) :: !footprints;
        if sym then
          Option.iter
            (fun mk ->
              sym_diffs :=
                Sym.check ?max_views_per_process (mk g) :: !sym_diffs)
            entry.sym;
        let result = Model.check ~options inst in
        let bound = Option.map (fun f -> f n) entry.round_bound in
        let result =
          match (bound, result.Model.worst_rounds) with
          | Some b, Some w when w > b ->
              { result with
                Model.violations =
                  result.Model.violations
                  @ [ { Model.property = "round-bound";
                        detail =
                          Printf.sprintf
                            "exact worst case is %d rounds, above the \
                             paper's bound of %d"
                            w b } ] }
          | _ -> result
        in
        models := { Report.bound; result } :: !models)
      (graphs n)
  done;
  { Report.name = entry.name;
    description = entry.description;
    lint = merge_findings !lint_findings;
    lint_views = !lint_views;
    footprint =
      (match List.rev !footprints with
      | [] -> None
      | fps -> Some (Footprint.merge fps));
    sym =
      (match List.rev !sym_diffs with
      | [] -> None
      | ds -> Some (Sym.merge_diffs ds));
    obligations = obligations entry;
    models = List.rev !models }
