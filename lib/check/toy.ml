module Algorithm = Ssreset_sim.Algorithm
module Sdr = Ssreset_core.Sdr

let livelock graph =
  let flip =
    { Algorithm.rule_name = "T-flip";
      guard = (fun _ -> true);
      action = (fun v -> 1 - v.Algorithm.state) }
  in
  let algorithm =
    { Algorithm.name = "toy-livelock";
      rules = [ flip ];
      equal = Int.equal;
      pp = Fmt.int }
  in
  Finite.make ~name:"toy-livelock" ~algorithm ~graph
    ~domain:(fun _ -> [ 0; 1 ])
    ~legitimate:(fun _ cfg -> Array.for_all (fun s -> s = cfg.(0)) cfg)
    ()

let overlap graph =
  let up =
    { Algorithm.rule_name = "T-up";
      guard = (fun v -> v.Algorithm.state = 0);
      action = (fun _ -> 1) }
  and jump =
    { Algorithm.rule_name = "T-jump";
      guard = (fun v -> v.Algorithm.state = 0);
      action = (fun _ -> 2) }
  and noop =
    { Algorithm.rule_name = "T-noop";
      guard = (fun v -> v.Algorithm.state = 2);
      action = (fun _ -> 2) }
  in
  let algorithm =
    { Algorithm.name = "toy-overlap";
      rules = [ up; jump; noop ];
      equal = Int.equal;
      pp = Fmt.int }
  in
  Finite.make ~name:"toy-overlap" ~algorithm ~graph
    ~domain:(fun _ -> [ 0; 1; 2 ])
    ~legitimate:(fun _ cfg -> Array.for_all (fun s -> s = 1) cfg)
    ()

(* A composed-shaped algorithm whose single "input" rule writes the SDR
   distance variable alongside its own layer — exactly the non-interference
   breach Requirement 3 forbids.  Everything else is clean by design
   (guards gated by P_Clean, all configurations legitimate, each process
   pokes at most once), so only the footprint pass can flag it. *)

let interference_p_clean (v : int Sdr.state Algorithm.view) =
  Sdr.status_equal v.Algorithm.state.Sdr.st Sdr.C
  && Array.for_all (fun s -> Sdr.status_equal s.Sdr.st Sdr.C) v.Algorithm.nbrs

let interference_algorithm =
  let poke =
    { Algorithm.rule_name = "TI-poke";
      guard =
        (fun v -> interference_p_clean v && v.Algorithm.state.Sdr.inner = 0);
      action =
        (fun v ->
          { v.Algorithm.state with
            Sdr.d = v.Algorithm.state.Sdr.d + 1;
            inner = 1 }) }
  in
  { Algorithm.name = "toy-interference";
    rules = [ poke ];
    equal =
      (fun a b ->
        Sdr.status_equal a.Sdr.st b.Sdr.st
        && a.Sdr.d = b.Sdr.d
        && a.Sdr.inner = b.Sdr.inner);
    pp =
      (fun ppf s ->
        Fmt.pf ppf "%a/%d/%d" Sdr.pp_status s.Sdr.st s.Sdr.d s.Sdr.inner) }

let interference_domain _ =
  List.concat_map
    (fun d -> List.map (fun i -> { Sdr.st = Sdr.C; d; inner = i }) [ 0; 1 ])
    [ 0; 1 ]

let interference graph =
  Finite.make ~name:"toy-interference" ~algorithm:interference_algorithm
    ~graph ~domain:interference_domain
    ~legitimate:(fun _ _ -> true)
    ()

module Interference_input = struct
  type state = int

  let name = "toy-interference-input"
  let equal = Int.equal
  let pp = Fmt.int
  let p_icorrect _ = true
  let p_reset i = i = 0
  let reset _ = 0
  let rules = []
end

let interference_footprint graph =
  Footprint.sdr_target
    (module Interference_input)
    ~name:"toy-interference" ~algorithm:interference_algorithm ~graph
    ~domain:interference_domain

(* A correct, trivially convergent counter whose attached symbolic IR
   lies about the guard: the OCaml rule fires while state < 2, the IR
   claims state < 1.  Lint, footprint and every enumerated verdict are
   clean — only the Sym differential pass can catch the executable spec
   disagreeing with the executable rules. *)

let badsym_rule =
  { Algorithm.rule_name = "T-up";
    guard = (fun v -> v.Algorithm.state < 2);
    action = (fun v -> v.Algorithm.state + 1) }

let badsym_algorithm =
  { Algorithm.name = "toy-badsym";
    rules = [ badsym_rule ];
    equal = Int.equal;
    pp = Fmt.int }

let badsym_legitimate _ cfg = Array.for_all (fun s -> s = 2) cfg

let badsym graph =
  Finite.make ~name:"toy-badsym" ~algorithm:badsym_algorithm ~graph
    ~domain:(fun _ -> [ 0; 1; 2 ])
    ~legitimate:badsym_legitimate ()

let encode_counter c = [ ("c", Sym.VInt c) ]

let badsym_spec =
  Sym.spec_of_ir
    { Sym.ir_name = "toy-badsym";
      fields = [ ("c", Sym.TInt) ];
      params = [];
      ranges = [ ("c", Sym.Num 0, Sym.Num 3) ];
      rules =
        [ { Sym.rule = "T-up";
            guard = Sym.Lt (Sym.Var (Sym.Self, "c"), Sym.Num 1);
            assigns = [ ("c", Sym.Add (Sym.Var (Sym.Self, "c"), Sym.Num 1)) ]
          } ] }

let badsym_sym graph =
  Sym.make_instance ~spec:badsym_spec ~params:[]
    ~algorithm:badsym_algorithm ~graph
    ~domain:(fun _ -> [ 0; 1; 2 ])
    ~encode:encode_counter
    ~is_legitimate:(badsym_legitimate graph) ()

(* A correct, strictly decreasing counter whose symbolic IR is exact but
   whose attached rank_spec lies: the component max(c, 0)·[c > 1] claims
   a strict decrease for every T-down move, yet the 1 → 0 move keeps the
   tuple at [0] — a stutter that only the rank checks can flag: the
   ranking differential, the model checker's rank pass and, symbolically,
   the rank-decrease obligation.  Lint, footprint, the enumerated model
   verdicts and the guard/post differential are all clean by
   construction. *)

let badrank_rule =
  { Algorithm.rule_name = "T-down";
    guard = (fun v -> v.Algorithm.state > 0);
    action = (fun v -> v.Algorithm.state - 1) }

let badrank_algorithm =
  { Algorithm.name = "toy-badrank";
    rules = [ badrank_rule ];
    equal = Int.equal;
    pp = Fmt.int }

let badrank_legitimate _ cfg = Array.for_all (fun s -> s = 0) cfg

let badrank_rank =
  let c = Sym.Var (Sym.Self, "c") in
  { Sym.rk_name = "stutter";
    rk_rules = [ "T-down" ];
    rk_components = [ Sym.Ite (Sym.Lt (Sym.Num 1, c), c, Sym.Num 0) ] }

let badrank_spec =
  let c = Sym.Var (Sym.Self, "c") in
  { (Sym.spec_of_ir
       { Sym.ir_name = "toy-badrank";
         fields = [ ("c", Sym.TInt) ];
         params = [];
         ranges = [ ("c", Sym.Num 0, Sym.Num 4) ];
         rules =
           [ { Sym.rule = "T-down";
               guard = Sym.Lt (Sym.Num 0, c);
               assigns = [ ("c", Sym.Sub (c, Sym.Num 1)) ]
             } ] })
    with
    Sym.sp_rank = Some badrank_rank }

let badrank graph =
  Finite.make ~name:"toy-badrank" ~algorithm:badrank_algorithm ~graph
    ~domain:(fun _ -> [ 0; 1; 2; 3 ])
    ~legitimate:badrank_legitimate
    ~certificate:
      { Finite.rank = badrank_rank; params = []; encode = encode_counter }
    ()

let badrank_sym graph =
  Sym.make_instance ~spec:badrank_spec ~params:[]
    ~algorithm:badrank_algorithm ~graph
    ~domain:(fun _ -> [ 0; 1; 2; 3 ])
    ~encode:encode_counter
    ~is_legitimate:(badrank_legitimate graph) ()
