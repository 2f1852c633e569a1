(* Flat data-path engine: bitset unit tests, streaming-generator vs
   materialized-graph CSR equivalence, the flat-vs-classic differential
   (same movers, same counters, same final states, under every registered
   daemon) and partition-count invariance of the domain-parallel run. *)

open Helpers
module Bits = Ssreset_sim.Bits
module Flat = Ssreset_flat.Flat
module Progs = Ssreset_flat.Progs
module Csr = Ssreset_graph.Csr
module Sym = Ssreset_check.Sym
module Registry = Ssreset_check.Registry
module Prof = Ssreset_obs.Prof
module ObsMetrics = Ssreset_obs.Metrics

(* ------------------------------- bitset -------------------------------- *)

(* Random churn on a bitset of size [n] against a bool array, then every
   query against the array: [nth] at every index, [count_range] and
   [iter_range] on random ranges and on ranges that start or end inside a
   1024-node block and across blocks. *)
let nth_rejects where b i =
  match Bits.nth b i with
  | u -> Alcotest.failf "%s: nth %d returned %d" where i u
  | exception Invalid_argument _ -> ()

let bits_churn n =
  let b = Bits.create n in
  let r = Array.make n false in
  let count = ref 0 in
  let st = rng (42 + n) in
  (* Half the churn clusters in a window, so the blocks there fill up,
     and every block whose index is 1 mod 3 stays empty. *)
  let window = max 1 (n / 7) in
  for _ = 1 to 4 * n + 64 do
    let u =
      if Random.State.bool st then Random.State.int st n
      else Random.State.int st window
    in
    let u = if (u lsr 10) mod 3 = 1 then u land 1023 else u in
    if Random.State.int st 3 > 0 then begin
      let changed = Bits.add b u in
      check_bool "add changed" (not r.(u)) changed;
      if changed then incr count;
      r.(u) <- true
    end
    else begin
      let changed = Bits.remove b u in
      check_bool "remove changed" r.(u) changed;
      if changed then decr count;
      r.(u) <- false
    end
  done;
  let where what = Fmt.str "%s n=%d" what n in
  check_int (where "count_range full") !count (Bits.count_range b 0 n);
  for u = 0 to n - 1 do
    if Bits.mem b u <> r.(u) then Alcotest.failf "mem mismatch at %d" u
  done;
  let members = ref [] in
  Bits.iter b (fun u -> members := u :: !members);
  let want = List.filter (fun u -> r.(u)) (List.init n Fun.id) in
  check (Alcotest.list Alcotest.int) (where "iter ascending") want
    (List.rev !members);
  List.iteri
    (fun i u ->
      let got = Bits.nth b i in
      if got <> u then Alcotest.failf "nth %d n=%d: want %d, got %d" i n u got)
    want;
  (* prefix.(u) = members below u. *)
  let prefix = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    prefix.(u + 1) <- (prefix.(u) + if r.(u) then 1 else 0)
  done;
  let check_range lo hi =
    let want = if lo < hi then prefix.(hi) - prefix.(lo) else 0 in
    let got = Bits.count_range b lo hi in
    if got <> want then
      Alcotest.failf "count_range [%d, %d) n=%d: want %d, got %d" lo hi n
        want got
  in
  let st2 = rng (43 + n) in
  let pick_in lo hi = lo + Random.State.int st2 (max 1 (hi - lo)) in
  for _ = 1 to 200 do
    let lo = Random.State.int st2 n in
    let hi = lo + Random.State.int st2 (n - lo + 1) in
    check_range lo hi;
    (* Both ends inside one block, then ends in different blocks. *)
    let blk = lo land lnot 1023 in
    let lo' = pick_in blk (min n (blk + 1024)) in
    check_range lo' (pick_in lo' (min n (blk + 1024)) + 1);
    check_range lo' (min n (pick_in (blk + 1024) (blk + 3000)));
    let got = ref [] in
    Bits.iter_range b lo hi (fun u -> got := u :: !got);
    check (Alcotest.list Alcotest.int) (where "iter_range")
      (List.filter (fun u -> u >= lo && u < hi) want)
      (List.rev !got);
    let q = Random.State.int st2 n in
    let want_geq =
      match List.filter (fun u -> u >= q) want with [] -> -1 | u :: _ -> u
    in
    check_int (where "next_geq") want_geq (Bits.next_geq b q)
  done;
  (* Every block edge as a range end. *)
  let edges =
    List.filter
      (fun u -> u >= 0 && u <= n)
      (List.concat_map
         (fun e -> [ e - 1; e; e + 1 ])
         (List.init ((n / 1024) + 2) (fun k -> k * 1024)))
  in
  List.iter (fun lo -> List.iter (fun hi -> check_range lo hi) edges) edges;
  nth_rejects (where "i = count") b !count;
  nth_rejects (where "i < 0") b (-1)

let bits_reference_tests =
  [
    test "bits agrees with a reference bool array under random churn"
      (fun () ->
        List.iter bits_churn [ 1; 31; 32; 1023; 1024; 1025; 5000; 70000 ]);
    test "nth rejects every index of an empty set" (fun () ->
        List.iter
          (fun n ->
            let b = Bits.create n in
            List.iter (nth_rejects (Fmt.str "empty n=%d" n) b) [ -1; 0; 1 ];
            check_int "count_range empty" 0 (Bits.count_range b 0 n))
          [ 1; 1024; 70000 ]);
  ]

(* ------------------------ streaming CSR generators ---------------------- *)

let csr_equal name a b =
  check (Alcotest.array Alcotest.int)
    (name ^ " offsets")
    a.Csr.offsets b.Csr.offsets;
  check (Alcotest.array Alcotest.int) (name ^ " nbrs") a.Csr.nbrs b.Csr.nbrs

let csr_generator_tests =
  [
    test "streamed ring = CSR of materialized ring" (fun () ->
        List.iter
          (fun n ->
            csr_equal (Fmt.str "ring %d" n)
              (Csr.of_graph (Gen.ring n))
              (Csr.ring n))
          [ 3; 4; 5; 32; 101 ]);
    test "streamed torus = CSR of materialized torus" (fun () ->
        List.iter
          (fun (w, h) ->
            csr_equal
              (Fmt.str "torus %dx%d" w h)
              (Csr.of_graph (Gen.torus w h))
              (Csr.torus w h))
          [ (3, 3); (4, 5); (6, 3) ]);
    test "streamed random-regular-ish = CSR of materialized, same seed"
      (fun () ->
        List.iter
          (fun (seed, n, k) ->
            csr_equal
              (Fmt.str "rr n=%d k=%d seed=%d" n k seed)
              (Csr.of_graph (Gen.random_regular_ish (rng seed) n k))
              (Csr.random_regular_ish (rng seed) n k))
          [ (1, 16, 4); (2, 64, 4); (3, 200, 6); (9, 33, 3) ]);
    test "to_graph round-trips the zoo" (fun () ->
        List.iter
          (fun (name, g) ->
            let g' = Csr.to_graph (Csr.of_graph g) in
            check_int (name ^ " n") (Graph.n g) (Graph.n g');
            for u = 0 to Graph.n g - 1 do
              check (Alcotest.array Alcotest.int) (Fmt.str "%s nbrs %d" name u)
                (Graph.neighbors g u) (Graph.neighbors g' u)
            done)
          (graph_zoo ()));
  ]

(* ------------------------- flat vs classic engine ----------------------- *)

(* Instances whose IR is honest (fixtures excluded: toy-badsym's IR lies
   about the OCaml rules on purpose, so the flat compilation of its IR
   diverges from its classic run by design). *)
let sym_instances g =
  List.filter_map
    (fun (e : Registry.entry) ->
      Option.map (fun mk -> (e.Registry.name, mk g)) e.Registry.sym)
    Registry.entries
  @ [ ("unison-sdr-composed", Registry.unison_sdr_composed_sym g) ]

let value_list_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (f1, v1) (f2, v2) -> String.equal f1 f2 && Sym.value_equal v1 v2)
       a b

let outcome_str (o : Engine.outcome) =
  match o with
  | Engine.Stabilized -> "stabilized"
  | Engine.Terminal -> "terminal"
  | Engine.Step_limit -> "step-limit"

let counter p name =
  ObsMetrics.counter_value (ObsMetrics.counter (Prof.metrics p) name)

let sched_counters =
  [ "sched.touched"; "sched.evals"; "sched.dedup_hits"; "sched.table_flips" ]

(* The instrument schema a profile registers: its [phase.*] timers in
   registration order and its [moves.*] counters. *)
let prof_schema p =
  let keys path =
    match
      List.fold_left
        (fun j k -> Option.bind j (Ssreset_obs.Json.member k))
        (Some (Prof.summary_json p)) path
    with
    | Some (Ssreset_obs.Json.Obj kvs) -> List.map fst kvs
    | _ -> Alcotest.fail "profile summary lacks a section"
  in
  ( keys [ "phases" ],
    List.filter
      (fun k -> String.length k > 6 && String.sub k 0 6 = "moves.")
      (keys [ "metrics"; "counters" ]) )

let differential_one ~label inst daemon_name seed =
  let module I = (val inst : Sym.INSTANCE) in
  let g = I.graph in
  let n = Graph.n g in
  let seed_rng = rng (0x5EED + seed) in
  let cfg0 =
    Array.init n (fun u ->
        let d = I.domain u in
        List.nth d (Random.State.int seed_rng (List.length d)))
  in
  let prog =
    Flat.compile ~csr:(Csr.of_graph g) ~params:I.param_values I.spec
  in
  Array.iteri (fun u s -> Flat.load prog u (I.encode s)) cfg0;
  let daemon = Option.get (Daemon.by_name daemon_name) in
  let classic_moved = ref [] in
  let prof_c = Prof.create () in
  let res_c =
    Engine.run ~rng:(rng seed) ~max_steps:60 ~prof:prof_c ~algorithm:I.algorithm
      ~graph:g ~daemon
      ~observer:(fun ~step:_ ~moved _ -> classic_moved := moved :: !classic_moved)
      cfg0
  in
  let flat_moved = ref [] in
  let prof_f = Prof.create () in
  let res_f =
    Flat.run ~rng:(rng seed) ~max_steps:60 ~stop_on_legitimate:false
      ~prof:prof_f ~daemon
      ~on_step:(fun ~step:_ ~moved -> flat_moved := moved :: !flat_moved)
      prog
  in
  List.iter
    (fun name ->
      check_int (label ^ " " ^ name) (counter prof_c name)
        (counter prof_f name))
    sched_counters;
  (* One core, one schema: both evaluators' profiles register the same
     phase timers and per-rule move counters. *)
  let phases_c, moves_c = prof_schema prof_c
  and phases_f, moves_f = prof_schema prof_f in
  check (Alcotest.list Alcotest.string) (label ^ " phase timers") phases_c
    phases_f;
  check (Alcotest.list Alcotest.string) (label ^ " moves counters")
    (List.sort compare moves_c) (List.sort compare moves_f);
  check Alcotest.string (label ^ " outcome") (outcome_str res_c.Engine.outcome)
    (outcome_str res_f.Flat.outcome);
  check_int (label ^ " steps") res_c.Engine.steps res_f.Flat.steps;
  check_int (label ^ " moves") res_c.Engine.moves res_f.Flat.moves;
  check_int (label ^ " rounds") res_c.Engine.rounds res_f.Flat.rounds;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    (label ^ " moves_per_rule") res_c.Engine.moves_per_rule
    res_f.Flat.moves_per_rule;
  check (Alcotest.array Alcotest.int) (label ^ " moves_per_process")
    res_c.Engine.moves_per_process res_f.Flat.moves_per_process;
  check
    (Alcotest.list (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string)))
    (label ^ " per-step movers")
    (List.rev !classic_moved) (List.rev !flat_moved);
  Array.iteri
    (fun u s ->
      if not (value_list_equal (I.encode s) (Flat.read prog u)) then
        Alcotest.failf "%s: final state differs at process %d" label u)
    res_c.Engine.final;
  match I.is_legitimate with
  | Some legit ->
      check_bool
        (label ^ " legitimacy tracking")
        (legit res_c.Engine.final) res_f.Flat.legitimate
  | None -> ()

let differential_tests =
  [
    test "flat = classic on the zoo, every daemon, 20 seeds" (fun () ->
        List.iter
          (fun (gname, g) ->
            List.iter
              (fun (iname, inst) ->
                List.iter
                  (fun dname ->
                    for seed = 1 to 20 do
                      differential_one
                        ~label:(Fmt.str "%s/%s/%s/#%d" gname iname dname seed)
                        inst dname seed
                    done)
                  Daemon.names)
              (sym_instances g))
          (graph_zoo ()));
  ]

(* ------------------------- partition invariance ------------------------- *)

let scale_prog ?(n = 8192) ?(faults = 40) ?(seed = 77) () =
  let e = Option.get (Progs.find "unison-sdr") in
  let p = Progs.build e (Csr.ring n) in
  Progs.init_ground p;
  Progs.perturb p ~rng:(rng seed) faults;
  p

let partition_tests =
  [
    test "partitioned run is invariant in the partition count" (fun () ->
        let reference = ref None in
        List.iter
          (fun parts ->
            let p = scale_prog () in
            let r = Flat.run_partitioned ~parts p in
            check Alcotest.string
              (Fmt.str "outcome parts=%d" parts)
              "stabilized" (outcome_str r.Flat.outcome);
            let summary =
              ( Progs.digest p r,
                r.Flat.moves_per_rule,
                Array.to_list r.Flat.moves_per_process )
            in
            match !reference with
            | None -> reference := Some summary
            | Some s ->
                let d0, mr0, mp0 = s and d1, mr1, mp1 = summary in
                check Alcotest.string (Fmt.str "digest parts=%d" parts) d0 d1;
                check
                  (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
                  (Fmt.str "rules parts=%d" parts)
                  mr0 mr1;
                check (Alcotest.list Alcotest.int)
                  (Fmt.str "per-process parts=%d" parts)
                  mp0 mp1)
          [ 1; 2; 4; 8 ]);
    test "partitioned = sequential synchronous" (fun () ->
        let p_seq = scale_prog () in
        let prof_seq = Prof.create () in
        let r_seq = Flat.run ~prof:prof_seq ~daemon:Flat.Synchronous p_seq in
        List.iter
          (fun parts ->
            let p_par = scale_prog () in
            let prof_par = Prof.create () in
            let r_par = Flat.run_partitioned ~prof:prof_par ~parts p_par in
            let label what = Fmt.str "%s parts=%d" what parts in
            check Alcotest.string (label "digest") (Progs.digest p_seq r_seq)
              (Progs.digest p_par r_par);
            check_int (label "rounds") r_seq.Flat.rounds r_par.Flat.rounds;
            (* A boundary neighbor is handed to the sequential replay instead
               of touched by its mover's domain, and re-evaluated there only
               if no domain already did. *)
            check_int (label "evals = evals + replays")
              (counter prof_seq "sched.evals")
              (counter prof_par "sched.evals"
              + counter prof_par "flat.frontier_replays");
            check_int (label "touched = touched + handoffs")
              (counter prof_seq "sched.touched")
              (counter prof_par "sched.touched"
              + counter prof_par "flat.frontier_handoffs");
            (* Each node is evaluated at most once per step, and the same
               nodes as sequentially, so the rule changes agree exactly. *)
            check_int (label "table_flips")
              (counter prof_seq "sched.table_flips")
              (counter prof_par "sched.table_flips"))
          [ 1; 2; 4 ]);
    test "tiny graphs tolerate more parts than alignment blocks" (fun () ->
        List.iter
          (fun parts ->
            let p = scale_prog ~n:100 ~faults:7 () in
            let r = Flat.run_partitioned ~parts p in
            check Alcotest.string
              (Fmt.str "outcome n=100 parts=%d" parts)
              "stabilized" (outcome_str r.Flat.outcome))
          [ 1; 2; 4 ]);
  ]

(* ----------------------- composed IR stays honest ----------------------- *)

let composed_ir_tests =
  [
    test "composed U-SDR IR passes the symbolic differential" (fun () ->
        List.iter
          (fun g ->
            let diff =
              Sym.check ~max_views_per_process:400 ~max_steps:150
                (Registry.unison_sdr_composed_sym g)
            in
            if not (Sym.diff_ok diff) then
              Alcotest.failf "composed IR mismatch: %a"
                Fmt.(list ~sep:(any "; ") Sym.pp_mismatch)
                diff.Sym.mismatches)
          [ Gen.ring 5; Gen.path 4; Gen.star 4 ]);
  ]

(* ---------------------------- quantifier memo --------------------------- *)

(* The probe's quantifier [ahead] (some neighbor's x is above self's)
   occurs in both guards, in chase's assignment and in legitimacy, so the
   compiler shares one memoized closure among all four.  Evaluated afresh,
   chase always writes x + 1; a memo that outlives one evaluation shows up
   as a wrong enabled rule or a wrong post. *)
let probe_spec =
  let x_s = Sym.Var (Sym.Self, "x") and x_b = Sym.Var (Sym.Nbr, "x") in
  let ahead = Sym.Exists_nbr (Sym.Lt (x_s, x_b)) in
  {
    (Sym.spec_of_ir
       {
         Sym.ir_name = "memo-probe";
         fields = [ ("x", Sym.TInt) ];
         params = [];
         ranges = [ ("x", Sym.Num 0, Sym.Num 4) ];
         rules =
           [
             {
               Sym.rule = "chase";
               guard = ahead;
               assigns =
                 [
                   ( "x",
                     Sym.Ite (ahead, Sym.Add (x_s, Sym.Num 1), Sym.Num 0) );
                 ];
             };
             {
               Sym.rule = "drop";
               guard = Sym.And [ Sym.Not ahead; Sym.Lt (Sym.Num 0, x_s) ];
               assigns = [ ("x", Sym.Sub (x_s, Sym.Num 1)) ];
             };
           ];
       })
    with
    Sym.sp_legitimate = Some (Sym.Not ahead);
  }

(* [spec] with every quantifier occurrence made structurally distinct
   (the k-th one's body gets k [Const true] conjuncts), so the compiler
   shares and memoizes nothing. *)
let unshare (spec : Sym.spec) =
  let k = ref 0 in
  let rec term (t : Sym.term) : Sym.term =
    match t with
    | Sym.Num _ | Sym.Bool _ | Sym.Param _ | Sym.Var _ | Sym.Ctor _ -> t
    | Sym.Add (a, b) -> Sym.Add (term a, term b)
    | Sym.Sub (a, b) -> Sym.Sub (term a, term b)
    | Sym.Neg a -> Sym.Neg (term a)
    | Sym.Ite (c, a, b) -> Sym.Ite (form c, term a, term b)
    | Sym.Min_nbr (c, a, b) -> Sym.Min_nbr (form c, term a, term b)
    | Sym.Mex_nbr (c, a) -> Sym.Mex_nbr (form c, term a)
    | Sym.Count_nbr c -> Sym.Count_nbr (form c)
  and form (f : Sym.form) : Sym.form =
    match f with
    | Sym.Const _ -> f
    | Sym.Not g -> Sym.Not (form g)
    | Sym.And gs -> Sym.And (List.map form gs)
    | Sym.Or gs -> Sym.Or (List.map form gs)
    | Sym.Imp (a, b) -> Sym.Imp (form a, form b)
    | Sym.Eq (a, b) -> Sym.Eq (term a, term b)
    | Sym.Le (a, b) -> Sym.Le (term a, term b)
    | Sym.Lt (a, b) -> Sym.Lt (term a, term b)
    | Sym.Forall_nbr body -> Sym.Forall_nbr (distinct body)
    | Sym.Exists_nbr body -> Sym.Exists_nbr (distinct body)
  and distinct body =
    incr k;
    let pad = List.init !k (fun _ -> Sym.Const true) in
    Sym.And (form body :: pad)
  in
  let ir = spec.Sym.sp_ir in
  let rule (r : Sym.rule) =
    {
      r with
      Sym.guard = form r.Sym.guard;
      assigns = List.map (fun (f, t) -> (f, term t)) r.Sym.assigns;
    }
  in
  {
    spec with
    Sym.sp_ir = { ir with Sym.rules = List.map rule ir.Sym.rules };
    sp_legitimate = Option.map form spec.Sym.sp_legitimate;
  }

(* The probe on a two-node path loaded with [xs], run for [steps] steps;
   returns the per-step movers and the final x values. *)
let probe_pair xs daemon steps =
  let csr = Csr.make ~n:2 ~offsets:[| 0; 1; 2 |] ~nbrs:[| 1; 0 |] in
  let p = Flat.compile ~csr ~params:[] probe_spec in
  Array.iteri (fun u x -> Flat.load p u [ ("x", Sym.VInt x) ]) xs;
  let moved = ref [] in
  ignore
    (Flat.run ~max_steps:steps ~stop_on_legitimate:false ~daemon
       ~on_step:(fun ~step:_ ~moved:m -> moved := m :: !moved)
       p);
  let x u =
    match Flat.read p u with
    | [ ("x", Sym.VInt x) ] -> x
    | _ -> Alcotest.fail "probe state"
  in
  (List.rev !moved, [ x 0; x 1 ])

let check_movers =
  check Alcotest.(list (list (pair int string)))

(* Memoized vs unshared compilation of [spec] from the same random
   configuration: same per-step movers, same digest, same legitimacy. *)
let memo_differential ~label spec params g daemon_name seed =
  let csr = Csr.of_graph g in
  let go spec =
    let p = Flat.compile ~csr ~params:(params (Csr.n csr)) spec in
    Progs.init_random p ~rng:(rng (0x5EED + seed));
    let moved = ref [] in
    let r =
      Flat.run ~rng:(rng seed) ~max_steps:80 ~stop_on_legitimate:false
        ~daemon:(Option.get (Daemon.by_name daemon_name))
        ~on_step:(fun ~step:_ ~moved:m -> moved := m :: !moved)
        p
    in
    (List.rev !moved, Progs.digest p r, r.Flat.legitimate)
  in
  let m_memo, d_memo, l_memo = go spec
  and m_plain, d_plain, l_plain = go (unshare spec) in
  check_movers (label ^ " per-step movers") m_plain m_memo;
  check Alcotest.string (label ^ " digest") d_plain d_memo;
  check_bool (label ^ " legitimate") l_plain l_memo

let memo_tests =
  [
    test "a node refreshed right after its own move is evaluated afresh"
      (fun () ->
        (* x = [1; 0]: node 1 chases and is the last node scanned, and
           central-last picks it.  Its move makes x = [1; 1], and its
           refresh, the very next evaluation, must see that nobody is
           ahead any more: drop, not chase. *)
        let moved, xs = probe_pair [| 1; 0 |] Flat.Central_last 2 in
        check_movers "movers" [ [ (1, "chase") ]; [ (1, "drop") ] ] moved;
        check (Alcotest.list Alcotest.int) "final x" [ 1; 0 ] xs);
    test "a post is computed afresh, not from the last node scanned"
      (fun () ->
        (* x = [0; 1]: node 1, scanned last, has nobody ahead; node 0,
           picked by central-first, has.  Its post must read its own
           [ahead]: x0 = 0 + 1. *)
        let moved, xs = probe_pair [| 0; 1 |] Flat.Central_first 1 in
        check_movers "movers" [ [ (0, "chase") ] ] moved;
        check (Alcotest.list Alcotest.int) "final x" [ 1; 1 ] xs);
    test "memoized = unshared compilation, every daemon, 5 seeds" (fun () ->
        let specs =
          [
            ("memo-probe", probe_spec, fun _ -> []);
            ( "unison-sdr-composed",
              Registry.unison_sdr_composed_spec,
              Registry.unison_sdr_params_of_n );
          ]
        in
        List.iter
          (fun (gname, g) ->
            List.iter
              (fun (sname, spec, params) ->
                List.iter
                  (fun dname ->
                    for seed = 1 to 5 do
                      memo_differential
                        ~label:(Fmt.str "%s/%s/%s/#%d" gname sname dname seed)
                        spec params g dname seed
                    done)
                  Daemon.names)
              specs)
          (graph_zoo ()));
  ]

(* ----------------------- observability transparency --------------------- *)

module Monitor = Ssreset_obs.Monitor

(* Run the same instance from the same configuration twice — bare, then
   with a profiler attached — and require bit-identity: every counter and
   the final state checksum.  Then cross-check the profiler against the
   run: step/move tallies and the per-rule moves.R counters must equal the
   result's totals. *)
let prof_transparent_one ~label inst daemon_name seed =
  let module I = (val inst : Sym.INSTANCE) in
  let g = I.graph in
  let n = Graph.n g in
  let seed_rng = rng (0x5EED + seed) in
  let cfg0 =
    Array.init n (fun u ->
        let d = I.domain u in
        List.nth d (Random.State.int seed_rng (List.length d)))
  in
  let make () =
    let prog =
      Flat.compile ~csr:(Csr.of_graph g) ~params:I.param_values I.spec
    in
    Array.iteri (fun u s -> Flat.load prog u (I.encode s)) cfg0;
    prog
  in
  let daemon = Option.get (Daemon.by_name daemon_name) in
  let p_bare = make () in
  let r_bare =
    Flat.run ~rng:(rng seed) ~max_steps:60 ~stop_on_legitimate:false ~daemon
      p_bare
  in
  let p_prof = make () in
  let prof = Prof.create () in
  let r_prof =
    Flat.run ~rng:(rng seed) ~max_steps:60 ~stop_on_legitimate:false ~prof
      ~daemon p_prof
  in
  check Alcotest.string (label ^ " outcome") (outcome_str r_bare.Flat.outcome)
    (outcome_str r_prof.Flat.outcome);
  check_int (label ^ " steps") r_bare.Flat.steps r_prof.Flat.steps;
  check_int (label ^ " moves") r_bare.Flat.moves r_prof.Flat.moves;
  check_int (label ^ " rounds") r_bare.Flat.rounds r_prof.Flat.rounds;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    (label ^ " moves_per_rule") r_bare.Flat.moves_per_rule
    r_prof.Flat.moves_per_rule;
  check (Alcotest.array Alcotest.int)
    (label ^ " moves_per_process")
    r_bare.Flat.moves_per_process r_prof.Flat.moves_per_process;
  check_int (label ^ " checksum") (Flat.checksum p_bare)
    (Flat.checksum p_prof);
  check_int (label ^ " prof steps") r_prof.Flat.steps (Prof.steps prof);
  check_int (label ^ " prof moves") r_prof.Flat.moves (Prof.moves prof);
  let m = Prof.metrics prof in
  List.iter
    (fun (rule, count) ->
      check_int
        (label ^ " moves." ^ rule)
        count
        (ObsMetrics.counter_value (ObsMetrics.counter m ("moves." ^ rule))))
    r_prof.Flat.moves_per_rule

let observability_tests =
  [
    test "prof-on = prof-off on the zoo, every daemon, 5 seeds" (fun () ->
        List.iter
          (fun (gname, g) ->
            List.iter
              (fun (iname, inst) ->
                List.iter
                  (fun dname ->
                    for seed = 1 to 5 do
                      prof_transparent_one
                        ~label:(Fmt.str "%s/%s/%s/#%d" gname iname dname seed)
                        inst dname seed
                    done)
                  Daemon.names)
              (sym_instances g))
          (graph_zoo ()));
    test "partitioned prof-on digest invariant, parts in {1,2,4,8}" (fun () ->
        let p_ref = scale_prog () in
        let r_ref = Flat.run_partitioned ~parts:2 p_ref in
        let d_ref = Progs.digest p_ref r_ref in
        List.iter
          (fun parts ->
            let p = scale_prog () in
            let prof = Prof.create () in
            let r = Flat.run_partitioned ~prof ~parts p in
            check Alcotest.string
              (Fmt.str "digest parts=%d prof-on" parts)
              d_ref (Progs.digest p r);
            check_int
              (Fmt.str "prof steps parts=%d" parts)
              r.Flat.steps (Prof.steps prof);
            check_int
              (Fmt.str "prof moves parts=%d" parts)
              r.Flat.moves (Prof.moves prof);
            let m = Prof.metrics prof in
            List.iter
              (fun (rule, count) ->
                check_int
                  (Fmt.str "moves.%s parts=%d" rule parts)
                  count
                  (ObsMetrics.counter_value
                     (ObsMetrics.counter m ("moves." ^ rule))))
              r.Flat.moves_per_rule;
            check
              (Alcotest.float 0.001)
              (Fmt.str "flat.parts gauge parts=%d" parts)
              (float_of_int parts)
              (ObsMetrics.gauge_value (ObsMetrics.gauge m "flat.parts")))
          [ 1; 2; 4; 8 ]);
    test "monitor latches the move and round bounds once" (fun () ->
        let p = scale_prog ~n:1024 ~faults:30 () in
        let monitor = Monitor.create () in
        let r =
          Flat.run ~daemon:Flat.Synchronous ~monitor ~moves_bound:1
            ~rounds_bound:1 p
        in
        check_true "run made enough moves to trip" (r.Flat.moves > 1);
        check_int "both bounds latched exactly once" 2
          (Monitor.anomaly_count monitor);
        let names =
          List.sort compare
            (List.map
               (fun (a : Monitor.anomaly) -> a.Monitor.monitor)
               (Monitor.anomalies monitor))
        in
        check
          (Alcotest.list Alcotest.string)
          "anomaly names" [ "moves-bound"; "rounds-bound" ] names;
        (* Results are unchanged by monitoring. *)
        let p2 = scale_prog ~n:1024 ~faults:30 () in
        let r2 = Flat.run ~daemon:Flat.Synchronous p2 in
        check Alcotest.string "digest unchanged by monitors"
          (Progs.digest p2 r2) (Progs.digest p r));
    test "heartbeat fires every interval with live counters" (fun () ->
        let p = scale_prog ~n:1024 ~faults:30 () in
        let beats = ref [] in
        let r =
          Flat.run ~daemon:Flat.Synchronous
            ~heartbeat:(2, fun b -> beats := b :: !beats)
            p
        in
        let beats = List.rev !beats in
        check_int "one beat per 2 steps" (r.Flat.steps / 2)
          (List.length beats);
        List.iteri
          (fun i (b : Flat.beat) ->
            check_int (Fmt.str "beat %d step" i) (2 * (i + 1)) b.Flat.hb_steps;
            check_true
              (Fmt.str "beat %d moves monotone" i)
              (b.Flat.hb_moves > 0 && b.Flat.hb_moves <= r.Flat.moves);
            check_true
              (Fmt.str "beat %d legit tracked" i)
              (b.Flat.hb_legit >= 0 && b.Flat.hb_legit <= 1024);
            check_true
              (Fmt.str "beat %d availability in range" i)
              (b.Flat.hb_availability >= 0. && b.Flat.hb_availability <= 1.))
          beats;
        (* heartbeat leaves the run unchanged *)
        let p2 = scale_prog ~n:1024 ~faults:30 () in
        let r2 = Flat.run ~daemon:Flat.Synchronous p2 in
        check Alcotest.string "digest unchanged by heartbeat"
          (Progs.digest p2 r2) (Progs.digest p r));
    test "a non-positive heartbeat interval is rejected" (fun () ->
        List.iter
          (fun every ->
            let p = scale_prog ~n:1024 ~faults:30 () in
            check_true
              (Fmt.str "sequential heartbeat %d raises" every)
              (match
                 Flat.run ~daemon:Flat.Synchronous
                   ~heartbeat:(every, fun _ -> ())
                   p
               with
              | exception Invalid_argument _ -> true
              | _ -> false);
            check_true
              (Fmt.str "partitioned heartbeat %d raises" every)
              (match
                 Flat.run_partitioned ~parts:2
                   ~heartbeat:(every, fun _ -> ())
                   p
               with
              | exception Invalid_argument _ -> true
              | _ -> false))
          [ 0; -5 ]);
    test "partitioned heartbeat and monitors leave the run unchanged"
      (fun () ->
        let p = scale_prog ~n:2048 ~faults:40 () in
        let monitor = Monitor.create () in
        let beats = ref 0 in
        let r =
          Flat.run_partitioned ~parts:4 ~monitor ~moves_bound:1
            ~heartbeat:(3, fun _ -> incr beats)
            p
        in
        check_int "beats" (r.Flat.steps / 3) !beats;
        check_int "moves bound latched" 1 (Monitor.anomaly_count monitor);
        let p2 = scale_prog ~n:2048 ~faults:40 () in
        let r2 = Flat.run_partitioned ~parts:4 p2 in
        check Alcotest.string "digest unchanged" (Progs.digest p2 r2)
          (Progs.digest p r));
  ]

(* ----------------------------- scale smoke ------------------------------ *)

let scale_tests =
  [
    test "streamed ring n=20000 stabilizes from 50 faults" (fun () ->
        let p = scale_prog ~n:20_000 ~faults:50 ~seed:5 () in
        let r = Flat.run ~daemon:Flat.Synchronous p in
        check Alcotest.string "outcome" "stabilized"
          (outcome_str r.Flat.outcome);
        check_true "made progress" (r.Flat.moves > 0));
  ]

let () =
  Alcotest.run "flat"
    [
      ("bits", bits_reference_tests);
      ("csr-generators", csr_generator_tests);
      ("differential", differential_tests);
      ("partitioned", partition_tests);
      ("observability", observability_tests);
      ("composed-ir", composed_ir_tests);
      ("memo", memo_tests);
      ("scale", scale_tests);
    ]
