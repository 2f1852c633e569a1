(* Shared helpers for the test suites. *)

module Graph = Ssreset_graph.Graph
module Gen = Ssreset_graph.Gen
module Metrics = Ssreset_graph.Metrics
module Algorithm = Ssreset_sim.Algorithm
module Daemon = Ssreset_sim.Daemon
module Engine = Ssreset_sim.Engine
module Fault = Ssreset_sim.Fault
module Trace = Ssreset_sim.Trace
module Sdr = Ssreset_core.Sdr

let rng seed = Random.State.make [| seed |]

let check = Alcotest.check
let check_int msg = check Alcotest.int msg
let check_bool msg = check Alcotest.bool msg
let check_true msg b = check_bool msg true b
let check_false msg b = check_bool msg false b

let test name f = Alcotest.test_case name `Quick f

(* A small deterministic zoo of connected graphs exercising extreme shapes. *)
let graph_zoo () =
  [ ("ring9", Gen.ring 9);
    ("path7", Gen.path 7);
    ("star8", Gen.star 8);
    ("complete6", Gen.complete 6);
    ("grid3x4", Gen.grid 3 4);
    ("lollipop", Gen.lollipop 4 4);
    ("er12", Gen.erdos_renyi (rng 12) 12 0.25);
    ("tree10", Gen.random_tree (rng 10) 10) ]

(* Exhaustive daemon list (fresh round-robin cursor per call). *)
let daemons () = Daemon.all_standard ()

(* Run [algorithm] from [cfg] and return the result. *)
let run ?(seed = 1) ?(max_steps = 5_000_000) ?stop ~algorithm ~graph ~daemon
    cfg =
  Engine.run ~rng:(rng seed) ~max_steps ?stop ~algorithm ~graph ~daemon cfg

(* Check a step-closure property on a recorded trace: [prop u view] must be
   preserved by every step for every process. *)
let closed_along_trace ~graph ~prop trace =
  List.for_all
    (fun (before, after, _moved) ->
      let n = Graph.n graph in
      let rec ok u =
        u >= n
        || (((not (prop u (Algorithm.view graph before u)))
            || prop u (Algorithm.view graph after u))
           && ok (u + 1))
      in
      ok 0)
    (Trace.steps_pairs trace)

(* Sequence membership in the SDR per-segment language of Theorem 4:
   (C + ε)(RB + R + ε)(RF + ε), ignoring non-SDR rules (Corollary 3 allows
   arbitrary input-rule words between C and the broadcast rules). *)
let segment_language_ok names =
  let sdr_only =
    List.filter
      (fun name ->
        String.length name >= 4 && String.equal (String.sub name 0 4) "SDR-")
      names
  in
  match sdr_only with
  | [] | [ _ ] -> (
      match sdr_only with
      | [ x ] -> List.mem x [ "SDR-C"; "SDR-RB"; "SDR-R"; "SDR-RF" ]
      | _ -> true)
  | [ a; b ] ->
      (String.equal a "SDR-C" && List.mem b [ "SDR-RB"; "SDR-R"; "SDR-RF" ])
      || (List.mem a [ "SDR-RB"; "SDR-R" ] && String.equal b "SDR-RF")
  | [ a; b; c ] ->
      String.equal a "SDR-C"
      && List.mem b [ "SDR-RB"; "SDR-R" ]
      && String.equal c "SDR-RF"
  | _ -> false

let processes_where graph cfg p =
  List.filter
    (fun u -> p (Algorithm.view graph cfg u))
    (List.init (Graph.n graph) Fun.id)

(* Differential observer for the runner's incremental stop, a tracker of
   the processes where [legit] fails.  After every step, the lazy form the
   runner uses ([mark], then [exists]) must find an illegitimate process iff
   the whole-configuration predicate [legitimate] fails, and an eagerly
   updated twin must hold at exactly the processes a full recomputation
   finds, with the matching count.  Fails the test at the first step where
   either disagrees. *)
let illegitimacy_observer ~label ~graph ~legit ~legitimate cfg0 =
  let illegit v = not (legit v) in
  let lazy_t = Algorithm.Tracker.create graph illegit cfg0 in
  let eager = Algorithm.Tracker.create graph illegit cfg0 in
  let agree step cfg =
    let expected = processes_where graph cfg illegit in
    if
      Algorithm.Tracker.members eager <> expected
      || Algorithm.Tracker.count eager <> List.length expected
    then Alcotest.failf "%s, step %d: illegitimate set differs" label step;
    if Algorithm.Tracker.exists lazy_t cfg = legitimate cfg then
      Alcotest.failf "%s, step %d: the stop condition disagrees with the \
                      predicate" label step
  in
  agree (-1) cfg0;
  fun ~step ~moved cfg ->
    Algorithm.Tracker.mark lazy_t ~moved;
    Algorithm.Tracker.update eager ~moved cfg;
    agree step cfg

(* Differential observer for {!Sdr.S.Segments}: after every step its alive
   roots, count, segment count and Remark 4 flag must equal the list-based
   definitions recomputed from [alive_roots] — a segment starts when the
   alive-root count drops, and the history is monotone while each set is a
   subset of the previous one. *)
let segments_observer (type i) (module C : Sdr.S with type inner = i) ~label
    ~graph cfg0 =
  let seg = C.Segments.create graph cfg0 in
  let roots = ref (C.alive_roots graph cfg0) in
  let segments = ref 1 and monotone = ref true in
  let agree step cfg =
    if
      C.Segments.alive seg <> !roots
      || C.Segments.alive_count seg <> C.count_alive_roots graph cfg
    then Alcotest.failf "%s, step %d: alive roots differ" label step;
    if C.Segments.count seg <> !segments then
      Alcotest.failf "%s, step %d: %d segments, expected %d" label step
        (C.Segments.count seg) !segments;
    if C.Segments.monotone seg <> !monotone then
      Alcotest.failf "%s, step %d: Remark 4 flag differs" label step
  in
  agree (-1) cfg0;
  fun ~step ~moved cfg ->
    C.Segments.observer seg ~step ~moved cfg;
    let now = C.alive_roots graph cfg in
    if List.compare_lengths now !roots < 0 then incr segments;
    monotone := !monotone && List.for_all (fun u -> List.mem u !roots) now;
    roots := now;
    agree step cfg

(* Run [algorithm] from [cfg] under every registered daemon and [seeds],
   stopping at the full predicate [stop], with [observer cfg] attached:
   the loop shared by the tracker differential tests. *)
let differential_runs ~graph ~seeds ~max_steps ~algorithm ~stop ~init
    ~observer =
  List.iter
    (fun (dname, daemon) ->
      List.iter
        (fun seed ->
          let cfg = init seed in
          ignore
            (Engine.run ~rng:(rng (seed + 1000)) ~max_steps ~stop
               ~observer:(observer (Printf.sprintf "%s/seed %d" dname seed) cfg)
               ~algorithm ~graph ~daemon cfg))
        seeds)
    (Daemon.registry ())
