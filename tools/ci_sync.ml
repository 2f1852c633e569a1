(* ci_sync — keeps .github/workflows/ci.yml honest.

   `dune runtest` cannot execute the hosted pipeline, but it can pin the
   pipeline's contract: this golden test greps the workflow for the exact
   commands the repo's guarantees rest on, so nobody can silently drop the
   build+test step, the model-checking gate or the bench gate from CI
   without this test going red in the same change. *)

let required =
  [ ("tier-1 build and test", "dune build && dune runtest");
    ("model-checking gate", "check --quick");
    ( "symmetry-reduced exhaustive check",
      "check tail-unison --symmetry --family complete --max-n 6" );
    ("quick bench", "--quick");
    ("bench regression gate", "bench_gate");
    ("trace schema validation", "--check-trace");
    ("trace summary smoke", "trace summary");
    ("profiled run", "--prof-out");
    ("profile schema validation", "--check-prof");
    ("profile attribution check", "prof report --check");
    ("profile window smoke", "prof windows");
    ("wave reconstruction check", "trace waves --check");
    ("happens-before check", "trace critical-path --check");
    ("smt obligation emission", "smt emit -o smoke-smt");
    ("smt manifest validation", "--check-smt smoke-smt/manifest.json");
    ("smt well-formedness lint", "smt lint");
    ("conditional smt solving", "smt solve");
    ("trace artifacts on failure", "if: failure()");
    ("OCaml 5.1 in the matrix", "5.1");
    ("OCaml 5.2 in the matrix", "5.2");
    ("OCaml 5.3 in the matrix", "5.3");
    ("opam switch cache keyed on dune-project",
     "opam-${{ runner.os }}-${{ matrix.ocaml-compiler }}-${{ \
      hashFiles('dune-project') }}");
    ( "flat scale smoke, sequential",
      "run unison --engine flat -g ring -n 100000 --perturb 5000 -d \
       synchronous --parts 1 --digest" );
    ( "flat scale smoke, partitioned",
      "run unison --engine flat -g ring -n 100000 --perturb 5000 -d \
       synchronous --parts 2 --digest" );
    ( "partitioned digest byte-comparison",
      "cmp smoke-scale-p1.txt smoke-scale-p2.txt" );
    ( "scale digest against the committed golden",
      "cmp smoke-scale-p1.txt bin/cli-flat-scale.expected" );
    ( "flat scale smoke, observability attached",
      "--parts 2 --prof-out smoke-scale-prof.jsonl --prof-window 50 \
       --monitors --heartbeat 100 --digest" );
    ( "observability digest byte-comparison",
      "cmp smoke-scale-p1.txt smoke-scale-obs.txt" );
    ( "scale profile schema validation",
      "--check-prof smoke-scale-prof.jsonl" );
    ( "scale profile attribution check",
      "prof report --check smoke-scale-prof.jsonl" );
    ("pinned z3 install", "apt-get install -y --no-install-recommends z3=");
    ("ring obligations solved", "smt solve --family ring");
    ("unsat transcript artifact", "smt-ring-transcript.txt");
    ( "ranking + composition obligations solved",
      "smt solve --family ring --kind rank,composition --name \
       rank-decrease --timeout 120" );
    ("ranking transcript artifact", "smt-rank-transcript.txt");
    ("tail-unison ranking proved", "rank-decrease.TU-climb");
    ("composition ranking proved", "comp.rank-decrease.SDR-RF") ]

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ ->
        prerr_endline "usage: ci_sync.exe PATH/TO/ci.yml";
        exit 2
  in
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let missing =
    List.filter
      (fun (_, needle) -> not (Ssreset_check.Registry.contains ~needle body))
      required
  in
  List.iter
    (fun (what, needle) ->
      Printf.printf "FAIL  %s: %S not found in %s\n" what needle path)
    missing;
  if missing = [] then Printf.printf "ci.yml contract intact (%s)\n" path
  else exit 1
