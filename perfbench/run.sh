#!/usr/bin/env bash
# Build the benchmark program and the CLI from source, then run one
# workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to $CARGO_TARGET_DIR
# (default .bench_build), run output to .bench_out; both are git-ignored.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

build_dir="${CARGO_TARGET_DIR:-.bench_build}"
dune build --root . --build-dir "$build_dir" \
  ./perfbench/main.exe ./bin/ssreset_cli.exe 1>&2

exec "$build_dir/default/perfbench/main.exe" \
  --cli "$build_dir/default/bin/ssreset_cli.exe" \
  --expected perfbench/expected.txt \
  --out-dir .bench_out \
  "$@"
