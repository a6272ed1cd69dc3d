#!/usr/bin/env bash
# Build the rota binary and the benchmark program from source, then run
# the benchmark from the repository root:
#
#   bash rotabench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's last stdout line is the
# result as JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/main.ml ]; then
  echo "rotabench: not in a checkout of the repository (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bin/main.exe ./rotabench/main.exe 1>&2
exec ./_build/default/rotabench/main.exe "$@" --rota ./_build/default/bin/main.exe
