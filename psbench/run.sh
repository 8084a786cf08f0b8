#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   sh psbench/run.sh --workload serve-steady --seed 1 --seconds 10 --trace 0
# Run from the repository root.  Build output goes to stderr so the last
# line of stdout stays the benchmark's JSON result.
set -u
cd "$(dirname "$0")/.." || exit 2
build_dir="${CARGO_TARGET_DIR:-_build}"
# Keep every build artefact inside the checkout: no shared dune cache,
# and the compilers' temporary files under the build directory.
export DUNE_CACHE=disabled
mkdir -p "$build_dir/tmp" || exit 2
TMPDIR="$(cd "$build_dir/tmp" && pwd)" || exit 2
export TMPDIR
dune build --root . --build-dir "$build_dir" ./psbench/main.exe 1>&2 || exit 2
exec "$build_dir/default/psbench/main.exe" "$@"
