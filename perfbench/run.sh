#!/usr/bin/env bash
# Builds the bisched CLI and the benchmark harness from this checkout, then
# runs one workload and prints its JSON result as the last stdout line:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build tree is $CARGO_TARGET_DIR (default .bench_build); build output
# goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "perfbench: no bisched sources beside perfbench/" >&2
  exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  command -v ninja > /dev/null && generator=(-G Ninja)
  cmake -S perfbench -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target perfbench_harness -j 4 >&2

git_sha=n/a
[[ -e .git ]] && git_sha=$(git rev-parse --short=12 HEAD 2> /dev/null || echo n/a)
src_digest=$(find src tools CMakeLists.txt -type f | LC_ALL=C sort | xargs cat \
  | sha256sum | cut -c1-16)
exec "$build/perfbench_harness" --cli="$build/bisched/bisched_cli" \
  --run-dir="$build/perfbench-run" --git="$git_sha" --src="$src_digest" "$@"
