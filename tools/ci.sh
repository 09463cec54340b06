#!/usr/bin/env sh
# One-command verify: configure, build and ctest the `ci` preset (-Wall
# -Wextra -Werror plus ASan/UBSan, bench included, so bench_hotpaths runs as
# a test), then the same for the `tsan` preset (ThreadSanitizer, tests only:
# the router's worker and maintenance threads share its connection pool).
# ctest is the whole gate: engine_tests drives the real CLI end to end
# (serve, route, sim, the store), so its children carry the sanitizers too.
#
#   $ tools/ci.sh [extra ctest args...]
set -eu

cd "$(dirname "$0")/.."
cmake --preset ci
cmake --build --preset ci -j "$(nproc)"
ctest --preset ci "$@"
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan "$@"
