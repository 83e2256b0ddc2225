#!/bin/sh
# Sanitizer CI leg: configure a separate build tree with ASan+UBSan
# enabled and run the whole test suite under it, then build the
# threaded runner tests under ThreadSanitizer (TSan cannot be
# combined with ASan, so it gets its own build tree) and run them.
# Run from the repo root: tools/ci_sanitize.sh [build-dir]
set -eu

builddir="${1:-build-sanitize}"

cmake -B "$builddir" -S . -DMORPHCACHE_SANITIZE=ON
cmake --build "$builddir" -j
ctest --test-dir "$builddir" --output-on-failure -j "$(nproc)"

# ThreadSanitizer pass over everything that runs cells on threads:
# parallelMap and the non-durable sweep (per-cell registries, the
# shared logging / profiler sinks), and the campaign executor's
# claim and heartbeat threads, SIGKILL crash tests included. gtest
# exits 0 when a filter selects nothing, so an empty selection (a
# renamed suite) fails here instead of passing blind.
tsandir="${builddir}-tsan"
cmake -B "$tsandir" -S . -DMORPHCACHE_TSAN=ON
cmake --build "$tsandir" -j --target mc_tests
filter='ParallelMap.*:SweepSeed.*:SimSweep.*:Sweep.*:Executor.*:Campaign.*'
selected=$("$tsandir"/tests/mc_tests --gtest_filter="$filter" \
    --gtest_list_tests | grep -c '^  ' || true)
if [ "$selected" -eq 0 ]; then
    echo "ci_sanitize: TSan filter selects no tests: $filter" >&2
    exit 1
fi
echo "ci_sanitize: running $selected tests under TSan"
"$tsandir"/tests/mc_tests --gtest_filter="$filter"
