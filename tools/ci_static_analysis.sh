#!/bin/sh
# Static-analysis CI leg: mc_analyze (the repo's source analyzer:
# wrap-safety, serialization, determinism, concurrency and the
# source conventions) over the tree and its planted-bug fixtures,
# clang-tidy over the compilation database, cppcheck, and a fast
# model-check of the reconfiguration engine.
# Fails on any finding.
#
# Run from the repo root: tools/ci_static_analysis.sh [build-dir]
#
# clang-tidy and cppcheck are skipped with a notice when the binary
# is not installed (local developer machines); CI installs both, and
# mc_analyze + the model check always run, so the leg never silently
# passes with zero coverage.
set -eu

builddir="${1:-build-analysis}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

echo "== mc_analyze: source analyzer =="
# Whole-tree run must be clean. The parse cache lives under
# .cache/mc_analyze (content-hash keyed, safe to persist across CI
# runs).
python3 tools/mc_analyze

# The analyzers and the model checker consume a real build:
# clang-tidy needs compile_commands.json (exported unconditionally
# by the top-level CMakeLists), the model checker needs the
# mc_modelcheck binary, the fixture tests need mc_tests, and
# building with MORPHCACHE_DEV_WARNINGS=ON makes
# -Wshadow/-Wconversion/-Wextra-semi (as errors) part of the leg.
# Configure before the analyzers so they see a fresh database.
echo "== build (MORPHCACHE_DEV_WARNINGS=ON) =="
cmake -B "$builddir" -S . -DMORPHCACHE_DEV_WARNINGS=ON
cmake --build "$builddir" -j

echo "== mc_analyze: every planted bug caught at its site =="
# One seeded-bug fixture per rule, each with the sites it must
# report, and a clean counterpart it must pass; tests/analyze_test.cc
# holds the lists. A check that goes blind fails its site here even
# when its fixture still exits 1 on another finding. python3 ran
# above, so no case skips.
"$builddir"/tests/mc_tests --gtest_filter='Analyze.*'

if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy =="
    # First-party translation units only; externals (gtest,
    # benchmark) are not ours to lint.
    # tests/analyze_fixtures holds deliberately-buggy, never-compiled
    # mc_analyze inputs: no compile command, nothing to tidy.
    sources=$(git ls-files 'src/**/*.cc' 'tools/*.cc' \
                           'tests/*.cc' 'bench/*.cc' \
                           'examples/*.cc' \
                           ':!tests/analyze_fixtures/**')
    if command -v run-clang-tidy >/dev/null 2>&1; then
        # shellcheck disable=SC2086  # word-splitting intended
        run-clang-tidy -quiet -p "$builddir" -j "$(nproc)" $sources
    else
        # shellcheck disable=SC2086
        clang-tidy -quiet -p "$builddir" $sources
    fi
else
    echo "NOTICE: clang-tidy not installed; skipping (CI runs it)"
fi

if command -v cppcheck >/dev/null 2>&1; then
    echo "== cppcheck =="
    # warning+portability on the same database; the style/perf axes
    # belong to clang-tidy. Suppressions: system headers are not
    # ours, and missing-include noise is covered by the real build.
    cppcheck --project="$builddir/compile_commands.json" \
        --enable=warning,portability \
        --inline-suppr \
        --suppress=missingIncludeSystem \
        --suppress='*:*/_deps/*' \
        --inconclusive --error-exitcode=2 --quiet \
        -j "$(nproc)"
else
    echo "NOTICE: cppcheck not installed; skipping (CI runs it)"
fi

echo "== model check: reconfiguration engine (N=8, full) =="
"$builddir"/tools/mc_modelcheck --cores 8

echo "== model check: mutation legs must produce counterexamples =="
for bug in skip-forced-l3-merge ignore-alignment \
           skip-forced-l2-split; do
    if "$builddir"/tools/mc_modelcheck --cores 8 \
        --inject-rule-bug "$bug" >/dev/null 2>&1; then
        echo "FAIL: planted bug '$bug' was not detected" >&2
        exit 1
    fi
done
echo "static analysis: all checks passed"
