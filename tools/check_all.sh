#!/bin/sh
# Full correctness matrix (DESIGN.md §10/§15): a fail-fast lint-strict tier
# (whole-repo ilu-lint with SARIF output), then warnings-as-errors, the
# ownership auditor, and every sanitizer preset, each over the whole test
# suite. CI entry point; expect ~10-20 minutes on a laptop.
#
# Usage: tools/check_all.sh [build-root]
#   build-root defaults to ./build-matrix; one subdirectory per
#   configuration is created (and reused) beneath it.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
root=${1:-"$repo/build-matrix"}
jobs=$(nproc 2>/dev/null || echo 4)

run_config() {
    name=$1
    shift
    dir="$root/$name"
    echo "==> [$name] cmake $*"
    cmake -B "$dir" -S "$repo" "$@" >"$dir.cmake.log" 2>&1 || {
        cat "$dir.cmake.log"; exit 1; }
    echo "==> [$name] build"
    cmake --build "$dir" -j "$jobs" >"$dir.build.log" 2>&1 || {
        tail -50 "$dir.build.log"; exit 1; }
    echo "==> [$name] ctest"
    (cd "$dir" && ctest -j "$jobs" --output-on-failure) || exit 1
}

mkdir -p "$root"

# 0. lint-strict: the whole-repo analyzer on its own, before any compile —
#    cross-TU lock-order/atomics/blocking/layering findings fail fast
#    (seconds, not minutes), and the SARIF lands where CI annotators look.
lint_strict() {
    dir="$root/lint-strict"
    echo "==> [lint-strict] build ilu-lint"
    cmake -B "$dir" -S "$repo" >"$dir.cmake.log" 2>&1 || {
        cat "$dir.cmake.log"; exit 1; }
    cmake --build "$dir" -j "$jobs" --target ilu_lint >"$dir.build.log" 2>&1 || {
        tail -50 "$dir.build.log"; exit 1; }
    echo "==> [lint-strict] ilu-lint --sarif (+ lock-order graph)"
    "$dir/tools/ilu_lint" --root "$repo" --sarif \
        --dot "$dir/lock_order.dot" >"$dir/lint.sarif" || {
        # Re-run in text mode so the failure is readable in the CI log.
        "$dir/tools/ilu_lint" --root "$repo" || true
        echo "==> [lint-strict] findings (SARIF at $dir/lint.sarif)"
        exit 1
    }
    echo "==> [lint-strict] clean (SARIF at $dir/lint.sarif)"
}
lint_strict

# 1. Baseline RelWithDebInfo with -Werror: the tree must be warning-clean.
#    This build also runs ilu_lint (a default-label ctest test) and the
#    asan/ubsan engine smoke tests.
run_config werror -DILU_WERROR=ON

# 1b. Shard-synchronization gates on the werror build (DESIGN.md §9/§16):
#     a focused re-run of the sharded suites, then the cluster equivalence
#     check under locality placement — byte-identical reports or a non-zero
#     exit. Kept to 2 shards so this stays under a minute; the full
#     placement x shard-count matrix is the bench's default.
echo "==> [sync-gates] ctest -L sharded"
(cd "$root/werror" && ctest -L sharded -j "$jobs" --output-on-failure) || exit 1
echo "==> [sync-gates] cluster_scaling --shards 2 --placement locality"
"$root/werror/bench/cluster_scaling" --shards 2 --placement locality || exit 1

# 2. Debug ownership auditor over the full suite: every cross-thread access
#    in any test would abort here.
run_config debug-checks -DCMAKE_BUILD_TYPE=Debug -DILU_DEBUG_CHECKS=ON

# 3. Sanitizer presets. TSan watches the sharded runtime's barriers and the
#    observability spinlocks; ASan+UBSan cover the slab heap and Task SBO
#    pointer gymnastics. UBSan runs with -fno-sanitize-recover=all, so any
#    finding is a hard test failure.
run_config tsan -DILU_SANITIZE=thread
run_config asan-ubsan "-DILU_SANITIZE=address;undefined"

echo "==> all configurations passed"
