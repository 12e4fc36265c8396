#!/usr/bin/env bash
# ASan+UBSan gate: configure a Debug build with MGFS_SANITIZE=ON and run
# the full test suite under the sanitizers. Intended for CI and for local
# use before merging anything that touches the event loop, the RPC layer,
# or connection lifetimes (where use-after-free is the classic failure).
#
# Usage: ci/sanitize.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DMGFS_SANITIZE=ON
cmake --build "$build_dir" -j "$(nproc)"

# detect_leaks=1: LeakSanitizer runs for the test suite and every drill
# below, so a self-referencing callback cycle fails the gate.
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:abort_on_error=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

# The default chaos soak and every drill of ci/bench_list.sh double as
# a sanitizer stress of the whole failure path: deadline timers, pool
# evictions, breaker probes, fault callbacks, expel and journal replay,
# manager and per-shard takeovers that tear down and rebuild token state
# while RPCs are in flight, and replica failover and reconciliation —
# the paths where a stale callback or a double free would hide.
# shellcheck source=ci/bench_list.sh
source "$repo_root/ci/bench_list.sh"
"$build_dir/bench/chaos_soak"
for s in "${scenarios[@]}"; do
  "$build_dir/bench/chaos_soak" --scenario "$s"
done

echo "sanitize: all tests and chaos soak passed clean"
