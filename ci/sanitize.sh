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

# The chaos soak doubles as a sanitizer stress of the whole failure path
# (deadline timers, pool evictions, breaker probes, fault callbacks).
"$build_dir/bench/chaos_soak"

# Disk-lease recovery drill: expel, journal replay and epoch fencing —
# the paths where a stale callback or double-free would hide.
"$build_dir/bench/chaos_soak" --scenario crash_dirty_writer

# Manager-failover drill: election, token-state rebuild from client
# assertions, and manager-epoch fencing of the deposed node — the
# takeover tears down and reinstalls the whole volatile manager state
# while RPCs are in flight, prime territory for use-after-free.
"$build_dir/bench/chaos_soak" --scenario manager_crash

# Replication drills: permanent NSD loss (reads ride the surviving
# copy, evacuate re-protects) and a whole-site blackout (nearest-replica
# reads, divergence + reconcile after heal). Replica failover re-issues
# fills from completed run state and reconciliation walks the placement
# tables — both are lifetime-bug habitat under ASan.
# Shard-crash drill: one token domain's manager goes dark, the other
# three keep committing, and the per-shard takeover tears down and
# rebuilds only that domain's token table while 12 writers hammer all
# four — the suspicion bookkeeping, per-shard epoch fencing and rebuild
# completion callbacks all run under load.
"$build_dir/bench/chaos_soak" --scenario shard_crash

"$build_dir/bench/chaos_soak" --scenario nsd_loss
"$build_dir/bench/chaos_soak" --scenario site_outage

echo "sanitize: all tests and chaos soak passed clean"
