#!/usr/bin/env bash
# Simulation-unchanged check: run every workload registered in
# BENCHMARK.json through perfbench/run.py at a fixed seed and compare the
# run's sim_digest and sim_events with golden/perfbench.sim_digest. Both
# depend on the simulated run only, not on the host, so a change that
# claims to leave simulated behaviour alone must leave them unchanged.
#
# Usage: ci/sim_digest.sh [--update]
#   --update  rewrite golden/perfbench.sim_digest from this tree's runs
#             instead of comparing. Name a regeneration in CHANGES.md.
#
# perfbench/run.py builds into $CARGO_TARGET_DIR, or .bench_build.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
fi
seed=701
golden="$repo_root/golden/perfbench.sim_digest"

mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$repo_root/BENCHMARK.json")

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
out="$tmp/perfbench.sim_digest"
echo "# workload seed sim_digest sim_events  (ci/sim_digest.sh)" >"$out"
for w in "${workloads[@]}"; do
  if ! (cd "$repo_root" && python3 perfbench/run.py --workload "$w" \
          --seed "$seed" --seconds 1 --trace 0) >"$tmp/$w.out" \
          2>"$tmp/$w.err"; then
    cat "$tmp/$w.err" >&2
    echo "sim_digest: FAIL — $w did not run" >&2
    exit 1
  fi
  # The first stdout line carries the run's detail, digest included.
  python3 -c '
import json, sys
d = json.loads(open(sys.argv[1]).readline())
print(d["workload"], d["seed"], d["sim_digest"], d["sim_events"])' \
    "$tmp/$w.out" >>"$out"
done

if (( update )); then
  cp "$out" "$golden"
  echo "sim_digest: wrote ${#workloads[@]} workloads to $golden"
  exit 0
fi
if ! diff -u "$golden" "$out"; then
  echo "sim_digest: FAIL — simulated runs differ from $golden" >&2
  exit 1
fi
echo "sim_digest: ${#workloads[@]} workloads match $golden"
