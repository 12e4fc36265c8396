#!/usr/bin/env bash
# Wall-clock ledger: build Release and time each deterministic bench of
# the golden gate (ci/bench_list.sh). Runs go round-robin, one bench at a
# time, for 5 rounds, so slow drift of the host spreads over all benches
# instead of landing on one. Writes, per bench, the median and quartiles
# of the 5 wall times and the runs themselves, plus the host's CPU.
#
# A single run cannot resolve a 10 % change (back-to-back runs of one
# bench differ by up to 20 %): compare medians, and only when they are
# further apart than the interquartile ranges.
#
# Usage: ci/wall.sh [out.json] [build-dir]
#   (defaults: BENCH_wall.json in the repo root, build-golden)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$repo_root/BENCH_wall.json}"
build_dir="${2:-$repo_root/build-golden}"
rounds=5

# shellcheck source=ci/bench_list.sh
source "$repo_root/ci/bench_list.sh"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target "${benches[@]}" >/dev/null

times="$(mktemp)"
trap 'rm -f "$times"' EXIT
for ((r = 1; r <= rounds; r++)); do
  for b in "${benches[@]}"; do
    t0="$(date +%s.%N)"
    "$build_dir/bench/$b" >/dev/null 2>&1 || true  # exit status is golden's
    t1="$(date +%s.%N)"
    echo "$b $t0 $t1" >>"$times"
  done
  echo "wall: round $r/$rounds done" >&2
done

python3 - "$times" "$out" "$rounds" <<'EOF'
import json, os, platform, statistics, sys

times, out, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
runs = {}
for line in open(times):
    name, t0, t1 = line.split()
    runs.setdefault(name, []).append(float(t1) - float(t0))

def model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"

benches = {}
for name, ts in runs.items():
    q1, med, q3 = statistics.quantiles(ts, n=4, method="inclusive")
    benches[name] = {"median_s": round(med, 3), "q1_s": round(q1, 3),
                     "q3_s": round(q3, 3),
                     "runs_s": [round(t, 3) for t in ts]}
doc = {"build": "Release", "rounds": rounds,
       "host": {"cpu": model(), "cpus": os.cpu_count()},
       "total_median_s": round(sum(b["median_s"] for b in benches.values()),
                               3),
       "benches": benches}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wall: wrote {len(benches)} benches to {out}")
EOF
