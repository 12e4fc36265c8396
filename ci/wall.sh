#!/usr/bin/env bash
# Wall-clock and memory ledger: build Release and time each deterministic
# bench of the golden gate (ci/bench_list.sh). Runs go round-robin, one
# bench at a time, for 5 rounds, so slow drift of the host spreads over
# all benches instead of landing on one. Writes, per bench, the median
# and quartiles of the 5 wall times and the runs themselves, the median
# and runs of the peak resident set (MB, from the reaped run's rusage),
# plus the host's CPU.
#
# A child's ru_maxrss also counts the launcher's resident set at the
# moment it forked, so no run reads below `rss_floor_mb` (measured by
# launching `true` the same way): a bench at the floor used at most that.
#
# A single run cannot resolve a 10 % change (back-to-back runs of one
# bench differ by up to 20 %): compare medians, and only when they are
# further apart than the interquartile ranges. Peak RSS barely moves
# from run to run, so a change of a few percent there is real.
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

python3 - "$build_dir" "$out" "$rounds" "${benches[@]}" <<'EOF'
import json, os, platform, statistics, subprocess, sys, time

build_dir, out, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
names = sys.argv[4:]

def run(cmd):
    """Wall seconds and peak RSS in MB of one run of cmd."""
    t0 = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    # Reaping with wait4 returns the run's own rusage; ru_maxrss is in
    # KiB. The exit status is golden's.
    _, _, usage = os.wait4(child.pid, 0)
    return time.monotonic() - t0, usage.ru_maxrss / 1024

_, rss_floor = run(["true"])
walls = {name: [] for name in names}
rss_mb = {name: [] for name in names}
for r in range(1, rounds + 1):
    for name in names:
        wall, rss = run([os.path.join(build_dir, "bench", name)])
        walls[name].append(wall)
        rss_mb[name].append(rss)
    print(f"wall: round {r}/{rounds} done", file=sys.stderr)

def model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"

benches = {}
for name in names:
    ts = walls[name]
    q1, med, q3 = statistics.quantiles(ts, n=4, method="inclusive")
    benches[name] = {"median_s": round(med, 3), "q1_s": round(q1, 3),
                     "q3_s": round(q3, 3),
                     "runs_s": [round(t, 3) for t in ts],
                     "peak_rss_mb": round(statistics.median(rss_mb[name]), 1),
                     "runs_rss_mb": [round(m, 1) for m in rss_mb[name]]}
doc = {"build": "Release", "rounds": rounds,
       "host": {"cpu": model(), "cpus": os.cpu_count()},
       "rss_floor_mb": round(rss_floor, 1),
       "total_median_s": round(sum(b["median_s"] for b in benches.values()),
                               3),
       "benches": benches}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wall: wrote {len(benches)} benches to {out}")
EOF
