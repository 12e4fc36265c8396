#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/test_bench.py [workload ...]

For each workload (default: those listed in BENCHMARK.json) it checks
that
  * two runs at the same seed print identical simulated metrics, sim
    digest and sim.events;
  * a different seed changes them;
  * a traced run (--trace 1) passes its own checks, and its simulated
    metrics, digest and event count equal the untraced run's.
Exits 1 if any check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)}: no output (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        listed = [w["name"] for w in json.load(f)["workloads"]]
    workloads = sys.argv[1:] or listed
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(("PASS " if ok else "FAIL ") + what)
        failures += not ok

    for w in workloads:
        rc_a, rep_a, res_a = run(w, 7, 0)
        _, rep_b, _ = run(w, 7, 0)
        _, rep_c, _ = run(w, 8, 0)
        rc_t, rep_t, res_t = run(w, 7, 1)
        expect(rc_a == 0 and res_a["correct"], f"{w}: untraced run correct")
        expect(rep_a["sim"] == rep_b["sim"] and
               rep_a["sim_digest"] == rep_b["sim_digest"] and
               rep_a["sim_events"] == rep_b["sim_events"],
               f"{w}: same seed gives identical sim metrics and sim.events")
        expect(rep_a["sim_digest"] != rep_c["sim_digest"] and
               rep_a["sim"] != rep_c["sim"],
               f"{w}: another seed changes the sim metrics")
        expect(rc_t == 0 and res_t["correct"], f"{w}: traced run correct")
        expect(rep_t["sim"] == rep_a["sim"] and
               rep_t["sim_digest"] == rep_a["sim_digest"] and
               res_t["metrics"]["sim.events"]["value"] == rep_a["sim_events"],
               f"{w}: traced run matches the untraced run")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
