#!/usr/bin/env bash
# Golden-output gate: build Release, run every deterministic bench, the
# chaos drills and the examples, and diff each one's stdout+stderr (plus
# its exit status) against the committed copy under golden/. Any
# difference fails the gate. The default chaos soak's JSON is also
# diffed against the committed BENCH_chaos.json. The list of what runs
# is in ci/bench_list.sh.
#
# Usage: ci/golden.sh [--update] [build-dir]   (default: build-golden)
#   --update  rewrite golden/ (and BENCH_chaos.json) from this tree's
#             output instead of diffing. Regenerating the goldens is a
#             deliberate act: name it in CHANGES.md.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  shift
fi
build_dir="${1:-$repo_root/build-golden}"
golden_dir="$repo_root/golden"

# shellcheck source=ci/bench_list.sh
source "$repo_root/ci/bench_list.sh"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target "${benches[@]}" \
  "${examples[@]}" >/dev/null

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT

# run NAME CMD... — capture stdout+stderr and the exit status.
run() {
  local name="$1"
  shift
  local rc=0
  "$@" >"$out_dir/$name.txt" 2>&1 || rc=$?
  echo "exit status: $rc" >>"$out_dir/$name.txt"
}

jobs_max="$(nproc)"
(( jobs_max > 4 )) && jobs_max=4
spawn() {
  while (( $(jobs -rp | wc -l) >= jobs_max )); do wait -n; done
  run "$@" &
}

for b in "${benches[@]}"; do
  spawn "$b" "$build_dir/bench/$b"
done
for s in "${scenarios[@]}"; do
  spawn "chaos_soak.$s" "$build_dir/bench/chaos_soak" --scenario "$s"
done
for e in "${examples[@]}"; do
  spawn "example.$e" "$build_dir/examples/$e"
done
# The soak prints the JSON path it wrote, so this run stays out of the
# text goldens; only the JSON it writes is compared.
spawn chaos_soak.json "$build_dir/bench/chaos_soak" \
  --json "$out_dir/BENCH_chaos.json"
wait
rm -f "$out_dir/chaos_soak.json.txt"

if (( update )); then
  # Only the .txt outputs are this script's; other goldens (the
  # perfbench digests of ci/sim_digest.sh) stay.
  mkdir -p "$golden_dir"
  rm -f "$golden_dir"/*.txt
  cp "$out_dir"/*.txt "$golden_dir/"
  cp "$out_dir/BENCH_chaos.json" "$repo_root/BENCH_chaos.json"
  echo "golden: wrote $(ls "$golden_dir"/*.txt | wc -l) files to $golden_dir"
  exit 0
fi

fail=0
for f in "$out_dir"/*.txt; do
  name="$(basename "$f")"
  if [[ ! -f "$golden_dir/$name" ]]; then
    echo "golden: FAIL — no committed golden for $name" >&2
    fail=1
  elif ! diff -u "$golden_dir/$name" "$f"; then
    echo "golden: FAIL — $name differs" >&2
    fail=1
  fi
done
for g in "$golden_dir"/*.txt; do
  [[ -f "$out_dir/$(basename "$g")" ]] || {
    echo "golden: FAIL — $(basename "$g") was not produced" >&2
    fail=1
  }
done
if ! diff -u "$repo_root/BENCH_chaos.json" "$out_dir/BENCH_chaos.json"; then
  echo "golden: FAIL — BENCH_chaos.json differs" >&2
  fail=1
fi
if (( fail )); then exit 1; fi
echo "golden: $(ls "$out_dir"/*.txt | wc -l) outputs and BENCH_chaos.json match"
