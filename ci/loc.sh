#!/usr/bin/env bash
# Line counter for "net line count" statements: for each file, print its
# total lines and its code lines (lines that are neither blank nor a
# `//` comment), then the sums over all files. Block comments and
# trailing comments are not stripped; the count is a stable yardstick,
# not a parser. Tooling only — it gates nothing.
#
# Usage: ci/loc.sh PATH...
#   e.g. ci/loc.sh src/gpfs/client.hpp src/gpfs/client*.cpp
set -euo pipefail

if (( $# == 0 )); then
  echo "usage: ci/loc.sh PATH..." >&2
  exit 2
fi

awk '
  FNR == 1 { files[++n] = FILENAME }
  { total[FILENAME]++ }
  !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { code[FILENAME]++ }
  END {
    printf "%7s %7s  %s\n", "total", "code", "file"
    for (i = 1; i <= n; i++) {
      f = files[i]
      printf "%7d %7d  %s\n", total[f], code[f] + 0, f
      sum_total += total[f]
      sum_code += code[f]
    }
    printf "%7d %7d  %s\n", sum_total, sum_code + 0, "(sum)"
  }' "$@"
