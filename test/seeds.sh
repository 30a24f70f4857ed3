#!/bin/sh
# Seed sweep: run every test executable in this directory once for each
# QCHECK_SEED in 1..100, two at a time, then print one row per suite
# with the seeds it failed on.  Exits 1 if any run failed.
#
#   dune build @seeds
#
# Kept out of runtest and @check: it runs each suite 100 times.
set -u
seeds=100
out=$(mktemp)
trap 'rm -f "$out"' EXIT
exes=$(ls test_*.exe | grep -v '^test_bench_json\.exe$')
for exe in $exes; do
  s=1
  while [ "$s" -le "$seeds" ]; do
    echo "$exe $s"
    s=$((s + 1))
  done
done |
  xargs -P 2 -n 2 sh -c \
    'QCHECK_SEED=$2 ./$1 >/dev/null 2>&1; echo "${1%.exe} $2 $?"' sh >"$out"
sort -k1,1 -k2,2n "$out" | awk -v seeds="$seeds" '
  !($1 in runs) { names[++n] = $1 }
  { runs[$1]++; if ($3 != 0) { fails[$1]++; list[$1, $2] = 1; bad++ } }
  END {
    printf "%-18s %5s  %s\n", "suite", "fails", "failing QCHECK_SEEDs (of 1-" seeds ")";
    for (i = 1; i <= n; i++) {
      s = names[i]; l = "";
      for (k = 1; k <= seeds; k++) if ((s, k) in list) l = l (l == "" ? "" : " ") k;
      printf "%-18s %5d  %s\n", s, fails[s] + 0, (l == "" ? "-" : l);
    }
    printf "%d of %d runs failed\n", bad + 0, NR;
    exit (bad > 0)
  }'
