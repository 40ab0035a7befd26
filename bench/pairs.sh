#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark for one workload:
#
#   bash bench/pairs.sh --parent REV --workload NAME [--seed N] [--seconds S]
#                       [--pairs N] [--metric NAME] [--better lower|higher]
#                       [--trace 0|1] [--out DIR]
#
# The parent side is REV exported with `git archive` into a temporary
# directory (under $TMPDIR); the change side is this checkout as it stands.
# Each side runs `bench/perf/run.sh`, which builds from its own sources.
# Pair i runs the parent first when i is odd and the change first when it
# is even. Every result line is kept in DIR (default: a temporary
# directory), one `<side>-<i>.json` per run.
#
# The summary gives each side's median and quartiles of the metric and the
# change's wins, a tie counting for neither side. A gain is claimed only
# when the change wins at least nine tenths of the pairs and the medians
# differ by more than the parent's interquartile range.
set -euo pipefail

parent="" workload="" seed=1 seconds=20 pairs=10 metric=unit_s better=lower trace=0 out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --parent) parent=$2 ;;
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --pairs) pairs=$2 ;;
    --metric) metric=$2 ;;
    --better) better=$2 ;;
    --trace) trace=$2 ;;
    --out) out=$2 ;;
    *) echo "pairs.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
if [ -z "$parent" ] || [ -z "$workload" ]; then
  echo "usage: bash bench/pairs.sh --parent REV --workload NAME [options]" >&2
  exit 2
fi
case "$better" in lower|higher) ;; *) echo "pairs.sh: --better is lower or higher" >&2; exit 2 ;; esac

change=$(cd "$(dirname "$0")/.." && pwd)
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git -C "$change" archive "$parent" | tar -x -C "$base"
if [ -z "$out" ]; then out=$(mktemp -d); fi
mkdir -p "$out"

# The metric's value in the last stdout line of one run; a run whose
# checks failed still reports, with a warning.
run() {
  local side=$1 dir=$2 i=$3 line
  line=$(bash "$dir/bench/perf/run.sh" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1) || true
  printf '%s\n' "$line" > "$out/$side-$i.json"
  case "$line" in *'"correct":true'*) ;; *) echo "pairs.sh: $side run $i not correct" >&2 ;; esac
  printf '%s\n' "$line" | grep -o "\"$metric\":{\"value\":[^,}]*" | sed 's/.*://' || true
}

p_vals="" c_vals="" wins=0
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    p=$(run parent "$base" "$i"); c=$(run change "$change" "$i")
  else
    c=$(run change "$change" "$i"); p=$(run parent "$base" "$i")
  fi
  if [ -z "$p" ] || [ -z "$c" ]; then
    echo "pairs.sh: pair $i has no $metric (see $out)" >&2
    exit 1
  fi
  won=$(awk -v p="$p" -v c="$c" -v b="$better" \
    'BEGIN { print ((b == "lower" && c < p) || (b == "higher" && c > p)) ? 1 : 0 }')
  wins=$((wins + won))
  echo "pair $i  parent $p  change $c  $([ "$won" = 1 ] && echo won || echo lost/tied)"
  p_vals="$p_vals $p" c_vals="$c_vals $c"
done

# Median and quartiles by linear interpolation between order statistics.
stats() {
  printf '%s\n' $1 | sort -g | awk '
    { x[NR - 1] = $1 }
    function q(p,  h, l) { h = (NR - 1) * p; l = int(h); return x[l] + (h - l) * (x[l + 1] - x[l]) }
    END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}
read -r pq1 pmed pq3 <<< "$(stats "$p_vals")"
read -r cq1 cmed cq3 <<< "$(stats "$c_vals")"
echo "$workload seed $seed --seconds $seconds, $metric ($better is better), $pairs pairs"
echo "parent  median $pmed  quartiles $pq1 .. $pq3"
echo "change  median $cmed  quartiles $cq1 .. $cq3"
awk -v w="$wins" -v n="$pairs" -v pm="$pmed" -v cm="$cmed" -v q1="$pq1" -v q3="$pq3" -v b="$better" '
  BEGIN {
    d = (b == "lower") ? pm - cm : cm - pm
    gain = (w >= 0.9 * n && d > q3 - q1)
    printf "change won %d of %d; median moved %.6g in its favour, parent IQR %.6g: %s\n",
      w, n, d, q3 - q1, gain ? "gain" : "no claim"
  }'
echo "results in $out"
