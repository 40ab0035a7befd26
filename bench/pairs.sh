#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark, for one workload or all:
#
#   bash bench/pairs.sh --parent REV --workload NAME|all [--seed N] [--seconds S]
#                       [--pairs N] [--metric NAME] [--better lower|higher]
#                       [--trace 0|1] [--out DIR]
#
# The parent side is REV exported with `git archive` into a temporary
# directory (under $TMPDIR); the change side is this checkout as it stands.
# Each side runs `bench/perf/run.sh`, which builds from its own sources.
# Pair i runs the parent first when i is odd and the change first when it
# is even. `--workload all` runs the pairs on every workload BENCHMARK.json
# declares, one workload after the other. Every result line is kept in DIR
# (default: a temporary directory), one `<workload>/<side>-<i>.json` per
# run.
#
# Per workload, the summary gives each side's median and quartiles of the
# claimed metric (--metric) and the change's wins, a tie counting for
# neither side. A gain is claimed only when the change wins at least nine
# tenths of the pairs and the medians differ by more than the parent's
# interquartile range. A table follows with every end-to-end metric of
# BENCHMARK.json: both medians, the share of the parent's median by which
# the change is worse (negative when it is better), and that metric's bound.
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
  echo "usage: bash bench/pairs.sh --parent REV --workload NAME|all [options]" >&2
  exit 2
fi
case "$better" in lower|higher) ;; *) echo "pairs.sh: --better is lower or higher" >&2; exit 2 ;; esac

change=$(cd "$(dirname "$0")/.." && pwd)
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git -C "$change" archive "$parent" | tar -x -C "$base"
if [ -z "$out" ]; then out=$(mktemp -d); fi

# BENCHMARK.json is one key per line: workload names from its "workloads"
# block; "name better bound" per end-to-end metric.
spec="$change/BENCHMARK.json"
workload_names() {
  awk '/"workloads"/ { w = 1 } /"end_to_end"/ { w = 0 }
       w && /"name"/ { gsub(/[",]/, ""); print $2 }' "$spec"
}
end_to_end() {
  awk '/"end_to_end"/ { e = 1 } /"per_layer"/ { e = 0 }
       e && /"name"/ { gsub(/[",]/, ""); name = $2 }
       e && /"better"/ { gsub(/[",]/, ""); b = $2 }
       e && /"bound"/ { gsub(/[",]/, ""); print name, b, $2 }' "$spec"
}
if [ "$workload" = all ]; then workloads=$(workload_names); else workloads=$workload; fi

# A metric's value in one kept result line.
value() {
  grep -o "\"$2\":{\"value\":[^,}]*" "$1" | sed 's/.*://' || true
}

# Median and quartiles by linear interpolation between order statistics.
stats() {
  printf '%s\n' $1 | sort -g | awk '
    { x[NR - 1] = $1 }
    function q(p,  h, l) { h = (NR - 1) * p; l = int(h); return x[l] + (h - l) * (x[l + 1] - x[l]) }
    END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

# One run's last stdout line into DIR/<side>-<i>.json; a run whose checks
# failed still reports, with a warning.
run() {
  local side=$1 dir=$2 i=$3 w=$4 line
  line=$(bash "$dir/bench/perf/run.sh" --workload "$w" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1) || true
  printf '%s\n' "$line" > "$out/$w/$side-$i.json"
  case "$line" in *'"correct":true'*) ;; *) echo "pairs.sh: $w $side run $i not correct" >&2 ;; esac
}

pairs_for() {
  local w=$1 p c p_vals="" c_vals="" wins=0 won
  mkdir -p "$out/$w"
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$base" "$i" "$w"; run change "$change" "$i" "$w"
    else
      run change "$change" "$i" "$w"; run parent "$base" "$i" "$w"
    fi
    p=$(value "$out/$w/parent-$i.json" "$metric"); c=$(value "$out/$w/change-$i.json" "$metric")
    if [ -z "$p" ] || [ -z "$c" ]; then
      echo "pairs.sh: $w pair $i has no $metric (see $out/$w)" >&2
      exit 1
    fi
    won=$(awk -v p="$p" -v c="$c" -v b="$better" \
      'BEGIN { print ((b == "lower" && c < p) || (b == "higher" && c > p)) ? 1 : 0 }')
    wins=$((wins + won))
    echo "$w pair $i  parent $p  change $c  $([ "$won" = 1 ] && echo won || echo lost/tied)"
    p_vals="$p_vals $p" c_vals="$c_vals $c"
  done

  local pq1 pmed pq3 cq1 cmed cq3
  read -r pq1 pmed pq3 <<< "$(stats "$p_vals")"
  read -r cq1 cmed cq3 <<< "$(stats "$c_vals")"
  echo "$w seed $seed --seconds $seconds, $metric ($better is better), $pairs pairs"
  echo "parent  median $pmed  quartiles $pq1 .. $pq3"
  echo "change  median $cmed  quartiles $cq1 .. $cq3"
  awk -v w="$wins" -v n="$pairs" -v pm="$pmed" -v cm="$cmed" -v q1="$pq1" -v q3="$pq3" -v b="$better" '
    BEGIN {
      d = (b == "lower") ? pm - cm : cm - pm
      gain = (w >= 0.9 * n && d > q3 - q1)
      printf "change won %d of %d; median moved %.6g in its favour, parent IQR %.6g: %s\n",
        w, n, d, q3 - q1, gain ? "gain" : "no claim"
    }'

  local name b bound ps cs
  printf '%-20s %14s %14s %9s %7s\n' metric parent change worse-by bound
  while read -r name b bound; do
    ps="" cs=""
    for i in $(seq 1 "$pairs"); do
      ps="$ps $(value "$out/$w/parent-$i.json" "$name")"
      cs="$cs $(value "$out/$w/change-$i.json" "$name")"
    done
    read -r _ pmed _ <<< "$(stats "$ps")"
    read -r _ cmed _ <<< "$(stats "$cs")"
    awk -v m="$name" -v p="$pmed" -v c="$cmed" -v b="$b" -v x="$bound" 'BEGIN {
      worse = (p == 0) ? 0 : ((b == "lower") ? (c - p) / p : (p - c) / p)
      printf "%-20s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", m, p, c, 100 * worse, 100 * x,
        (worse > x) ? "  OUT OF BOUND" : ""
    }'
  done <<< "$(end_to_end)"
  echo
}

for w in $workloads; do pairs_for "$w"; done
echo "results in $out"
