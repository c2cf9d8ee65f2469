#!/bin/sh
# abpair.sh — alternated A/B pairs of the system benchmark: the commit
# BASE against the working tree, on one BENCHMARK.json workload.
#
#   sh scripts/abpair.sh WORKLOAD
#
# Environment:
#   BASE     the commit to compare against (default HEAD)
#   PAIRS    how many pairs to run (default 10)
#   SEED     the input seed of every run (default 1)
#   SECONDS_PER_RUN  measured seconds of each run (default 16)
#
# BASE is unpacked with `git archive` into a temporary directory — a
# copy that leaves no trace in the repository's metadata — and each run
# is `go run -C bench . --workload W --seed S --seconds N --trace 0`,
# from that copy (base) or from the working tree (work). The two
# alternate, and the order swaps every pair (base first in odd pairs,
# work first in even ones), so a drift of the host's speed over the
# session falls on both arms alike. The script prints each pair's
# lat_p50_ms, setup_s and peak_rss_mb and the work/base ratio of
# lat_p50_ms, then per arm the median and the interquartile range of
# each metric, and how many pairs the working tree won on lat_p50_ms.
# The temporary directory is removed on every exit path.
set -eu
cd "$(dirname "$0")/.."

[ $# -eq 1 ] || { echo "usage: sh scripts/abpair.sh WORKLOAD" >&2; exit 2; }
workload=$1
base=${BASE:-HEAD}
pairs=${PAIRS:-10}
seed=${SEED:-1}
seconds=${SECONDS_PER_RUN:-16}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base"
git archive "$base" | tar x -C "$tmp/base"

# run DIR prints "lat_p50_ms setup_s peak_rss_mb" of one run from DIR.
run() {
    out=$(go run -C "$1/bench" . --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) ||
        { echo "$out" >&2; echo "abpair: the run in $1 failed" >&2; return 1; }
    echo "$out" | awk '/^\{"correct"/ {
        if ($0 !~ /"correct":true/ || $0 !~ /"failed":0,/) { print "abpair: a run answered wrongly: " $0 > "/dev/stderr"; exit 1 }
        n = split("lat_p50_ms setup_s peak_rss_mb", k, " ")
        for (i = 1; i <= n; i++) {
            s = $0; sub(".*\"" k[i] "\":\\{\"value\":", "", s); sub(",.*", "", s)
            printf "%s%s", s, (i < n ? " " : "\n")
        }
        found = 1
    } END { if (!found) exit 1 }'
}

echo "abpair: $workload, seed $seed, $seconds s per run, $pairs pairs: base $(git rev-parse --short "$base") vs the working tree"
printf '%-5s %-9s %12s %12s %10s %10s %10s %10s %8s\n' pair first p50_base p50_work setup_base setup_work rss_base rss_work work/base
: >"$tmp/pairs"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        first=base
        b=$(run "$tmp/base")
        w=$(run .)
    else
        first=work
        w=$(run .)
        b=$(run "$tmp/base")
    fi
    echo "$i $first $b $w" >>"$tmp/pairs"
    echo "$i $first $b $w" | awk '{ printf "%-5s %-9s %12.4f %12.4f %10.4f %10.4f %10.2f %10.2f %8.3f\n", $1, $2, $3, $6, $4, $7, $5, $8, $6 / $3 }'
    i=$((i + 1))
done

# quartiles COLUMN prints the median and IQR of one column of the pairs.
quartiles() {
    awk -v c="$1" '{ print $c }' "$tmp/pairs" | sort -g | awk '
        { v[NR] = $1 }
        function q(p,  h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + (l < NR)] - v[l]) }
        END { printf "median %.4f  IQR %.4f (%.4f..%.4f)", q(0.5), q(0.75) - q(0.25), q(0.25), q(0.75) }'
}
echo "summary over $pairs pairs:"
for m in "lat_p50_ms 3 6" "setup_s 4 7" "peak_rss_mb 5 8"; do
    set -- $m
    echo "  $1 base: $(quartiles "$2")"
    echo "  $1 work: $(quartiles "$3")"
done
won=$(awk '$6 < $3 { n++ } END { print n + 0 }' "$tmp/pairs")
ratio=$(awk '{ print $6 / $3 }' "$tmp/pairs" | sort -g |
    awk '{ v[NR] = $1 } END { print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }')
echo "  lat_p50_ms: the working tree is faster in $won of $pairs pairs; median work/base $ratio"
