#!/bin/sh
# hitsgrid.sh OLD NEW — the search hits of two genomedsm binaries,
# compared byte for byte over the 252-run CLI grid that EXPERIMENTS.md's
# bit-identity checks use:
#
#   - 192 runs: shapes -n 400 -db-len 300, -n 4000 -db-len 120,
#     -n 1 -db-len 300 and -n 400 -db-len 1 at -db-size 48; seeds 1-2;
#     -plant-every 8|0; -dispatch auto|fixed|scalar; -prune on and off;
#     -shards 0|2
#   - 24 runs at ci.sh's shapes: -db-size 64, -n 400 -db-len 300 and
#     -n 4000 -db-len 120, -plant-every 8|0, seeds 1-3, -dispatch
#     auto|fixed, -prune
#   - 36 saturating runs, which take the int16 retry: -n 600 -db-len 900,
#     -n 601 -db-len 700 and -n 1000 -db-len 600 at -plant-every 4;
#     seeds 1-3; -prune on and off; -shards 0|2
#
# Each run's `search -json` "hits" block from OLD must equal NEW's
# (cmp), and must hold at least one hit. Every failing run is printed;
# the exit status is 1 when any run differs, is empty or fails, 2 on
# bad usage, 0 otherwise. Build the two binaries first, e.g.
#
#   mkdir /tmp/base && git archive BASE | tar x -C /tmp/base
#   (cd /tmp/base && go build -o /tmp/old ./cmd/genomedsm)
#   go build -o /tmp/new ./cmd/genomedsm
#   sh scripts/hitsgrid.sh /tmp/old /tmp/new
set -eu
[ $# -eq 2 ] && [ -x "$1" ] && [ -x "$2" ] ||
    { echo "usage: $0 OLD NEW (two genomedsm binaries)" >&2; exit 2; }
old=$1
new=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
runs=0
bad=0

# hits BIN OUT ARGS...: the "hits" block of one run into OUT.
hits() {
    bin=$1 out=$2
    shift 2
    "$bin" search -json "$@" >"$tmp/report" || return 1
    awk '/^  "hits"/ { on = 1 }
        on { print }
        on && (/^  \]/ || /"hits": (null|\[\])/) { exit }' "$tmp/report" >"$out"
}

run() {
    runs=$((runs + 1))
    if ! hits "$old" "$tmp/old" "$@"; then
        echo "FAILED (OLD exited non-zero): $*"
        bad=$((bad + 1))
    elif ! hits "$new" "$tmp/new" "$@"; then
        echo "FAILED (NEW exited non-zero): $*"
        bad=$((bad + 1))
    elif ! grep -q '"score"' "$tmp/old"; then
        echo "EMPTY: $*"
        bad=$((bad + 1))
    elif ! cmp -s "$tmp/old" "$tmp/new"; then
        echo "DIFFER: $*"
        diff "$tmp/old" "$tmp/new" | head -20
        bad=$((bad + 1))
    fi
}

for shape in "-n 400 -db-len 300" "-n 4000 -db-len 120" "-n 1 -db-len 300" "-n 400 -db-len 1"; do
    for seed in 1 2; do
        for plant in 8 0; do
            for disp in auto fixed scalar; do
                for prune in true false; do
                    for shards in 0 2; do
                        run $shape -db-size 48 -seed "$seed" -plant-every "$plant" \
                            -dispatch "$disp" -prune="$prune" -shards "$shards"
                    done
                done
            done
        done
    done
done
for shape in "-n 400 -db-len 300" "-n 4000 -db-len 120"; do
    for plant in 8 0; do
        for seed in 1 2 3; do
            for disp in auto fixed; do
                run $shape -db-size 64 -seed "$seed" -plant-every "$plant" -dispatch "$disp" -prune
            done
        done
    done
done
for shape in "-n 600 -db-len 900" "-n 601 -db-len 700" "-n 1000 -db-len 600"; do
    for seed in 1 2 3; do
        for prune in true false; do
            for shards in 0 2; do
                run $shape -plant-every 4 -seed "$seed" -prune="$prune" -shards "$shards"
            done
        done
    done
done

echo "hitsgrid: $runs runs, $bad failed"
[ "$bad" -eq 0 ]
