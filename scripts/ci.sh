#!/bin/sh
# ci.sh — the repo's full verification pipeline:
#
#   1. go vet, a gofmt -l check that fails on any unformatted file,
#      build, and the test suite under the race detector
#      (plus a doubled -race pass over the concurrency-heavy SWAR,
#      align, search, dispatch, dbpack and server packages — the lane
#      ladder, its pooled aligners and retrievers, the shared router's
#      counters and the HTTP batching/admission machinery run under
#      -race -count=2), then vet + tests of the nested bench/ module,
#      which the root ./... patterns cannot see, then the portable
#      row kernels and the align and search packages that reach them
#      vetted and compiled for arm64 (the AVX2 kernels are amd64
#      only), then the AVX2 route check (CPUID against
#      /proc/cpuinfo's avx2 flag, logging hasAVX2), then a kernel oracle
#      fuzz: 10 s each of the eleven differential fuzzers that pin the
#      packed kernels — scores, saved border rows and the end cells
#      located from them — and the striped rungs and ScanPair, one
#      pair down the lane ladder, to the scalar kernel, the AVX2 eight-row
#      kernels to the portable pass, both to the profile-word passes
#      they replaced, the leaf scalar row kernel to the
#      per-cell-argmax one it replaced, pruned search
#      hits to unpruned ones, the realign pool's arrow-free begin
#      sweep to the §6 traceback, that sweep's score-to-go floor to
#      the same sweep without it, and its 16-lane passes to it lane by
#      lane (FuzzScoresVsScalar,
#      FuzzStripedVsScalar, FuzzRowQuadVsPortable,
#      FuzzRowPairVsPortable, FuzzLeafRowVsReference,
#      FuzzDispatchVsScalar, FuzzStripRealignVsFull,
#      FuzzPrunedSearchVsFull, FuzzBeginVsRetrieve,
#      FuzzBeginReachVsAnchored, FuzzBeginLanesVsBegin) — past their
#      seed corpora, which is all `go test` runs
#   2. a chaos sweep: 16 seeds x 3 strategies of the fault-injection
#      differential oracle, under the race detector, plus a
#      crash-recovery matrix (8 seeds x 3 strategies, one kill + 5%
#      message loss each) asserting bit-exact kill-and-recover runs,
#      plus a sharded-search chaos matrix (8 seeds x {kill one shard
#      mid-scan, 5% message loss, 5% duplication, 5% reordering}, -race)
#      asserting the distributed scan stays bit-identical to single-node with the
#      recovery counters proving each kill was detected and reassigned,
#      plus a pruned-vs-unpruned search differential sweep (3 seeds x
#      skewed/uniform databases x 2 shapes — 400 x 300 and 4 kb x 120,
#      the one whose hits end up to 60 blocks below the first — -race)
#      asserting bit-identical hits, plus the hits grid: the 252-run
#      `search -json` grid of scripts/hitsgrid.sh on the base commit's
#      binary (BASE, default HEAD~1, built from `git archive`) and the
#      working tree's, every run's hits byte-identical
#   3. per-package coverage, gated on >= 85% combined coverage of
#      internal/dsm + internal/chaos + internal/recovery (the
#      protocol, its harness and the fault-tolerance layer)
#   4. an index/serve e2e smoke: pack a synthetic database with the
#      real binary (v2 format), serve it resident with /statsz proving
#      the pack is mmap'd, answer an HTTP query with hits, then drain
#      cleanly on SIGTERM
#   5. a 1-iteration smoke run of every kernel, search, serve and pack
#      benchmark, the AVX2 kernel gate (on an AVX2 host: the median
#      portable/avx2 time ratio of RowOct8VsPortable over five runs,
#      both kernels alternated in one process, must stay >= 17), the
#      leaf scalar row gate (the median ref/leaf time ratio of
#      ScalarRowLeafVsReference over five runs, the two row kernels
#      alternated in one process, must stay >= 1.2), the begin floor
#      gate (the median anchored/reach time ratio of
#      BeginReachVsAnchored over five runs, Begin with and without its
#      score-to-go floor alternated over the homolog batch's final hits
#      in one process, must stay >= 1.6), the begin lane gate (on an AVX2
#      host: the median scalar/lanes time ratio of BeginLanesVsScalar
#      over five runs, the homolog batch's final hits in 16-lane passes
#      and one at a time alternated in one process, must stay >= 4.6),
#      then
#      (unless SKIP_BENCHDIFF=1) a -smoke run of the system benchmark
#      BENCHMARK.json declares
#   6. the kernel, search and serve benchmarks for real, gated by
#      cmd/benchdiff against the committed BENCH_kernels.json baseline,
#      plus the pruning speedup gate: SearchDatabasePruned must hold
#      >= 1.5x the cells/s of both SearchDatabaseSkewed and
#      SearchDatabase,
#      plus the begin-sweep gate: the median begin/retrieve per-cell
#      rate ratio of KernelReverseBeginVsRetrieve, the two sweeps
#      alternated in one process, must stay >= 2,
#      plus the pruned sharding gate: SearchShardedPruned's 2-shard
#      homolog batch must take <= 1.3x the time of search.RunBatch,
#      plus the realign pool scaling gate: SearchRealign's 20 kb shape
#      at -cpu 2 must reach >= 1.4x its -cpu 1 cells/s (skipped with a
#      notice on a 1-core host),
#      plus the serve batching gate: one 16-query POST must beat 16
#      sequential single-query POSTs by >= 1.5x queries/s
#
# The benchmark gate fails the build when any kernel loses more than
# BENCHDIFF_MAX_REGRESS percent (default 5) cells/sec against the
# "baseline" snapshot in BENCH_kernels.json. "baseline" is the gate
# anchor, recorded
# conservatively (a slow phase of the dev machine) so one-sided
# scheduler noise doesn't trip the gate; the "seed"/"current" snapshots
# document this repo's before/after kernel rewrite and are compared
# with `benchdiff -diff seed current`, not gated on. After an
# intentional perf change, re-record with:
#
#   go test -run '^$' -bench 'Kernel|Search|Serve|Pack' -count 5 . | go run ./cmd/benchdiff -snapshot baseline
#
# On shared/noisy machines set BENCHDIFF_MAX_REGRESS higher, increase
# BENCH_COUNT so best-of has more samples, or set SKIP_BENCHDIFF=1 to
# run only the functional checks.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== gofmt -l"
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "gofmt FAILED, run gofmt -w on:"; echo "$unformatted"; exit 1; }

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== bench module (nested: the root ./... cannot see it)"
(cd bench && go vet . && go test .)

echo "== go test -race -count=2 (swar + align + search + shard + dispatch + dbpack + server)"
go test -race -count=2 ./internal/swar ./internal/align ./internal/search ./internal/shard ./internal/dispatch ./internal/dbpack ./internal/server ./cmd/genomedsm

echo "== portable kernels (GOARCH=arm64 vet + test build of internal/swar, align, search)"
# Off amd64 the row kernels are the portable Go ones: keep them, and the
# align and search packages whose pairwise scans and lane passes reach
# them, compiling. vet's asmdecl check on amd64 (above) keeps the
# assembly's frame offsets in step with its Go declarations.
for pkg in ./internal/swar ./internal/align ./internal/search; do
    GOARCH=arm64 go vet "$pkg"
    GOARCH=arm64 go test -c -o /dev/null "$pkg"
done

echo "== AVX2 route (CPUID detection against /proc/cpuinfo)"
# The packed scan runs the AVX2 kernels only where CPUID and the OS's
# saved register state say AVX2 works; the log records which route this
# host's tests and benchmarks ran.
avx2=$(go test -count=1 -run '^TestHasAVX2MatchesCPUInfo$' -v ./internal/swar) ||
    { echo "$avx2"; echo "AVX2 route check FAILED"; exit 1; }
echo "$avx2" | grep -E 'hasAVX2|SKIP'

echo "== kernel oracle fuzz (10 s x 11 differential fuzzers)"
go test -run '^$' -fuzz '^FuzzScoresVsScalar$' -fuzztime 10s ./internal/swar
# The striped rungs and ScanPair on both packed-kernel routes, from a
# three-base pair to a 513-row query, int8 and int16 saturation and N runs.
go test -run '^$' -fuzz '^FuzzStripedVsScalar$' -fuzztime 10s ./internal/swar
# The AVX2 eight-row kernels against the portable pass: clean lanes
# bit-identical beside dirty lanes, phantom rows, short rows.
go test -run '^$' -fuzz '^FuzzRowQuadVsPortable$' -fuzztime 10s ./internal/swar
# The code-word passes, portable and AVX2, against the profile-word
# passes and packed profile they replaced, kept as the oracle.
go test -run '^$' -fuzz '^FuzzRowPairVsPortable$' -fuzztime 10s ./internal/swar
# The leaf scalar row kernel that locates end cells against the
# per-cell-argmax one it replaced: the same row, maximum and column.
go test -run '^$' -fuzz '^FuzzLeafRowVsReference$' -fuzztime 10s ./internal/swar
go test -run '^$' -fuzz '^FuzzDispatchVsScalar$' -fuzztime 10s ./internal/search
go test -run '^$' -fuzz '^FuzzStripRealignVsFull$' -fuzztime 10s ./internal/search
# A resumed int16 retry under a live Bound replays the abandon tests
# above its resume row: pruned hits must stay the unpruned ones.
go test -run '^$' -fuzz '^FuzzPrunedSearchVsFull$' -fuzztime 10s ./internal/search
# The realign pool finds begin cells with the arrow-free sweep: it must
# agree with the traceback sweep on every endpoint, fallbacks included.
go test -run '^$' -fuzz '^FuzzBeginVsRetrieve$' -fuzztime 10s ./internal/align
# Begin's score-to-go floor must leave its begin cell and ok exactly as
# the floor-less sweep finds them, with no more cells computed.
go test -run '^$' -fuzz '^FuzzBeginReachVsAnchored$' -fuzztime 10s ./internal/align
# The finish pass runs those sweeps 16 hits to a pass in int16 lanes:
# every lane must give Begin's begin cell and ok, on both routes.
go test -run '^$' -fuzz '^FuzzBeginLanesVsBegin$' -fuzztime 10s ./internal/swar

echo "== chaos sweep (16 seeds x 3 strategies, -race)"
chaos_bin=$(mktemp -d)/genomedsm
go build -race -o "$chaos_bin" ./cmd/genomedsm
seed=1
while [ "$seed" -le 16 ]; do
    "$chaos_bin" chaos -seed "$seed" -strategy noblock,preprocess,phase2 \
        -schedules 2 -len 360 -procs 3 >/dev/null ||
        { echo "chaos sweep FAILED at seed $seed"; exit 1; }
    seed=$((seed + 1))
done
echo "chaos sweep ok"

echo "== crash-recovery matrix (8 seeds x 3 strategies, kill + 5% loss, -race)"
seed=1
while [ "$seed" -le 8 ]; do
    for st in noblock preprocess phase2; do
        "$chaos_bin" chaos -seed "$seed" -strategy "$st" \
            -kill 1@2 -loss 0.05 -schedules 1 -len 360 -procs 3 >/dev/null ||
            { echo "crash matrix FAILED at seed $seed strategy $st"; exit 1; }
    done
    seed=$((seed + 1))
done
echo "crash-recovery matrix ok"

echo "== sharded-search chaos matrix (8 seeds x kill/loss/dup/reorder, -race)"
# The distributed-search robustness contract: across every seed, a
# 4-shard scatter with one worker killed mid-scan (the oracle also
# requires its counters to prove the kill, detection and reassignment
# happened), 5% message loss, 5% duplication or 5% reordering must
# return hits bit-identical to a fault-free single-node scan.
seed=1
while [ "$seed" -le 8 ]; do
    for faults in "-kill-shard 1@1" "-loss 0.05" "-dup 0.05" "-reorder 0.05"; do
        "$chaos_bin" chaos -search -shards 4 -schedules 1 -seed "$seed" $faults >/dev/null ||
            { echo "sharded-search matrix FAILED at seed $seed faults '$faults'"; exit 1; }
    done
    seed=$((seed + 1))
done
echo "sharded-search chaos matrix ok"

echo "== pruned-vs-unpruned differential sweep (3 seeds x skewed/uniform x 2 shapes, -race)"
# The exact-pruning contract: `search -prune` must return bit-identical
# hits — scores, coordinates, tie-breaks — to the unpruned scan, on
# skewed (planted homologs) and uniform (pure noise, worst case)
# databases alike. Reuses the -race CLI binary so the sweep also
# exercises the shared floor under the race detector. The second shape,
# a 4 kb query over 120-base records, is the one whose hits end far
# below the first block of query rows, so the saved border rows and the
# locate step that replays a block from them run under -race here too.
hits_of() {
    "$chaos_bin" search -db-size 64 -json "$@" |
        sed -n '/"hits"/,/\]/p'
}
for shape in "-n 400 -db-len 300" "-n 4000 -db-len 120"; do
    for seed in 1 2 3; do
        for plant in 8 0; do
            want=$(hits_of $shape -seed "$seed" -plant-every "$plant" -prune=false)
            got=$(hits_of $shape -seed "$seed" -plant-every "$plant" -prune)
            [ "$got" = "$want" ] ||
                { echo "differential sweep FAILED: shape '$shape' seed $seed plant $plant"
                  echo "--- unpruned"; echo "$want"; echo "--- pruned"; echo "$got"; exit 1; }
        done
    done
done
rm -rf "$(dirname "$chaos_bin")"
echo "differential sweep ok"

echo "== hits grid (${BASE:-HEAD~1} vs the working tree: 252 search runs)"
# The bit-identity contract of a performance change: the base commit's
# binary, built from `git archive` in a temporary directory, and the
# working tree's must print byte-identical hits over the whole grid of
# scripts/hitsgrid.sh (shapes, seeds, dispatch modes, pruning, shards
# and the int16 retry). Set BASE to compare against another commit —
# BASE=HEAD on an uncommitted working tree, whose HEAD~1 is the
# change's grandparent.
griddir=$(mktemp -d)
mkdir "$griddir/base"
git archive "${BASE:-HEAD~1}" | tar x -C "$griddir/base"
(cd "$griddir/base" && go build -o "$griddir/old" ./cmd/genomedsm)
go build -o "$griddir/new" ./cmd/genomedsm
sh scripts/hitsgrid.sh "$griddir/old" "$griddir/new" ||
    { echo "hits grid FAILED against ${BASE:-HEAD~1}"; rm -rf "$griddir"; exit 1; }
rm -rf "$griddir"

echo "== per-package coverage"
go test -cover ./...

echo "== dsm+chaos+recovery coverage gate (>= 85%)"
covfile=$(mktemp)
go test -coverpkg=./internal/dsm,./internal/chaos,./internal/recovery \
    -coverprofile="$covfile" \
    ./internal/dsm ./internal/chaos ./internal/recovery ./internal/phase2 \
    ./internal/preprocess ./internal/wavefront >/dev/null
pct=$(go tool cover -func="$covfile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
rm -f "$covfile"
echo "combined internal/dsm + internal/chaos + internal/recovery coverage: ${pct}%"
awk -v p="$pct" 'BEGIN { exit (p >= 85.0) ? 0 : 1 }' ||
    { echo "coverage gate FAILED: ${pct}% < 85%"; exit 1; }

echo "== index/serve e2e smoke (pack -> resident server -> HTTP query -> drain)"
# The cold-start contract end to end with the real binary: pack a
# synthetic database once, serve it (no FASTA re-parse), answer an HTTP
# query with hits, report healthy, then drain cleanly on SIGTERM.
e2edir=$(mktemp -d)
go build -o "$e2edir/genomedsm" ./cmd/genomedsm
"$e2edir/genomedsm" index -db-size 48 -db-len 300 -n 400 \
    -o "$e2edir/db.pack" -q-out "$e2edir/q.fa" >/dev/null
"$e2edir/genomedsm" serve -pack "$e2edir/db.pack" -addr 127.0.0.1:17878 \
    >"$e2edir/serve.log" 2>&1 &
serve_pid=$!
ok=0
for _ in $(seq 1 50); do
    if curl -sf http://127.0.0.1:17878/healthz >/dev/null 2>&1; then ok=1; break; fi
    sleep 0.1
done
[ "$ok" = 1 ] || { echo "e2e FAILED: server never became healthy"
                   cat "$e2edir/serve.log"; kill "$serve_pid" 2>/dev/null; exit 1; }
q=$(sed -n '2p' "$e2edir/q.fa" | cut -c1-200)
curl -sf -d "{\"query\":\"$q\",\"top_k\":3}" http://127.0.0.1:17878/search |
    grep -q '"score"' ||
    { echo "e2e FAILED: query returned no scored hits"; kill "$serve_pid" 2>/dev/null; exit 1; }
statsz=$(curl -sf http://127.0.0.1:17878/statsz)
echo "$statsz" | grep -q '"served": *1' ||
    { echo "e2e FAILED: statsz did not count the query"; kill "$serve_pid" 2>/dev/null; exit 1; }
# The zero-copy contract: `index` writes v2 by default and `serve` must
# have mmap'd it, with /statsz reporting the mapped load verbatim.
echo "$statsz" | grep -q '"mode": *"mmap"' ||
    { echo "e2e FAILED: statsz pack mode is not mmap"
      echo "$statsz"; kill "$serve_pid" 2>/dev/null; exit 1; }
echo "$statsz" | grep -q '"version": *2' ||
    { echo "e2e FAILED: statsz pack version is not 2"
      echo "$statsz"; kill "$serve_pid" 2>/dev/null; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "e2e FAILED: serve exited non-zero after SIGTERM"
                       cat "$e2edir/serve.log"; exit 1; }
grep -q drained "$e2edir/serve.log" ||
    { echo "e2e FAILED: no drain on shutdown"; cat "$e2edir/serve.log"; exit 1; }
rm -rf "$e2edir"
echo "index/serve e2e ok"

echo "== benchmark smoke (1 iteration)"
go test -run '^$' -bench 'Kernel|Search|Serve|Pack' -benchtime 1x .

echo "== AVX2 kernel gate (RowOct8VsPortable: portable/avx2 >= 17, median of 5)"
# rowOct8 and the portable pass (four rowPair8Go passes) alternated
# over one 8-lane 1000 x 1000 group in each iteration: a same-run
# ratio, so the host's speed that hour cancels. Since the portable pass
# derives its substitution terms per word it runs 0.81x as fast, so
# the ratio reads about twice what it did. The floor sits under every
# median the code-word AVX2 kernel read on a 2-vCPU host (18.82-20.53,
# six medians of five over four clock hours) and over every median a
# kernel 24-29 % slower read — seven dependent VPORs planted per step:
# 13.97-16.01 (EXPERIMENTS.md, the code-word and begin-lane sections).
# On a host without AVX2 the two arms are one kernel: the route step
# above logs hasAVX2 = false and the gate is skipped.
if ! echo "$avx2" | grep -q 'hasAVX2 = true'; then
    echo "AVX2 kernel gate skipped: no AVX2 on this host (the portable pass is the kernel)"
else
    ratio=$(go test -run '^$' -bench '^BenchmarkRowOct8VsPortable$' -count 5 ./internal/swar |
        awk '$1 ~ /^BenchmarkRowOct8VsPortable(-[0-9]+)?$/ {
            for (i = 2; i < NF; i++) if ($(i+1) == "portable/avx2") print $i
        }' | sort -g | awk '{ v[NR] = $1 } END { if (NR == 0) exit 1; print v[int((NR + 1) / 2)] }')
    echo "portable pass at ${ratio}x the time of the AVX2 eight-row one (median)"
    awk -v r="$ratio" 'BEGIN {
        if (r < 17.0) { printf "AVX2 kernel gate FAILED: %.2fx < 17x\n", r; exit 1 }
        printf "AVX2 kernel gate ok: %.2fx\n", r
    }'
fi

echo "== leaf scalar row gate (ScalarRowLeafVsReference: ref/leaf >= 1.2, median of 5)"
# The leaf row kernel that locates end cells and the per-cell-argmax
# one it replaced, alternated over one located hit's rows in each
# iteration: a same-run ratio, so the host's speed that hour cancels.
# The leaf kernel must stay faster by at least the margin below, which
# sits under the lowest median read on a 2-vCPU host (EXPERIMENTS.md).
ratio=$(go test -run '^$' -bench '^BenchmarkScalarRowLeafVsReference$' -count 5 ./internal/swar |
    awk '$1 ~ /^BenchmarkScalarRowLeafVsReference(-[0-9]+)?$/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "ref/leaf") print $i
    }' | sort -g | awk '{ v[NR] = $1 } END { if (NR == 0) exit 1; print v[int((NR + 1) / 2)] }')
echo "per-cell-argmax scalar row at ${ratio}x the time of the leaf one (median)"
awk -v r="$ratio" 'BEGIN {
    if (r < 1.2) { printf "leaf scalar row gate FAILED: %.2fx < 1.2x\n", r; exit 1 }
    printf "leaf scalar row gate ok: %.2fx\n", r
}'

echo "== begin floor gate (BeginReachVsAnchored: anchored/reach >= 1.6, median of 5)"
# Begin with its score-to-go floor and the same sweep without it,
# alternated over the homolog batch's 40 final hits in each iteration:
# a same-run ratio, so the host's speed that hour cancels. The floor
# sits under the lowest median read (2.04-2.05 over ~3 hours on a 2-vCPU
# host) and far above a build whose floor never rises above 1 (1.0;
# EXPERIMENTS.md).
ratio=$(go test -run '^$' -bench '^BenchmarkBeginReachVsAnchored$' -count 5 ./internal/align |
    awk '$1 ~ /^BenchmarkBeginReachVsAnchored(-[0-9]+)?$/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "anchored/reach") print $i
    }' | sort -g | awk '{ v[NR] = $1 } END { if (NR == 0) exit 1; print v[int((NR + 1) / 2)] }')
echo "floor-less begin sweep at ${ratio}x the time of the floored one (median)"
awk -v r="$ratio" 'BEGIN {
    if (r < 1.6) { printf "begin floor gate FAILED: %.2fx < 1.6x\n", r; exit 1 }
    printf "begin floor gate ok: %.2fx\n", r
}'

echo "== begin lane gate (BeginLanesVsScalar: scalar/lanes >= 4.6, median of 5)"
# The homolog batch's 40 final hits: their begin sweeps in 16-lane
# passes of ten (BeginLanes) and one hit at a time (Begin), alternated
# in each iteration: a same-run ratio, so the host's speed that hour
# cancels. The floor sits under every median the lane passes read on a
# 2-vCPU host (4.95-5.34, three clock hours) and over every median a
# kernel with a dependent chain of eight ops planted in its column step
# read (3.99-4.43, the lane passes 13-23 % slower; EXPERIMENTS.md, the
# begin-lane section).
# On a host without AVX2 there are no lane passes: the route step above
# logs hasAVX2 = false and the gate is skipped.
if ! echo "$avx2" | grep -q 'hasAVX2 = true'; then
    echo "begin lane gate skipped: no AVX2 on this host (Begin runs one hit at a time)"
else
    ratio=$(go test -run '^$' -bench '^BenchmarkBeginLanesVsScalar$' -count 5 . |
        awk '$1 ~ /^BenchmarkBeginLanesVsScalar(-[0-9]+)?$/ {
            for (i = 2; i < NF; i++) if ($(i+1) == "scalar/lanes") print $i
        }' | sort -g | awk '{ v[NR] = $1 } END { if (NR == 0) exit 1; print v[int((NR + 1) / 2)] }')
    echo "begin sweeps one at a time at ${ratio}x the time of the lane passes (median)"
    awk -v r="$ratio" 'BEGIN {
        if (r < 4.6) { printf "begin lane gate FAILED: %.2fx < 4.6x\n", r; exit 1 }
        printf "begin lane gate ok: %.2fx\n", r
    }'
fi

if [ "${SKIP_BENCHDIFF:-0}" = "1" ]; then
    echo "== system benchmark smoke and benchdiff gate skipped (SKIP_BENCHDIFF=1)"
    exit 0
fi

echo "== system benchmark smoke (BENCHMARK.json: five serve-path workloads, every hit oracle-checked)"
go run -C bench . -smoke

count="${BENCH_COUNT:-5}"
maxregress="${BENCHDIFF_MAX_REGRESS:-5}"
echo "== benchmark regression gate (count=$count, max-regress=${maxregress}%)"
benchout=$(mktemp)
go test -run '^$' -bench 'Kernel|Search|Serve|Pack' -benchtime 1s -count "$count" . |
    tee "$benchout" |
    go run ./cmd/benchdiff -check -baseline baseline -max-regress "$maxregress"

echo "== pruning speedup gate (SearchDatabasePruned >= 1.5x unpruned)"
# Best value of a metric ($2, default cells/s) over the -count runs,
# same collapse rule as benchdiff.
best() {
    awk -v name="Benchmark$1" -v unit="${2:-cells/s}" '
        $1 ~ "^"name"(-[0-9]+)?$" {
            for (i = 2; i < NF; i++) if ($(i+1) == unit && $i > best) best = $i
        }
        END { if (best == "") exit 1; print best }' "$benchout"
}
pruned=$(best SearchDatabasePruned)
skewed=$(best SearchDatabaseSkewed)
uniform=$(best SearchDatabase)
echo "pruned $pruned cells/s vs skewed $skewed, uniform $uniform"
awk -v p="$pruned" -v s="$skewed" -v u="$uniform" 'BEGIN {
    if (p < 1.5 * s) { printf "pruning gate FAILED: %.2fx over skewed < 1.5x\n", p / s; exit 1 }
    if (p < 1.5 * u) { printf "pruning gate FAILED: %.2fx over uniform < 1.5x\n", p / u; exit 1 }
    printf "pruning gate ok: %.2fx over skewed, %.2fx over uniform\n", p / s, p / u
}'

echo "== begin-sweep gate (KernelReverseBeginVsRetrieve: begin/retrieve >= 2, median)"
# The realign pool's begin-cell sweep is the §6 sweep without its
# traceback store, on the same pair; each arm's rate counts its own
# CellsComputed, and Begin's score-to-go floor computes fewer of them,
# so the ratio compares per-cell rates. The two arms are alternated in
# every iteration of one benchmark, so the host's speed cancels; the
# median over the -count runs must stay >= 2.
ratio=$(awk '$1 ~ /^BenchmarkKernelReverseBeginVsRetrieve(-[0-9]+)?$/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "begin/retrieve") print $i
    }' "$benchout" | sort -g | awk '{ v[NR] = $1 } END { if (NR == 0) exit 1; print v[int((NR + 1) / 2)] }')
echo "begin sweep at ${ratio}x the per-cell rate of the traceback sweep (median)"
awk -v r="$ratio" 'BEGIN {
    if (r < 2) { printf "begin-sweep gate FAILED: %.2fx < 2x\n", r; exit 1 }
    printf "begin-sweep gate ok: %.2fx\n", r
}'

echo "== sharded scaling sanity gate (4-shard in-process >= single-node)"
# The distribution layer's wins come from adding hosts; on one host it
# must at least hold parity with the single-node scan on the uniform
# benchmark database. The floor is twice the benchdiff tolerance — the
# usual allowance for two same-speed runs (±7% run to run on a 1-core
# host).
sharded=$(best SearchDatabaseSharded)
echo "sharded $sharded cells/s vs single-node $uniform"
awk -v tol="$maxregress" -v sh="$sharded" -v u="$uniform" 'BEGIN {
    floor = 1 - 2 * tol / 100
    if (sh < floor * u) { printf "scaling gate FAILED: 4-shard at %.2fx of single-node (floor %.2fx)\n", sh / u, floor; exit 1 }
    printf "scaling gate ok: 4-shard at %.2fx of single-node\n", sh / u
}'

echo "== pruned sharding gate (SearchShardedPruned: 2-shard batch <= 1.3x RunBatch)"
# The gate above scans a uniform database with pruning off, so it
# cannot see a shard that starts its scan far from the homologs and
# prunes only as fast as the gossiped floor reaches it. This one runs a
# pruned 4-query batch over long planted homologs and short noise, the
# 2-shard cluster and the single-node RunBatch alternated in each
# iteration, and reads their time ratio: the median over the -count
# runs must stay <= 1.3.
ratio=$(awk '$1 ~ /^BenchmarkSearchShardedPruned(-[0-9]+)?$/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "sharded/single") print $i
    }' "$benchout" | sort -g | awk '{ v[NR] = $1 } END { if (NR == 0) exit 1; print v[int((NR + 1) / 2)] }')
echo "pruned 2-shard batch at ${ratio}x of single-node (median)"
awk -v r="$ratio" 'BEGIN {
    if (r > 1.3) { printf "pruned sharding gate FAILED: %.2fx > 1.3x\n", r; exit 1 }
    printf "pruned sharding gate ok: %.2fx\n", r
}'

echo "== realign pool scaling gate (SearchRealign 20 kb shape: -cpu 2 >= 1.4x -cpu 1)"
# The repo's first recorded multi-core number: the realign pool hands
# ten independent 20 kb x 500 bp rescans to its workers, so two cores
# must buy at least 1.4x the cells/s of one. The subject is the row of
# hand-built hits, which know no end cell and scan whole matrices
# forward on the lane ladder (ScanPair): the long20000x500/scanned row beside it only walks back from
# located cells, ten items of ~20 us, too short for a pool to show
# scaling.
# The main run above uses the host's default GOMAXPROCS only, so this
# gate makes its own -cpu 1,2 run; go test prints the -cpu 1 row without
# a suffix and the -cpu 2 row as "-2".
if [ "$(nproc)" -lt 2 ]; then
    echo "realign scaling gate skipped: nproc $(nproc) < 2"
else
    realignout=$(mktemp)
    go test -run '^$' -bench 'SearchRealign/long' -benchtime 1s -count "$count" -cpu 1,2 . >"$realignout"
    bestcpu() {
        awk -v name="BenchmarkSearchRealign/long20000x500$1" '
            $1 == name { for (i = 2; i < NF; i++) if ($(i+1) == "cells/s" && $i > best) best = $i }
            END { if (best == "") exit 1; print best }' "$realignout"
    }
    one=$(bestcpu "")
    two=$(bestcpu "-2")
    rm -f "$realignout"
    echo "realign 20 kb shape: $one cells/s on 1 core vs $two on 2"
    awk -v a="$one" -v b="$two" 'BEGIN {
        if (b < 1.4 * a) { printf "realign scaling gate FAILED: 2 cores at %.2fx of 1 < 1.4x\n", b / a; exit 1 }
        printf "realign scaling gate ok: 2 cores at %.2fx of 1\n", b / a
    }'
fi

echo "== serve batching gate (batched >= 1.5x sequential queries/s)"
# The shared-scan contract: one POST carrying 16 queries must amortize
# the per-request fixed costs (HTTP round trip, JSON, per-scan setup)
# into at least a 1.5x queries/s win over 16 sequential single-query
# POSTs of the same workload. The DP work per query is identical on
# both sides, so the ratio isolates exactly what the batching path
# exists to remove.
seqrate=$(best ServeQueryLatency queries/s)
batchrate=$(best ServeThroughputBatched queries/s)
echo "sequential $seqrate queries/s vs batched $batchrate queries/s"
awk -v s="$seqrate" -v b="$batchrate" 'BEGIN {
    if (b < 1.5 * s) { printf "serve gate FAILED: batched at %.2fx of sequential < 1.5x\n", b / s; exit 1 }
    printf "serve gate ok: batched %.2fx over sequential\n", b / s
}'
rm -f "$benchout"
