package genomedsm

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/dbpack"
	"genomedsm/internal/experiments"
	"genomedsm/internal/heuristics"
	"genomedsm/internal/search"
	"genomedsm/internal/server"
	"genomedsm/internal/shard"
	"genomedsm/internal/swar"
)

// benchCtx returns an experiment context sized for the Go benchmark
// harness: heavily scaled inputs, trimmed grids, output discarded.
func benchCtx() *experiments.Ctx {
	ctx := experiments.New(io.Discard, 100)
	ctx.Quick = true
	return ctx
}

// runExperiment benchmarks one paper experiment end to end.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := benchCtx().Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table/figure: the benchmark regenerates the
// experiment on micro-scaled inputs; cmd/benchtables regenerates the same
// experiments at presentation scale.

func BenchmarkTable1Heuristic(b *testing.B)       { runExperiment(b, "table1") }
func BenchmarkFig9Speedups(b *testing.B)          { runExperiment(b, "fig9") }
func BenchmarkFig10Breakdown(b *testing.B)        { runExperiment(b, "fig10") }
func BenchmarkTable2BlastComparison(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3BlockingSweep(b *testing.B)   { runExperiment(b, "table3") }
func BenchmarkTable4Blocked(b *testing.B)         { runExperiment(b, "table4") }
func BenchmarkFig13BlockVsNoBlock(b *testing.B)   { runExperiment(b, "fig13") }
func BenchmarkFig14DotPlot(b *testing.B)          { runExperiment(b, "fig14") }
func BenchmarkFig15Phase2(b *testing.B)           { runExperiment(b, "fig15") }
func BenchmarkFig16GlobalAlign(b *testing.B)      { runExperiment(b, "fig16") }
func BenchmarkFig18Preprocess(b *testing.B)       { runExperiment(b, "fig18") }
func BenchmarkFig19BandSchemes(b *testing.B)      { runExperiment(b, "fig19") }
func BenchmarkFig20IOModes(b *testing.B)          { runExperiment(b, "fig20") }
func BenchmarkSec6ReverseRetrieval(b *testing.B)  { runExperiment(b, "sec6") }
func BenchmarkTables567Example(b *testing.B)      { runExperiment(b, "tables567") }
func BenchmarkAblations(b *testing.B)             { runExperiment(b, "ablations") }

// Kernel micro-benchmarks: cost per dynamic-programming cell for the
// exact and the heuristic recurrences (the constants behind every table).

func benchPair(n int) (bio.Sequence, bio.Sequence) {
	g := bio.NewGenerator(99)
	s := g.Random(n)
	return s, g.MutatedCopy(s, bio.DefaultMutationModel())
}

// reportCells reports throughput in DP cells per second, the unit the
// benchdiff regression harness tracks. cells is the number of matrix
// cells computed per benchmark iteration. (SetBytes with the same count
// also makes MB/s read as Mcells/s, kept for go-test familiarity.) It
// also turns on the allocs/op column, which pins the buffer-reuse work
// in the kernels and the wavefront strategies.
func reportCells(b *testing.B, cells int64) {
	b.Helper()
	b.ReportAllocs()
	b.SetBytes(cells)
	b.Cleanup(func() {
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(cells)*float64(b.N)/s, "cells/s")
		}
	})
}

func BenchmarkKernelExactScan(b *testing.B) {
	s, t := benchPair(1000)
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// align.Scan is scalar: the denominator the packed kernels are
		// measured against (and the oracle they are tested against).
		if _, err := align.Scan(s, t, bio.DefaultScoring(), align.ScanOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelHeuristicScan(b *testing.B) {
	s, t := benchPair(1000)
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.Scan(s, t, bio.DefaultScoring(),
			heuristics.Params{Open: 12, Close: 12, MinScore: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelColumnScan(b *testing.B) {
	s, t := benchPair(1000)
	reportCells(b, int64(s.Len())*int64(t.Len()))
	// A nil visit makes ColumnScan return without scanning (nothing
	// would observe the columns); the no-op keeps the kernel honest.
	visit := func(j int, col []int32) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := align.ColumnScan(s, t, bio.DefaultScoring(), visit); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelGotoh(b *testing.B) {
	s, t := benchPair(500)
	sc := align.AffineScoring{Match: 1, Mismatch: -1, GapOpen: -3, GapExtend: -1}
	var al align.AffineAligner // reused layer matrices: steady-state allocs only
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := al.BestLocalAffine(s, t, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelStepRow times the row kernel alone — two resident rows,
// no queue, no allocation — isolating the per-cell transition cost from
// Scan's setup and candidate handling.
func BenchmarkKernelStepRow(b *testing.B) {
	s, t := benchPair(1000)
	kern, err := heuristics.NewKernel(s, t, bio.DefaultScoring(),
		heuristics.Params{Open: 12, Close: 12, MinScore: 30})
	if err != nil {
		b.Fatal(err)
	}
	m, n := s.Len(), t.Len()
	prev := make([]heuristics.Cell, n+1)
	cur := make([]heuristics.Cell, n+1)
	reportCells(b, int64(m)*int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := range prev {
			prev[x] = heuristics.Cell{}
		}
		for r := 1; r <= m; r++ {
			cur[0] = heuristics.Cell{}
			kern.StepRow(prev, cur, r, 1, nil)
			prev, cur = cur, prev
		}
	}
}

// benchBatch returns a query plus count same-length random targets for
// the inter-sequence kernels: random data keeps every int8 lane far from
// the saturation cap, so the benchmark times the pure packed path.
func benchBatch(n, count int) (bio.Sequence, []bio.Sequence) {
	g := bio.NewGenerator(77)
	q := g.Random(n)
	targets := make([]bio.Sequence, count)
	for i := range targets {
		targets[i] = g.Random(n)
	}
	return q, targets
}

// BenchmarkKernelSWARScan times the 8-lane int8 inter-sequence kernel on
// a full lane group: 8 pairwise comparisons per pass, 8 DP cells per
// packed word, eight query rows per pass on an AVX2 host (two on the
// portable kernel). The acceptance bar for this kernel is ≥ 2× the
// scalar KernelExactScan cells/s; on amd64 with AVX2, where the pass
// runs on saturating byte ops over all four qwords of each YMM register,
// it measured 25–29× (same-run ratio over three -cpu 1 runs on a noisy
// host, alternated with the four-row SSE2 kernel's build, which read
// 19–22× beside it; 10.9–39.9× over four earlier runs of that kernel,
// 12.7–14.7× with two rows per SSE2 pass, 4.2–5.2× on the portable
// guard-bit kernel, 2.7–3.2× with one row per pass).
func BenchmarkKernelSWARScan(b *testing.B) {
	q, targets := benchBatch(1000, 8)
	var al swar.Aligner
	sc := bio.DefaultScoring()
	reportCells(b, int64(len(targets))*int64(q.Len())*int64(q.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := al.Scan8(q, targets, sc); !ok {
			b.Fatal("Scan8 rejected default scoring")
		}
	}
}

// BenchmarkKernelSWARScan16 times the 4-lane int16 fallback kernel:
// 15–20× KernelExactScan on the eight-row AVX2 kernel in the same three
// -cpu 1 runs (10–14× on the four-row SSE2 kernel beside it, 6.8–16.8×
// over its four earlier runs; 6.7–7.5× with two rows per pass).
func BenchmarkKernelSWARScan16(b *testing.B) {
	q, targets := benchBatch(1000, 4)
	var al swar.Aligner
	sc := bio.DefaultScoring()
	reportCells(b, int64(len(targets))*int64(q.Len())*int64(q.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := al.Scan16(q, targets, sc); !ok {
			b.Fatal("Scan16 rejected default scoring")
		}
	}
}

// BenchmarkKernelLadderSaturating times the ladder on a lane group that
// saturates int8 throughout: 8 planted homologs of a 600-row query, each
// a mutated copy behind a random prefix, scoring ≈ 450 against the int8
// cap of 127. Entered at RungInter8, as every group is, the int8 pass
// stops once all 8 lanes are flagged and the two int16 subgroups resume
// from the row entering the block of its first guard bit. cells/s counts
// the true cells, Σ|q|·|t|.
func BenchmarkKernelLadderSaturating(b *testing.B) {
	g := bio.NewGenerator(61)
	q := g.Random(600)
	targets := make([]bio.Sequence, bio.PackedLanes8)
	cells := int64(0)
	for i := range targets {
		targets[i] = append(g.Random(40+i*13), g.MutatedCopy(q, bio.DefaultMutationModel())...)
		cells += int64(q.Len()) * int64(targets[i].Len())
	}
	var al swar.Aligner
	sc := bio.DefaultScoring()
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Ladder(q, targets, sc, swar.RungInter8, nil, nil)
	}
}

// benchRandomPair returns two independent random sequences: unrelated
// data keeps local scores far below the int8 cap, so the striped
// benchmarks time the pure packed path with no fallback.
func benchRandomPair(n int) (bio.Sequence, bio.Sequence) {
	g := bio.NewGenerator(77)
	return g.Random(n), g.Random(n)
}

// BenchmarkKernelStripedScan times the striped intra-sequence int8
// kernel on a single pair — the Farrar-layout counterpart of the
// inter-sequence SWARScan; only the band kernel uses the layout in
// production. The acceptance bar is ≥ 2× the scalar KernelExactScan cells/s.
func BenchmarkKernelStripedScan(b *testing.B) {
	s, t := benchRandomPair(1000)
	var al swar.Aligner
	sc := bio.DefaultScoring()
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := al.StripedScan8(s, t, sc); !ok {
			b.Fatal("StripedScan8 saturated on random data")
		}
	}
}

// BenchmarkKernelStripedScan16 times the 4-lane int16 striped fallback.
func BenchmarkKernelStripedScan16(b *testing.B) {
	s, t := benchRandomPair(1000)
	var al swar.Aligner
	sc := bio.DefaultScoring()
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := al.StripedScan16(s, t, sc); !ok {
			b.Fatal("StripedScan16 saturated on random data")
		}
	}
}

// BenchmarkSearchDatabase times the full multicore database scan: lane
// batching, the worker pool over all host cores, and the top-K merge.
func BenchmarkSearchDatabase(b *testing.B) {
	g := bio.NewGenerator(88)
	q := g.Random(1000)
	var db []bio.Record
	cells := int64(0)
	for i := 0; i < 64; i++ {
		t := g.Random(500 + i*17%1000)
		db = append(db, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: t})
		cells += int64(q.Len()) * int64(t.Len())
	}
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(q, db, search.Options{NoEndpoints: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUniformDB is the BenchmarkSearchDatabase workload, shared by the
// sharded variant so their cells/s numbers are comparable.
func benchUniformDB() (bio.Sequence, []bio.Record, int64) {
	g := bio.NewGenerator(88)
	q := g.Random(1000)
	var db []bio.Record
	cells := int64(0)
	for i := 0; i < 64; i++ {
		t := g.Random(500 + i*17%1000)
		db = append(db, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: t})
		cells += int64(q.Len()) * int64(t.Len())
	}
	return q, db, cells
}

// benchSearch runs one search benchmark over a prebuilt workload with a
// warmup pass outside the timer, so first-use buffer and pool growth
// never lands in the measured window.
func benchSearch(b *testing.B, q bio.Sequence, db []bio.Record, cells int64, opt search.Options) {
	b.Helper()
	if _, err := search.Run(q, db, opt); err != nil {
		b.Fatal(err)
	}
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(q, db, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchDatabaseSharded times the uniform database scan
// scattered across a 4-shard in-process cluster (scatter, per-shard
// scan, floor gossip, merge). ci.sh gates it against
// BenchmarkSearchDatabase: the distribution layer must hold parity with
// a single-node scan on one host, since its wins come from adding
// hosts, not from overhead.
func BenchmarkSearchDatabaseSharded(b *testing.B) {
	q, recs, cells := benchUniformDB()
	db := search.NewDB(recs)
	c, err := shard.New(db, shard.Options{Shards: 4, Lease: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	opt := search.Options{NoEndpoints: true}
	if _, err := c.Search(context.Background(), q, opt); err != nil {
		b.Fatal(err)
	}
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(context.Background(), q, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHomologBatch builds the shape pruning decides on a sharded
// server: a dozen long planted homologs of a 500-base source, the
// longest records, among short noise, and a 4-query batch against it —
// two near copies of the source, unrelated noise and a half-length
// fragment. The database carries its lane layout, as a loaded pack
// does.
func benchHomologBatch() ([]search.BatchQuery, *search.DB) {
	g := bio.NewGenerator(89)
	src := g.Random(500)
	var recs []bio.Record
	for i := 0; i < 12; i++ {
		core := g.MutatedCopy(src, bio.DefaultMutationModel())
		pad := max(650-len(core), 0)
		seq := append(g.Random(pad/2), core...)
		recs = append(recs, bio.Record{ID: fmt.Sprintf("hom%d", i), Seq: append(seq, g.Random(pad-pad/2)...)})
	}
	for i := 0; i < 270; i++ {
		recs = append(recs, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: g.Random(60 + i*67%68)})
	}
	// Interleave the homologs into the noise, so record index says
	// nothing about length or homology.
	for i := range recs {
		j := (i*97 + 13) % len(recs)
		recs[i], recs[j] = recs[j], recs[i]
	}
	full := g.MutatedCopy(src, bio.DefaultMutationModel())
	batch := []search.BatchQuery{
		{Seq: full, TopK: 10},
		{Seq: g.MutatedCopy(full, bio.MutationModel{SubstitutionRate: 0.01}), TopK: 10},
		{Seq: g.Random(150), TopK: 10},
		{Seq: g.MutatedCopy(src[:250], bio.DefaultMutationModel()), TopK: 10},
	}
	db := search.NewDB(recs)
	db.EnsureLayout()
	return batch, db
}

// BenchmarkSearchShardedPruned runs the homolog batch through a 2-shard
// cluster and through search.RunBatch on the same database, alternating
// which goes first per iteration, and reports the time ratio
// sharded/single. It is the shard layer's cost where pruning decides
// the time: a shard that meets no homolog prunes only as fast as the
// shared floor reaches it. ci.sh gates the ratio at ≤ 1.3.
func BenchmarkSearchShardedPruned(b *testing.B) {
	batch, db := benchHomologBatch()
	c, err := shard.New(db, shard.Options{Shards: 2, Lease: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	opt := search.Options{Prune: true}
	run := func(sharded bool) time.Duration {
		start := time.Now()
		var err error
		if sharded {
			_, err = c.SearchBatch(context.Background(), batch, opt)
		} else {
			_, err = search.RunBatch(context.Background(), batch, db, opt)
		}
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	run(true)
	run(false)
	var sharded, single time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			sharded += run(true)
			single += run(false)
		} else {
			single += run(false)
			sharded += run(true)
		}
	}
	b.ReportMetric(float64(sharded)/float64(single), "sharded/single")
}

// benchMixedDB builds the workload that exercises the int16 retry path:
// two dozen long planted homologs whose scores blow past the int8 clean
// cap (every int8 pass over them flags lanes that retry at int16), and a
// long tail of short noise records that can never saturate (length ×
// match stays under the cap) and resolve in the int8 word-pass alone.
func benchMixedDB() (bio.Sequence, []bio.Record, int64) {
	g := bio.NewGenerator(88)
	q := g.Random(1000)
	var db []bio.Record
	cells := int64(0)
	add := func(id string, t bio.Sequence) {
		db = append(db, bio.Record{ID: id, Seq: t})
		cells += int64(q.Len()) * int64(t.Len())
	}
	for i := 0; i < 16; i++ {
		pad := g.Random(250 + i*7)
		add(fmt.Sprintf("hom%d", i), append(pad.Clone(), g.MutatedCopy(q, bio.DefaultMutationModel())...))
	}
	for i := 0; i < 360; i++ {
		add(fmt.Sprintf("r%d", i), g.Random(60+i*67%68)) // 60..127: below the int8 cap
	}
	return q, db, cells
}

func BenchmarkSearchDatabaseMixed(b *testing.B) {
	q, db, cells := benchMixedDB()
	benchSearch(b, q, db, cells, search.Options{NoEndpoints: true, Dispatch: "auto"})
}

// benchSkewedDB builds the skewed search workload the pruning gate is
// measured on: a handful of planted full-query homologs padded out to be
// the LONGEST records, followed by a long tail of shorter noise. The
// length-sorted scan order therefore meets the planted hits first, the
// top-K floor ratchets to the query's identity score immediately, and
// every noise record is either skipped by the O(1) record bound or
// abandoned at the first cadence check.
func benchSkewedDB() (bio.Sequence, []bio.Record, int64) {
	g := bio.NewGenerator(88)
	q := g.Random(1000)
	var db []bio.Record
	cells := int64(0)
	add := func(id string, t bio.Sequence) {
		db = append(db, bio.Record{ID: id, Seq: t})
		cells += int64(q.Len()) * int64(t.Len())
	}
	for i := 0; i < 12; i++ {
		pad := g.Random(450 + i*4)
		add(fmt.Sprintf("hom%d", i), append(pad.Clone(), q...))
	}
	for i := 0; i < 150; i++ {
		add(fmt.Sprintf("r%d", i), g.Random(300+i*1000/150))
	}
	return q, db, cells
}

// BenchmarkSearchDatabaseSkewed is the unpruned denominator of the
// pruning gate: the identical skewed database scanned end to end.
func BenchmarkSearchDatabaseSkewed(b *testing.B) {
	q, db, cells := benchSkewedDB()
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(q, db, search.Options{NoEndpoints: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchDatabasePruned runs the same skewed database with the
// three-stage exact pruning pipeline on. ci.sh gates this at ≥ 1.5× the
// cells/s of both SearchDatabaseSkewed and SearchDatabase; the cells
// denominator is the full matrix so the ratio reads as true end-to-end
// speedup, not work actually performed.
func BenchmarkSearchDatabasePruned(b *testing.B) {
	q, db, cells := benchSkewedDB()
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(q, db, search.Options{NoEndpoints: true, Prune: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelFullMatrix(b *testing.B) {
	s, t := benchPair(500)
	reportCells(b, int64(s.Len())*int64(t.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.BestLocal(s, t, bio.DefaultScoring()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelReverseBeginVsRetrieve times the §6 reverse sweep over
// one 1000 × 1000 pair in its two forms, alternated in every iteration
// with the first arm switched every iteration: ReverseRetrieve, the
// traceback form (arrows, Ops, the dense fallback), and Begin, the form
// the realign pool runs (the begin cell only, no arrows, and a
// score-to-go floor that drops the cells which cannot reach the score).
// Each arm's rate counts the cells it computed (Theorem 6.2's useful
// area; Begin's floor leaves fewer), so begin/retrieve is the ratio of
// per-cell rates — a same-run reading, so the host's speed that hour
// cancels. ci.sh gates its median over five runs at ≥ 2.
func BenchmarkKernelReverseBeginVsRetrieve(b *testing.B) {
	s, t := benchPair(1000)
	sc := bio.DefaultScoring()
	r, err := align.Scan(s, t, sc, align.ScanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var rt align.Retriever // reused arenas: steady-state allocs only
	_, rst, err := rt.ReverseRetrieve(s, t, sc, r.BestI, r.BestJ, r.BestScore)
	if err != nil {
		b.Fatal(err)
	}
	_, _, bst, ok := rt.Begin(s, t, sc, r.BestI, r.BestJ, r.BestScore)
	if !ok {
		b.Fatal("no alignment ends at the scan's best cell")
	}
	retrieve := func() time.Duration {
		start := time.Now()
		if _, _, err := rt.ReverseRetrieve(s, t, sc, r.BestI, r.BestJ, r.BestScore); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	begin := func() time.Duration {
		start := time.Now()
		rt.Begin(s, t, sc, r.BestI, r.BestJ, r.BestScore)
		return time.Since(start)
	}
	var tb, tr time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tb += begin()
			tr += retrieve()
		} else {
			tr += retrieve()
			tb += begin()
		}
	}
	beginRate := float64(b.N) * float64(bst.CellsComputed) / tb.Seconds()
	retrieveRate := float64(b.N) * float64(rst.CellsComputed) / tr.Seconds()
	b.ReportMetric(beginRate/retrieveRate, "begin/retrieve")
	b.ReportMetric(beginRate, "begin-cells/s")
	b.ReportMetric(retrieveRate, "retrieve-cells/s")
}

// homologBeginItems returns the Begin calls of the homolog batch's final
// hits: each hit's query and record, its end cell and its score.
func homologBeginItems(b *testing.B) []align.BeginItem {
	batch, db := benchHomologBatch()
	out, err := search.RunBatch(context.Background(), batch, db, search.Options{Prune: true})
	if err != nil {
		b.Fatal(err)
	}
	var items []align.BeginItem
	for qi, br := range out {
		for _, h := range br.Result.Hits {
			items = append(items, align.BeginItem{
				S: batch[qi].Seq, T: db.Records()[h.Index].Seq,
				EndI: h.QEnd, EndJ: h.TEnd, K: h.Score,
			})
		}
	}
	return items
}

// BenchmarkBeginLanesVsScalar times the begin sweeps of the homolog
// batch's 40 final hits in its two forms, alternated in every iteration
// with the first arm switched every iteration: BeginLanes in passes of
// ten hits sorted by box, end row × end column — the deal the finish
// pass makes on two workers — and Begin one hit at a time. scalar/lanes
// is their time ratio, a same-run reading, so the host's speed that hour
// cancels. ci.sh gates its median over five runs.
func BenchmarkBeginLanesVsScalar(b *testing.B) {
	if !swar.HasBeginRow() {
		b.Skip("no begin-row lane kernel on this host")
	}
	items := homologBeginItems(b)
	slices.SortStableFunc(items, func(x, y align.BeginItem) int {
		return cmp.Compare(y.EndI*y.EndJ, x.EndI*x.EndJ)
	})
	sc := bio.DefaultScoring()
	var rt align.Retriever // reused scratch: steady-state allocs only
	lanes := func() time.Duration {
		start := time.Now()
		for i := 0; i < len(items); i += 10 {
			if n := rt.BeginLanes(sc, items[i:min(i+10, len(items))]); n != min(10, len(items)-i) {
				b.Fatalf("%d items of a pass ran in lanes", n)
			}
		}
		return time.Since(start)
	}
	scalar := func() time.Duration {
		start := time.Now()
		for _, it := range items {
			if _, _, _, ok := rt.Begin(it.S, it.T, sc, it.EndI, it.EndJ, it.K); !ok {
				b.Fatal("no alignment ends at a final hit's end cell")
			}
		}
		return time.Since(start)
	}
	lanes()
	scalar()
	var tl, ts time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tl += lanes()
			ts += scalar()
		} else {
			ts += scalar()
			tl += lanes()
		}
	}
	b.ReportMetric(ts.Seconds()/tl.Seconds(), "scalar/lanes")
	b.ReportMetric(float64(len(items)), "hits")
}

// homologLocateItems returns the LocateEnd calls of the homolog batch's
// final hits: each hit's query and record, the end block and saved
// border row a packed rung leaves for it — the record alone down the
// lane ladder gives the same ones as its lane group, as both are a
// function of the pair — and its score.
func homologLocateItems(b *testing.B) []swar.LocateItem {
	batch, db := benchHomologBatch()
	out, err := search.RunBatch(context.Background(), batch, db, search.Options{Prune: true})
	if err != nil {
		b.Fatal(err)
	}
	sc := bio.DefaultScoring()
	var al swar.Aligner
	var items []swar.LocateItem
	for qi, br := range out {
		for _, h := range br.Result.Hits {
			q, t := batch[qi].Seq, db.Records()[h.Index].Seq
			res := al.Ladder(q, []bio.Sequence{t}, sc, swar.RungInter8, nil, nil)
			if res.Seeded&1 == 0 || res.Scores[0] != h.Score {
				b.Fatalf("hit %q: the ladder scores %d (seeded %v), the search %d", h.ID, res.Scores[0], res.Seeded&1 != 0, h.Score)
			}
			items = append(items, swar.LocateItem{Q: q, T: t, Block: res.EndBlock[0], Seed: slices.Clone(al.Seed(0)), Score: h.Score})
		}
	}
	return items
}

// BenchmarkLocateLanesVsScalar times the end cells of the homolog
// batch's 40 final hits in their two forms, alternated in every
// iteration with the first arm switched every iteration: LocateLanes in
// passes of ten hits sorted by the box of their replay, block rows ×
// target length — the deal the finish pass makes on two workers — and
// LocateEnd one hit at a time. scalar/lanes is their time ratio, a
// same-run reading, so the host's speed that hour cancels. ci.sh gates
// its median over five runs.
func BenchmarkLocateLanesVsScalar(b *testing.B) {
	if !swar.HasBeginRow() {
		b.Skip("no lane kernel on this host")
	}
	items := homologLocateItems(b)
	box := func(it swar.LocateItem) int {
		return min(swar.BlockRows, len(it.Q)-it.Block*swar.BlockRows) * len(it.T)
	}
	slices.SortStableFunc(items, func(x, y swar.LocateItem) int { return cmp.Compare(box(y), box(x)) })
	sc := bio.DefaultScoring()
	var al swar.Aligner // reused scratch: steady-state allocs only
	lanes := func() time.Duration {
		start := time.Now()
		for i := 0; i < len(items); i += 10 {
			pass := items[i:min(i+10, len(items))]
			if n := al.LocateLanes(sc, pass); n != len(pass) {
				b.Fatalf("%d items of a pass of %d ran in lanes", n, len(pass))
			}
			for _, it := range pass {
				if !it.OK {
					b.Fatal("a final hit's end block does not reach its score")
				}
			}
		}
		return time.Since(start)
	}
	scalar := func() time.Duration {
		start := time.Now()
		for _, it := range items {
			if _, _, ok := al.LocateEnd(it.Q, it.T, sc, it.Block, it.Seed, it.Score); !ok {
				b.Fatal("a final hit's end block does not reach its score")
			}
		}
		return time.Since(start)
	}
	lanes()
	scalar()
	var tl, ts time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tl += lanes()
			ts += scalar()
		} else {
			ts += scalar()
			tl += lanes()
		}
	}
	b.ReportMetric(ts.Seconds()/tl.Seconds(), "scalar/lanes")
	b.ReportMetric(float64(len(items)), "hits")
}

// BenchmarkSearchRealign measures the realign stage alone — finding the
// end cell plus the §6 reverse retrieval of ten final hits, fanned over
// the realign pool — in the two shapes the serve-path benchmark spends
// it on: homolog hits, where the reverse sweep's useful area is large,
// and short hits of a 20 kb query, where it is small. The plain rows
// realign hand-built hits, which know no end cell and scan whole
// matrices forward first, one target down the lane ladder
// (swar.(*Aligner).ScanPair); the /scanned rows take their hits from a
// NoEndpoints scan, end cells included, so only the reverse sweep is
// left — what serve pays. cells/s counts the forward matrices, Σ|q|·|t|,
// in every row, so a scanned row's rate is the whole-matrix equivalent.
// Run with -cpu 1,2 for the pool's scaling; ci.sh gates the hand-built
// 20 kb row on it.
func BenchmarkSearchRealign(b *testing.B) {
	g := bio.NewGenerator(123)
	homQ := g.Random(600)
	var homDB []bio.Record
	for i := 0; i < 10; i++ {
		t := append(g.Random(200), g.MutatedCopy(homQ, bio.DefaultMutationModel())...)
		homDB = append(homDB, bio.Record{ID: fmt.Sprintf("hom%d", i), Seq: append(t, g.Random(200)...)})
	}
	longQ := g.Random(20000)
	var longDB []bio.Record
	for i := 0; i < 10; i++ {
		longDB = append(longDB, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: g.Random(500)})
	}
	for _, shape := range []struct {
		name    string
		q       bio.Sequence
		db      []bio.Record
		scanned bool
	}{
		{"homolog600x1000", homQ, homDB, false},
		{"homolog600x1000/scanned", homQ, homDB, true},
		{"long20000x500", longQ, longDB, false},
		{"long20000x500/scanned", longQ, longDB, true},
	} {
		b.Run(shape.name, func(b *testing.B) {
			sc := bio.DefaultScoring()
			var hits []search.Hit
			cells := int64(0)
			for i, rec := range shape.db {
				cells += int64(shape.q.Len()) * int64(rec.Seq.Len())
				if shape.scanned {
					continue
				}
				r, err := align.Scan(shape.q, rec.Seq, sc, align.ScanOptions{})
				if err != nil {
					b.Fatal(err)
				}
				hits = append(hits, search.Hit{Index: i, ID: rec.ID, Score: r.BestScore})
			}
			if shape.scanned {
				res, err := search.Run(shape.q, shape.db, search.Options{TopK: len(shape.db), NoEndpoints: true})
				if err != nil {
					b.Fatal(err)
				}
				hits = res.Hits
			}
			reportCells(b, cells)
			// Realign consumes a hit's end cell with its span, so every
			// iteration starts from a fresh copy.
			work := make([]search.Hit, len(hits))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, hits)
				if err := search.Realign(shape.q, shape.db, sc, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Resident-service benchmarks: end-to-end HTTP query cost against the
// in-process search server. The workload is deliberately tiny (16-base
// queries, 16 short records) so the per-request fixed costs — HTTP
// round trip, JSON, per-scan setup — dominate the DP work; that is the
// regime the batching path exists for. ci.sh gates
// ServeThroughputBatched at ≥ 1.5× ServeQueryLatency queries/s: one
// POST carrying BatchMax queries shares a single database scan and one
// round trip, so the amortization must show up even on one core.

// benchServeQueries builds the shared serve workload: the HTTP test
// server (resident over a small synthetic database) plus count query
// sequences and the per-query full-matrix cell count.
func benchServeQueries(b *testing.B, count int) (*httptest.Server, []bio.Sequence, int64) {
	b.Helper()
	g := bio.NewGenerator(88)
	var recs []bio.Record
	bases := int64(0)
	for i := 0; i < 16; i++ {
		t := g.Random(40 + i*24%25)
		recs = append(recs, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: t})
		bases += int64(t.Len())
	}
	queries := make([]bio.Sequence, count)
	for i := range queries {
		queries[i] = g.Random(16)
	}
	srv, err := server.New(server.Config{
		DB:      search.NewDB(recs),
		Options: search.Options{TopK: 5, NoEndpoints: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})
	return hs, queries, 16 * bases
}

// benchServePost sends one /search POST and fails the benchmark on any
// non-200 answer; the response body must be drained for the keep-alive
// connection to be reused.
func benchServePost(b *testing.B, c *http.Client, url string, body []byte) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("search answered %d", resp.StatusCode)
	}
}

// reportQueries adds the queries/s metric the serve gate reads,
// alongside reportCells' cells/s for the benchdiff snapshot.
func reportQueries(b *testing.B, perIter int) {
	b.Cleanup(func() {
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(perIter)*float64(b.N)/s, "queries/s")
		}
	})
}

// BenchmarkServeQueryLatency times the sequential client: one query per
// POST, a full HTTP round trip and a private database scan each.
func BenchmarkServeQueryLatency(b *testing.B) {
	hs, queries, cellsPerQuery := benchServeQueries(b, 1)
	body, err := json.Marshal(map[string]any{"query": queries[0].String(), "top_k": 5})
	if err != nil {
		b.Fatal(err)
	}
	c := hs.Client()
	url := hs.URL + "/search"
	benchServePost(b, c, url, body) // warmup: buffer pools, conn setup
	reportCells(b, cellsPerQuery)
	reportQueries(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServePost(b, c, url, body)
	}
}

// BenchmarkServeThroughputBatched times the batched client: 16 queries
// in one POST, which the server answers with one shared scan.
func BenchmarkServeThroughputBatched(b *testing.B) {
	const batch = 16
	hs, queries, cellsPerQuery := benchServeQueries(b, batch)
	qs := make([]map[string]any, batch)
	for i, q := range queries {
		qs[i] = map[string]any{"seq": q.String(), "top_k": 5}
	}
	body, err := json.Marshal(map[string]any{"queries": qs})
	if err != nil {
		b.Fatal(err)
	}
	c := hs.Client()
	url := hs.URL + "/search"
	benchServePost(b, c, url, body)
	reportCells(b, int64(batch)*cellsPerQuery)
	reportQueries(b, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServePost(b, c, url, body)
	}
}

func BenchmarkCompareBlocked8(b *testing.B) {
	g := bio.NewGenerator(123)
	pair, err := g.HomologousPair(1500, bio.DefaultHomologyModel(1500))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(pair.S, pair.T, Options{
			Strategy: StrategyHeuristicBlock, Processors: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPackDB is a database sized so pack load cost is visible: 256
// records around 1kb each.
func benchPackDB() (bio.Sequence, []bio.Record, int64) {
	g := bio.NewGenerator(88)
	q := g.Random(1000)
	var db []bio.Record
	cells := int64(0)
	for i := 0; i < 256; i++ {
		t := g.Random(500 + i*37%1000)
		db = append(db, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: t})
		cells += int64(q.Len()) * int64(t.Len())
	}
	return q, db, cells
}

// benchPackFile writes the benchPackDB database as one pack file and
// returns its path.
func benchPackFile(b *testing.B) string {
	b.Helper()
	_, recs, _ := benchPackDB()
	p, err := dbpack.Build(recs, 0)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.pack")
	if err := dbpack.WriteFileV2(path, p); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkPackColdStartV2 times open → first-query-ready: load the
// pack, answer one short query through the full fast path (lane layout
// included), close. This is the serve-restart metric the v2 format
// exists for.
func BenchmarkPackColdStartV2(b *testing.B) {
	path := benchPackFile(b)
	q := bio.NewGenerator(7).Random(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := dbpack.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := search.RunCtx(context.Background(), q, p.DB, search.Options{NoEndpoints: true}); err != nil {
			b.Fatal(err)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchDatabasePackV2 scans through an mmap-opened v2 pack:
// the kernels read lane words straight out of the mapped section.
// Comparable against BenchmarkSearchDatabase8 tier numbers via cells/s.
func BenchmarkSearchDatabasePackV2(b *testing.B) {
	path := benchPackFile(b)
	p, err := dbpack.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	q, _, cells := benchPackDB()
	opt := search.Options{NoEndpoints: true}
	if _, err := search.RunCtx(context.Background(), q, p.DB, opt); err != nil {
		b.Fatal(err)
	}
	reportCells(b, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.RunCtx(context.Background(), q, p.DB, opt); err != nil {
			b.Fatal(err)
		}
	}
}
