package search

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// realignBatch builds a multi-query batch over one database with hits
// of very different sizes, so the longest-first schedule differs from
// the (query, hit) order.
func realignBatch(t *testing.T, seed int64) ([]BatchQuery, []bio.Record) {
	t.Helper()
	g := bio.NewGenerator(seed)
	lens := []int{120, 400, 60, 250}
	queries := make([]BatchQuery, len(lens))
	var db []bio.Record
	for i, n := range lens {
		q := g.Random(n)
		queries[i] = BatchQuery{Seq: q, TopK: 3 + i}
		db = append(db, testDB(t, seed+int64(i)+1, q, 6, 4)...)
	}
	for i := range db {
		db[i].ID = fmt.Sprintf("%s.%d", db[i].ID, i)
	}
	return queries, db
}

// TestRealignPoolWorkerCountInvariant: the pooled realign returns the
// same hits — order and all four coordinates — on one goroutine, on
// four, and for the Lanes: 1 scalar reference scan, across random
// multi-query batches. ci.sh runs it under -race.
func TestRealignPoolWorkerCountInvariant(t *testing.T) {
	for _, seed := range []int64{3, 41, 97} {
		queries, recs := realignBatch(t, seed)
		db := NewDB(recs)
		run := func(opt Options) []BatchResult {
			t.Helper()
			brs, err := RunBatch(context.Background(), queries, db, opt)
			if err != nil {
				t.Fatalf("seed %d %+v: %v", seed, opt, err)
			}
			return brs
		}
		want := run(Options{Workers: 1})
		for _, opt := range []Options{{Workers: 4}, {Workers: 4, Prune: true}, {Workers: 4, Lanes: 1}, {Workers: 1, Lanes: 1}} {
			got := run(opt)
			for qi := range want {
				if want[qi].Err != nil || got[qi].Err != nil {
					t.Fatalf("seed %d query %d: errors %v / %v", seed, qi, want[qi].Err, got[qi].Err)
				}
				requireSameHits(t, fmt.Sprintf("seed %d query %d %+v", seed, qi, opt), got[qi].Result.Hits, want[qi].Result.Hits)
			}
		}
		for qi, br := range want {
			if len(br.Result.Hits) == 0 {
				t.Fatalf("seed %d query %d: no hits", seed, qi)
			}
			for _, h := range br.Result.Hits {
				if h.QBegin < 1 || h.QEnd < h.QBegin || h.TBegin < 1 || h.TEnd < h.TBegin {
					t.Errorf("seed %d query %d: hit %+v has no span", seed, qi, h)
				}
			}
		}
	}
}

// scannedBatch is a batch scanned without endpoints: the input of a
// direct RealignBatch call.
func scannedBatch(t *testing.T, seed int64) ([]BatchQuery, []BatchResult, []bio.Record) {
	t.Helper()
	queries, recs := realignBatch(t, seed)
	brs, err := RunBatch(context.Background(), queries, NewDB(recs), Options{NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	return queries, brs, recs
}

// TestRealignBatchCancelledQuery: a query whose context has fired ends
// with the context error, no hits and untouched coordinates, while the
// other query of the call is bit-identical to a solo Realign.
func TestRealignBatchCancelledQuery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		queries, brs, recs := scannedBatch(t, 5)
		queries, brs = queries[:2], brs[:2]
		solo := append([]Hit(nil), brs[1].Result.Hits...)
		if err := Realign(queries[1].Seq, recs, bio.Scoring{}, solo); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		queries[0].Ctx = ctx
		dead := brs[0].Result.Hits
		searched := brs[0].Result.Searched
		if err := RealignBatch(context.Background(), queries, brs, recs, bio.Scoring{}, workers); err != nil {
			t.Fatal(err)
		}
		if brs[0].Err != context.Canceled || brs[0].Result.Hits != nil || brs[0].Result.Searched != searched {
			t.Errorf("workers %d: cancelled query = %+v, err %v", workers, brs[0].Result, brs[0].Err)
		}
		for _, h := range dead {
			if h.QBegin != 0 || h.QEnd != 0 || h.TBegin != 0 || h.TEnd != 0 {
				t.Errorf("workers %d: cancelled query paid for %+v", workers, h)
			}
		}
		if brs[1].Err != nil {
			t.Fatalf("workers %d: live query: %v", workers, brs[1].Err)
		}
		requireSameHits(t, fmt.Sprintf("workers %d live query", workers), brs[1].Result.Hits, solo)
	}
}

// TestRealignDisagreementReportsFirstItem: for a hit that arrives
// without an end cell the exact rescan is the safety net, so one whose
// score is off by one fails the batch — and with several such hits the
// error names the first in (query, hit) order on any worker count,
// although the longest-first schedule reaches the later, larger ones
// first. A located hit is not rescanned; a score one too high still
// fails it, inside the reverse sweep: no alignment of that score ends at
// its cell.
func TestRealignDisagreementReportsFirstItem(t *testing.T) {
	var msgs []string
	for _, workers := range []int{1, 2, 4} {
		queries, brs, recs := scannedBatch(t, 9)
		for _, br := range brs {
			for i := range br.Result.Hits {
				br.Result.Hits[i].endI, br.Result.Hits[i].endJ = 0, 0
			}
		}
		// Query 2 is the 60 bp one, query 1 the 400 bp one: its items
		// sort first. Corrupt the last hit of query 0 and hits of the
		// larger queries after it.
		first := &brs[0].Result.Hits[len(brs[0].Result.Hits)-1]
		first.Score++
		brs[1].Result.Hits[0].Score--
		brs[3].Result.Hits[1].Score++
		err := RealignBatch(context.Background(), queries, brs, recs, bio.Scoring{}, workers)
		if err == nil || !strings.Contains(err.Error(), "disagrees with the exact rescan") ||
			!strings.Contains(err.Error(), fmt.Sprintf("%q", first.ID)) {
			t.Fatalf("workers %d: err = %v, want the disagreement on %s", workers, err, first.ID)
		}
		msgs = append(msgs, err.Error())

		queries, brs, recs = scannedBatch(t, 9)
		located := &brs[1].Result.Hits[0]
		if located.endI == 0 {
			t.Fatalf("workers %d: the scan returned %+v unlocated", workers, *located)
		}
		located.Score++
		err = RealignBatch(context.Background(), queries, brs, recs, bio.Scoring{}, workers)
		if err == nil || !strings.Contains(err.Error(), "ends at the located cell") ||
			!strings.Contains(err.Error(), fmt.Sprintf("%q", located.ID)) {
			t.Fatalf("workers %d: err = %v, want the reverse sweep's refusal of %s", workers, err, located.ID)
		}
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Errorf("error depends on the worker count: %q vs %q", msgs[0], m)
		}
	}
}

// TestRealignLocatedAllocs: a located hit's span costs one arrow-free
// reverse sweep on a pooled Retriever, so a warm Realign of ten located
// homolog hits allocates only the pool pass's own bookkeeping — at most
// two allocations per hit, where a traceback per hit cost ten.
func TestRealignLocatedAllocs(t *testing.T) {
	g := bio.NewGenerator(123)
	q := g.Random(300)
	var db []bio.Record
	for i := 0; i < 10; i++ {
		seq := append(g.Random(50), g.MutatedCopy(q, bio.DefaultMutationModel())...)
		db = append(db, bio.Record{ID: fmt.Sprintf("hom%d", i), Seq: append(seq, g.Random(50)...)})
	}
	res, err := Run(q, db, Options{TopK: len(db), NoEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != len(db) {
		t.Fatalf("%d hits, want %d", len(res.Hits), len(db))
	}
	for _, h := range res.Hits {
		if h.endI == 0 {
			t.Fatalf("hit %+v arrived unlocated", h)
		}
	}
	work := make([]Hit, len(res.Hits))
	run := func() {
		copy(work, res.Hits)
		if err := Realign(q, db, bio.Scoring{}, work); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pooled Retrievers
	perHit := testing.AllocsPerRun(20, run) / float64(len(work))
	t.Logf("%.2f allocs per hit", perHit)
	if perHit > 2 {
		t.Errorf("Realign: %.2f allocs per located hit, want ≤ 2", perHit)
	}
}

// TestFinishPanicFailsBatch: a panic planted in one lane pass of the
// finish pass's first phase, the end cells, fails its batch with the
// error of the pass's first hit in (query, hit) order, on one worker and
// on four, and the next batch — on the same pools — is bit-identical to
// the first clean one.
func TestFinishPanicFailsBatch(t *testing.T) {
	checkPassPanic(t, &TestHookFinish)
}

// TestLanePassPanicFailsBatch is TestFinishPanicFailsBatch for a lane
// pass of the finish pass's sweeps.
func TestLanePassPanicFailsBatch(t *testing.T) {
	checkPassPanic(t, &TestHookLanePass)
}

// checkPassPanic plants a panic with hook in the lane pass holding the
// batch's last hit: on a host with the lane kernel that pass holds
// others, so its first hit is not the planted one. The batch must fail
// with the error of the pass's first hit in (query, hit) order, and the
// next batch must match the first clean one.
func checkPassPanic(t *testing.T, hook *func(items []int)) {
	queries, recs := realignBatch(t, 5)
	db := NewDB(recs)
	for _, workers := range []int{1, 4} {
		opt := Options{Workers: workers, Prune: true}
		clean, err := RunBatch(context.Background(), queries, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		var order []string // each hit's name in (query, hit) order
		for qi, br := range clean {
			for _, h := range br.Result.Hits {
				order = append(order, fmt.Sprintf("hit %q of query %d", h.ID, qi))
			}
		}
		var mu sync.Mutex
		var planted []int
		*hook = func(items []int) {
			if slices.Contains(items, len(order)-1) {
				mu.Lock()
				planted = slices.Clone(items)
				mu.Unlock()
				panic("planted")
			}
		}
		_, err = RunBatch(context.Background(), queries, db, opt)
		*hook = nil
		if planted == nil {
			t.Fatalf("workers %d: no pass held the last hit", workers)
		}
		want := order[slices.Min(planted)] + " panicked: planted"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("workers %d: err = %v, want %q", workers, err, want)
		}
		if swar.HasBeginRow() && len(planted) < 2 {
			t.Errorf("workers %d: the planted pass holds %d hits, want a lane pass of several", workers, len(planted))
		}
		got, err := RunBatch(context.Background(), queries, db, opt)
		if err != nil {
			t.Fatalf("workers %d: batch after the panic: %v", workers, err)
		}
		for qi := range queries {
			if fmt.Sprint(got[qi].Result.Hits) != fmt.Sprint(clean[qi].Result.Hits) {
				t.Errorf("workers %d query %d: hits after the panic %v, before %v", workers, qi, got[qi].Result.Hits, clean[qi].Result.Hits)
			}
		}
	}
}

// TestScanPanicFailsBatch: a panic planted in a scan worker's work item
// fails the batch with an error instead of killing the process — in one
// group, and in every group, where every worker fails and the feed must
// still finish — and the next batch matches per-query Runs.
func TestScanPanicFailsBatch(t *testing.T) {
	queries, recs := realignBatch(t, 7)
	db := NewDB(recs)
	if len(db.groups) < 2 {
		t.Fatalf("%d lane groups, want several", len(db.groups))
	}
	for _, workers := range []int{1, 4} {
		for _, every := range []bool{false, true} {
			opt := Options{Workers: workers, Prune: true}
			TestHookScan = func(group int) {
				if every || group == 1 {
					panic("planted")
				}
			}
			_, err := RunBatch(context.Background(), queries, db, opt)
			TestHookScan = nil
			if err == nil || !strings.Contains(err.Error(), "scan worker panicked: planted") {
				t.Fatalf("workers %d every %v: err = %v, want the planted panic", workers, every, err)
			}
			got, err := RunBatch(context.Background(), queries, db, opt)
			if err != nil {
				t.Fatalf("workers %d: batch after the panic: %v", workers, err)
			}
			for qi, bq := range queries {
				want, err := Run(bq.Seq, recs, Options{TopK: bq.TopK, Workers: workers, Prune: true})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got[qi].Result.Hits) != fmt.Sprint(want.Hits) {
					t.Errorf("workers %d query %d: hits after the panic %v, Run %v", workers, qi, got[qi].Result.Hits, want.Hits)
				}
			}
		}
	}
}
