package search

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
)

// Realign is the one-query form of RealignBatch: it fills the alignment
// spans of hits, the final top K of q, on up to runtime.NumCPU()
// goroutines. A zero sc means bio.DefaultScoring.
func Realign(q bio.Sequence, db []bio.Record, sc bio.Scoring, hits []Hit) error {
	out := []BatchResult{{Result: &Result{Hits: hits}}}
	return RealignBatch(context.Background(), []BatchQuery{{Seq: q}}, out, db, sc, 0)
}

// RealignBatch fills the alignment spans of every final hit of a batch
// with the exact kernels: align.Scan (striped when the scheme fits,
// scalar otherwise) finds the end cell, ReverseRetrieve walks back to
// the start. Only the K winners of each query pay this cost, and the
// exact re-scan doubles as a safety net: a score disagreeing with the
// packed inter-sequence kernel is a kernel bug and is reported, never
// papered over.
//
// Every (query, hit) pair of the batch is one independent work item.
// The items run on min(workers, items) goroutines (workers ≤ 0 means
// runtime.NumCPU(); one worker or one item runs on the caller), handed
// out dynamically in decreasing |q|·|t| order — the longest-first rule,
// so the largest realignment is never the last item started. Each
// worker owns one align.Retriever for the whole call.
//
// out[i] belongs to queries[i]; entries that already carry an Err are
// left alone. A query whose context (BatchQuery.Ctx, or ctx when nil)
// fires stops paying for its remaining items and ends like a query
// cancelled during the scan: out[i].Err is the context error and its
// Hits are dropped, diagnostics kept, while the rest of the batch
// completes. The returned error fails the whole batch; when several
// items fail it is the error of the first one in (query, hit) order,
// whatever the scheduling was.
func RealignBatch(ctx context.Context, queries []BatchQuery, out []BatchResult, db []bio.Record, sc bio.Scoring, workers int) error {
	if sc == (bio.Scoring{}) {
		sc = bio.DefaultScoring()
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	ctxOf := func(qi int) context.Context {
		if c := queries[qi].Ctx; c != nil {
			return c
		}
		return ctx
	}
	type item struct {
		n, qi int // n: position in (query, hit) order
		hit   *Hit
		cells int64
	}
	var items []item
	for qi := range out {
		if out[qi].Err != nil {
			continue
		}
		hits := out[qi].Result.Hits
		for hi := range hits {
			cells := int64(len(queries[qi].Seq)) * int64(len(db[hits[hi].Index].Seq))
			items = append(items, item{len(items), qi, &hits[hi], cells})
		}
	}
	// errs stays in (query, hit) order while the schedule is sorted.
	errs := make([]error, len(items))
	sort.SliceStable(items, func(a, b int) bool { return items[a].cells > items[b].cells })

	var next atomic.Int64
	work := func() {
		var rt align.Retriever
		for {
			i := int(next.Add(1)) - 1
			if i >= len(items) {
				return
			}
			it := items[i]
			if ctxOf(it.qi).Err() != nil {
				continue
			}
			errs[it.n] = realignHit(&rt, queries[it.qi].Seq, db[it.hit.Index].Seq, sc, it.hit)
		}
	}
	if workers = min(workers, len(items)); workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for qi := range out {
		if err := ctxOf(qi).Err(); err != nil && out[qi].Err == nil {
			out[qi].Result.Hits = nil
			out[qi].Err = err
		}
	}
	return nil
}

// realignHit fills one hit's spans from the exact kernels.
func realignHit(rt *align.Retriever, q, t bio.Sequence, sc bio.Scoring, h *Hit) error {
	// The hit's score is already known: passing it as ExpectScore lets
	// the scan skip packed rungs it proves will saturate.
	r, err := align.Scan(q, t, sc, align.ScanOptions{ExpectScore: h.Score})
	if err != nil {
		return err
	}
	if r.BestScore != h.Score {
		return fmt.Errorf("search: packed score %d for %q disagrees with scalar %d",
			h.Score, h.ID, r.BestScore)
	}
	al, _, err := rt.ReverseRetrieve(q, t, sc, r.BestI, r.BestJ, r.BestScore)
	if err != nil {
		return err
	}
	h.QBegin, h.QEnd = al.SBegin, al.SEnd
	h.TBegin, h.TEnd = al.TBegin, al.TEnd
	return nil
}
