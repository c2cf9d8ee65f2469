package search

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// Realign is the one-query form of RealignBatch: it fills the alignment
// spans of hits, the final top K of q, on up to runtime.NumCPU()
// goroutines — walking back from the end cell for hits that come from a
// NoEndpoints scan of q, scanning whole matrices forward first for any
// others. A zero sc means bio.DefaultScoring.
func Realign(q bio.Sequence, db []bio.Record, sc bio.Scoring, hits []Hit) error {
	out := []BatchResult{{Result: &Result{Hits: hits}}}
	return RealignBatch(context.Background(), []BatchQuery{{Seq: q}}, out, db, sc, 0)
}

// RealignBatch fills the alignment spans of every final hit of a batch:
// align.Retriever.Begin runs the §6 reverse sweep from the hit's end
// cell to the start of the alignment, and on the way proves that an
// alignment of the hit's score ends there. A hit keeps four coordinates
// and no alignment, so the sweep records no traceback: cell values live
// in its two rolling rows only. Only the K winners of each query pay
// this cost.
//
// A hit straight from a scan carries its end cell, which the scan
// located with the score check built in (finishHits). A hit without one
// — built by hand, or already realigned — gets it from an exact
// align.Scan of the whole matrix (striped when the scheme fits, scalar
// otherwise), which doubles as the safety net for such hits: a score
// disagreeing with the rescan is reported, never papered over. Filling
// a hit's span clears its end cell, so a realigned hit compares equal
// whichever way it came.
//
// Every (query, hit) pair of the batch is one independent work item.
// The items run on min(workers, items) goroutines (workers ≤ 0 means
// runtime.NumCPU(); one worker or one item runs on the caller), handed
// out dynamically in decreasing order of the box the item sweeps, end
// row × end column (the whole matrix where the cell is unknown) — the
// longest-first rule, so the largest realignment is never the last item
// started. Each worker holds one pooled align.Retriever and one pooled
// swar.Aligner for the whole call. Result.RealignCells says what the
// items of a query add up to.
//
// out[i] belongs to queries[i]; entries that already carry an Err are
// left alone. A query whose context (BatchQuery.Ctx, or ctx when nil)
// fires stops paying for its remaining items and ends like a query
// cancelled during the scan: out[i].Err is the context error and its
// Hits are dropped, diagnostics kept (RealignCells then counts the
// items that ran), while the rest of the batch completes. The returned
// error fails the whole batch; when several items fail it is the error
// of the first one in (query, hit) order, whatever the scheduling was.
func RealignBatch(ctx context.Context, queries []BatchQuery, out []BatchResult, db []bio.Record, sc bio.Scoring, workers int) error {
	return finishHits(ctx, queries, out, db, sc, workers, nil, true)
}

// finishHits is the one pool pass over the final hits of a batch, and
// each item is locate, then reverse. from, when non-nil, holds per query
// the scan's merged heap entries, from[qi][i] behind out[qi].Result.Hits[i]:
// a hit the packed rungs scored has no end cell yet, only the entry's
// end block and saved border row, and swar.LocateEnd replays that block
// to the cell. The replay is also where such a score is checked, over
// the block it was claimed for: a block that never reaches the score,
// or exceeds it first, is a kernel bug and fails the batch. spans then runs the reverse sweep of
// RealignBatch on every hit; without it (a NoEndpoints scan) the pass
// stops at the end cells.
//
// A panic in an item's locate or reverse sweep, a kernel bug, becomes
// that item's error: it fails the batch like any other, and the process
// lives on. The worker then drops the Retriever and Aligner it held
// mid-item instead of pooling them.
func finishHits(ctx context.Context, queries []BatchQuery, out []BatchResult, db []bio.Record, sc bio.Scoring, workers int, from [][]scored, spans bool) error {
	if sc == (bio.Scoring{}) {
		sc = bio.DefaultScoring()
	}
	if err := sc.Validate(); err != nil {
		return err
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
		from  *scored // block and seed of a hit still to be located
		box   int64   // the schedule key
		cells int64   // what the item adds to RealignCells
	}
	total := 0
	for qi := range out {
		total += len(out[qi].Result.Hits)
	}
	items := make([]item, 0, total)
	for qi := range out {
		if out[qi].Err != nil {
			continue
		}
		hits := out[qi].Result.Hits
		for i := range hits {
			it := item{n: len(items), qi: qi, hit: &hits[i]}
			m, n := int64(len(queries[qi].Seq)), int64(len(db[it.hit.Index].Seq))
			switch {
			case it.hit.endI > 0:
				it.box = int64(it.hit.endI) * int64(it.hit.endJ)
			case from != nil:
				it.from = &from[qi][i]
				it.box = min(int64(it.from.endI+swar.BlockRows), m) * n
			default:
				it.box = m * n
			}
			if spans || it.from != nil {
				items = append(items, it)
			}
		}
	}
	// errs stays in (query, hit) order while the schedule is sorted.
	errs := make([]error, len(items))
	slices.SortStableFunc(items, func(a, b item) int { return cmp.Compare(b.box, a.box) })

	var next atomic.Int64
	work := func() {
		// A pass holds only what its items use: no Retriever without spans,
		// no Aligner without a hit to locate (the shard master has none).
		var rt *align.Retriever
		if spans {
			rt = retrievers.Get().(*align.Retriever)
			defer func() { retrievers.Put(rt) }()
		}
		var al *swar.Aligner
		if from != nil {
			al = aligners.Get().(*swar.Aligner)
			defer func() { aligners.Put(al) }()
		}
		finish := func(it *item) (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("search: finishing hit %q of query %d panicked: %v", it.hit.ID, it.qi, r)
					if rt != nil {
						rt = new(align.Retriever)
					}
					if al != nil {
						al = new(swar.Aligner)
					}
				}
			}()
			if TestHookFinish != nil {
				TestHookFinish(it.n)
			}
			q, t := queries[it.qi].Seq, db[it.hit.Index].Seq
			if it.from != nil {
				if err := locateHit(al, q, t, sc, it.hit, it.from); err != nil {
					return err
				}
			}
			if spans {
				it.cells, err = realignHit(rt, q, t, sc, it.hit)
			}
			return err
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= len(items) {
				return
			}
			it := &items[i]
			if ctxOf(it.qi).Err() != nil {
				continue // skipped: nothing computed
			}
			errs[it.n] = finish(it)
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
	for _, it := range items {
		out[it.qi].Result.RealignCells += it.cells
	}
	for qi := range out {
		if err := ctxOf(qi).Err(); err != nil && out[qi].Err == nil {
			out[qi].Result.Hits = nil
			out[qi].Err = err
		}
	}
	return nil
}

// TestHookFinish, when non-nil, runs at the start of every item of the
// finish pass with the item's position in (query, hit) order. It is for
// tests, which plant a panic in one item with it; nothing else sets it.
var TestHookFinish func(item int)

// retrievers keeps the workers' align.Retrievers — their rolling rows
// and profile — alive between calls, like align's own pool of striped
// row buffers. Begin never touches a Retriever's arrow arena, so a
// pooled one holds two rows and a profile sized by the longest record
// realigned.
var retrievers = sync.Pool{New: func() any { return new(align.Retriever) }}

// aligners does the same for the swar.Aligners of the scan workers and
// of the locate step: row buffers, saved border rows and seeds sized by
// the longest record group seen.
var aligners = sync.Pool{New: func() any { return new(swar.Aligner) }}

// locateHit turns the end block and border row a packed rung left for h
// into its end cell.
func locateHit(al *swar.Aligner, q, t bio.Sequence, sc bio.Scoring, h *Hit, from *scored) error {
	endI, endJ, ok := al.LocateEnd(q, t, sc, from.endI/swar.BlockRows, from.seed, h.Score)
	if !ok {
		return fmt.Errorf("search: scan score %d for %q disagrees with the exact rescan of query rows %d..%d from the saved border row",
			h.Score, h.ID, from.endI+1, min(from.endI+swar.BlockRows, len(q)))
	}
	h.endI, h.endJ = endI, endJ
	return nil
}

// realignHit fills one hit's spans by the reverse sweep from its end
// cell, which an exact scan of the whole matrix finds first when the hit
// does not carry it. The sweep is Begin, which has no dense fallback: a
// cell from which no alignment of the hit's score passes Theorem 6.2's
// pruning — only a cell that is not the first to hold the score can be
// one — is a hard error, so an alignment of exactly the hit's score ends
// at exactly its cell (DESIGN §5.6). cells is the hit's share of
// Result.RealignCells.
func realignHit(rt *align.Retriever, q, t bio.Sequence, sc bio.Scoring, h *Hit) (cells int64, err error) {
	if h.endI == 0 {
		// The hit's score is already known: passing it as ExpectScore lets
		// the scan skip packed rungs it proves will saturate.
		r, err := align.Scan(q, t, sc, align.ScanOptions{ExpectScore: h.Score})
		if err != nil {
			return 0, err
		}
		if r.BestScore != h.Score {
			return 0, fmt.Errorf("search: scan score %d for %q disagrees with the exact rescan of query rows 1..%d: %d",
				h.Score, h.ID, len(q), r.BestScore)
		}
		h.endI, h.endJ = r.BestI, r.BestJ
		cells = int64(len(q)) * int64(len(t))
	} else {
		cells = int64((h.endI-1)%swar.BlockRows+1) * int64(len(t))
	}
	qBegin, tBegin, _, ok := rt.Begin(q, t, sc, h.endI, h.endJ, h.Score)
	if !ok {
		return 0, fmt.Errorf("search: no alignment of %q with score %d ends at the located cell (%d,%d)", h.ID, h.Score, h.endI, h.endJ)
	}
	h.QBegin, h.QEnd = qBegin, h.endI
	h.TBegin, h.TEnd = tBegin, h.endJ
	h.endI, h.endJ = 0, 0
	return cells, nil
}
