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
	"genomedsm/internal/swar"
)

// Realign is the one-query form of RealignBatch: it fills the alignment
// spans of hits, the final top K of q, on up to runtime.NumCPU()
// goroutines — over strips of the matrix for hits that come from a
// NoEndpoints scan of q, whole matrices for any others. A zero sc means
// bio.DefaultScoring.
func Realign(q bio.Sequence, db []bio.Record, sc bio.Scoring, hits []Hit) error {
	out := []BatchResult{{Result: &Result{Hits: hits}}}
	return RealignBatch(context.Background(), []BatchQuery{{Seq: q}}, out, db, sc, 0)
}

// RealignBatch fills the alignment spans of every final hit of a batch
// with the exact kernels: align.Scan (striped when the scheme fits,
// scalar otherwise) finds the end cell, ReverseRetrieve walks back to
// the start. Only the K winners of each query pay this cost, and the
// exact re-scan doubles as a safety net: a score disagreeing with the
// scan that produced the hit is a kernel bug and is reported, never
// papered over.
//
// A hit straight from a scan carries the block of swar.BlockRows query
// rows holding its end row, and the re-scan then covers only a strip of
// the matrix (Hit.window): the block itself plus, above it, the most
// rows an alignment against the record can span. A hit without a block
// — built by hand, or already realigned — re-scans the whole matrix.
// The strip finds the matrix's own end cell or fails the score check;
// it never finds another one (DESIGN §5.6 has the argument). Filling a
// hit's span clears its block, so a realigned hit compares equal to one
// realigned over the whole matrix.
//
// Every (query, hit) pair of the batch is one independent work item.
// The items run on min(workers, items) goroutines (workers ≤ 0 means
// runtime.NumCPU(); one worker or one item runs on the caller), handed
// out dynamically in decreasing order of the forward cells each will
// compute, strip rows × |t| — the longest-first rule, so the largest
// realignment is never the last item started. The cells of a query's
// items add up to its Result.RealignCells. Each worker holds one pooled
// align.Retriever for the whole call.
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
		n, qi  int // n: position in (query, hit) order
		hit    *Hit
		lo, hi int // the strip: query rows q[lo:hi]
		cells  int64
	}
	var items []item
	for qi := range out {
		if out[qi].Err != nil {
			continue
		}
		hits := out[qi].Result.Hits
		for i := range hits {
			h := &hits[i]
			n := len(db[h.Index].Seq)
			lo, hi := h.window(len(queries[qi].Seq), n, sc)
			items = append(items, item{len(items), qi, h, lo, hi, int64(hi-lo) * int64(n)})
		}
	}
	// errs stays in (query, hit) order while the schedule is sorted.
	errs := make([]error, len(items))
	sort.SliceStable(items, func(a, b int) bool { return items[a].cells > items[b].cells })

	var next atomic.Int64
	work := func() {
		rt := retrievers.Get().(*align.Retriever)
		defer retrievers.Put(rt)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(items) {
				return
			}
			it := &items[i]
			if ctxOf(it.qi).Err() != nil {
				it.cells = 0 // skipped: nothing computed
				continue
			}
			errs[it.n] = realignHit(rt, queries[it.qi].Seq, db[it.hit.Index].Seq, sc, it.hit, it.lo, it.hi)
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

// retrievers keeps the workers' align.Retrievers — their arrow arenas
// and rolling rows — alive between RealignBatch calls, like align's own
// pool of striped row buffers; a Retriever trims itself after an
// outsized retrieval, so a pooled one pins no more than a fresh one
// would soon hold.
var retrievers = sync.Pool{New: func() any { return new(align.Retriever) }}

// rowSpan bounds the rows a positive-score local alignment against n
// target columns can span: at most n diagonal steps, plus row-only gaps
// that Match·n can still pay for with a point to spare. sc must be
// valid (Match > 0 > Gap).
func rowSpan(n int, sc bio.Scoring) int {
	return n + (sc.Match*n-1)/-sc.Gap
}

// window returns the strip q[lo:hi] of a query of qLen rows that holds
// the end cell of h on a record of n bases and every alignment ending
// there: all rows when the end block is unknown, otherwise the end
// block and the rowSpan rows above it. A block past the query (only a
// corrupted hit has one) yields an empty or misplaced strip, which the
// score check of realignHit then rejects.
func (h *Hit) window(qLen, n int, sc bio.Scoring) (lo, hi int) {
	if h.endBlock == 0 {
		return 0, qLen
	}
	top := (h.endBlock - 1) * swar.BlockRows // rows above the end block
	hi = min(top+swar.BlockRows, qLen)
	return min(max(top-rowSpan(n, sc), 0), hi), hi
}

// realignHit fills one hit's spans from the exact kernels, re-scanning
// the strip q[lo:hi] for the end cell.
func realignHit(rt *align.Retriever, q, t bio.Sequence, sc bio.Scoring, h *Hit, lo, hi int) error {
	// The hit's score is already known: passing it as ExpectScore lets
	// the scan skip packed rungs it proves will saturate.
	r, err := align.Scan(q[lo:hi], t, sc, align.ScanOptions{ExpectScore: h.Score})
	if err != nil {
		return err
	}
	if r.BestScore != h.Score {
		return fmt.Errorf("search: scan score %d for %q disagrees with the exact rescan of query rows %d..%d: %d",
			h.Score, h.ID, lo+1, hi, r.BestScore)
	}
	al, _, err := rt.ReverseRetrieve(q, t, sc, lo+r.BestI, r.BestJ, r.BestScore)
	if err != nil {
		return err
	}
	h.QBegin, h.QEnd = al.SBegin, al.SEnd
	h.TBegin, h.TEnd = al.TBegin, al.TEnd
	h.endBlock = 0
	return nil
}
