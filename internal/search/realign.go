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
// the §6 reverse sweep runs from the hit's end cell to the start of the
// alignment, and on the way proves that an alignment of the hit's score
// ends there. A hit keeps four coordinates and no alignment, so the
// sweep records no traceback: cell values live in its two rolling rows
// only. Only the K winners of each query pay this cost.
//
// A hit straight from a scan carries its end cell, which the scan
// located with the score check built in (finishHits). A hit without one
// — built by hand, or already realigned — gets it from an exact scan of
// the whole matrix on the lane ladder (swar.(*Aligner).ScanPair), which
// doubles as the safety net for such hits: a score disagreeing with the
// rescan is reported, never papered over. Filling a hit's span clears
// its end cell, so a realigned hit compares equal whichever way it came.
//
// The work runs in the two phases of finishHits on min(workers, work)
// goroutines (workers ≤ 0 means runtime.NumCPU(); one worker runs on
// the caller): the end cells, one (query, hit) pair per item handed out
// in decreasing order of the box the item scans, then the sweeps, in
// lane passes of hits of similar box (align.Retriever.BeginLanes).
// Result.RealignCells says what the items of a query add up to.
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

// finishHits is the pass over the final hits of a batch, in two phases.
//
// The first gives every hit its end cell. from, when non-nil, holds per
// query the scan's merged heap entries, from[qi][i] behind
// out[qi].Result.Hits[i]: a hit the packed rungs scored has no end cell
// yet, only the entry's end block and saved border row, and replaying
// that block finds the cell. The replay is also where such a score is
// checked, over the block it was claimed for: a block that never
// reaches the score, or exceeds it first, is a kernel bug and fails the
// batch. These seeded hits, sorted by the box of their replay, block
// rows × target length, are dealt into lane passes of up to
// swar.BeginLanes hits as the second phase deals its sweeps, and a pass
// runs on one worker as one swar.(*Aligner).LocateLanes call: the end
// blocks of its hits in int16 lanes, one hit per lane, or LocateEnd one
// hit at a time where they do not fit (locatePass). A hit with no seed
// keeps its own item: one already located only counts its cells, one
// built by hand scans its whole matrix on ScanPair (locate). Those
// items are handed out first, in decreasing order of their box — the
// longest-first rule, so the largest is never the last item started —
// and the passes after them.
//
// The second, when spans is set (not for a NoEndpoints scan), runs the
// reverse sweep of RealignBatch from every end cell. The located hits,
// sorted by their box, end row × end column, are dealt in order into
// lane passes of up to swar.BeginLanes hits (one hit per pass on a host
// without the lane kernel), as many as make every worker's share equal
// — 40 hits on two workers make four passes of ten — and a pass runs
// on one worker as one align.Retriever.BeginLanes call. Hits of
// similar box share a pass, so few lanes idle while the longest sweep
// of the pass runs on.
//
// Each worker holds a pooled swar.Aligner for the first phase and a
// pooled align.Retriever for the second. A panic in an item, or in a
// pass of either phase, a kernel bug, becomes the error of that item,
// or of the pass's first item in (query, hit) order: it fails the batch
// like any other, and the process lives on. The worker then drops the
// Aligner or Retriever it held mid-work instead of pooling it.
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
	total := 0
	for qi := range out {
		total += len(out[qi].Result.Hits)
	}
	items := make([]finishItem, 0, total)
	for qi := range out {
		if out[qi].Err != nil {
			continue
		}
		hits := out[qi].Result.Hits
		for i := range hits {
			it := finishItem{n: len(items), qi: qi, hit: &hits[i]}
			m, n := int64(len(queries[qi].Seq)), int64(len(db[it.hit.Index].Seq))
			switch {
			case it.hit.endI > 0:
				it.box = int64(it.hit.endI) * int64(it.hit.endJ)
			case from != nil:
				it.from = &from[qi][i]
				it.box = min(swar.BlockRows, m-int64(it.from.endI)) * n
			default:
				it.box = m * n
			}
			if spans || it.from != nil {
				items = append(items, it)
			}
		}
	}
	// errs stays in (query, hit) order while the schedules are sorted.
	errs := make([]error, len(items))
	byBox := func(a, b finishItem) int { return cmp.Compare(b.box, a.box) }
	lanes := 1
	if swar.HasBeginRow() {
		lanes = swar.BeginLanes
	}

	// The items without a seed first, by box, then the seeded ones, by
	// box, dealt into passes.
	slices.SortStableFunc(items, func(a, b finishItem) int {
		if c := cmp.Compare(seeded(a), seeded(b)); c != 0 {
			return c
		}
		return byBox(a, b)
	})
	single := len(items)
	for single > 0 && items[single-1].from != nil {
		single--
	}
	d := deal(len(items)-single, workers, lanes)
	fanOut(single+d.passes, workers, func(_ int, f *fan) {
		al := aligners.Get().(*swar.Aligner)
		defer func() { aligners.Put(al) }()
		drop := func() { al = new(swar.Aligner) }
		for k, ok := f.claim(); ok; k, ok = f.claim() {
			if k < single {
				it := &items[k]
				if ctxOf(it.qi).Err() != nil {
					continue // skipped: nothing computed
				}
				errs[it.n] = contain(it, func() error {
					if TestHookFinish != nil {
						TestHookFinish([]int{it.n})
					}
					cells, err := locate(al, queries[it.qi].Seq, db[it.hit.Index].Seq, sc, it)
					if spans {
						it.cells = cells
					}
					return err
				}, drop)
				continue
			}
			lo, hi := d.bounds(k - single)
			pass := items[single+lo : single+hi]
			// A pass's hits get their own errors; a panic is its first's.
			first := firstOf(pass)
			if err := contain(first, func() error {
				locatePass(al, queries, db, sc, pass, errs, ctxOf, spans)
				return nil
			}, drop); err != nil {
				errs[first.n] = err
			}
		}
	})

	if spans {
		// The located hits first, by box, dealt into passes.
		located := 0
		for i := range items {
			if it := &items[i]; errs[it.n] == nil && it.hit.endI > 0 {
				it.box = int64(it.hit.endI) * int64(it.hit.endJ)
				located++
			} else {
				it.box = -1
			}
		}
		slices.SortStableFunc(items, byBox)
		d := deal(located, workers, lanes)
		begins := make([]align.BeginItem, located)
		fanOut(d.passes, workers, func(_ int, f *fan) {
			rt := retrievers.Get().(*align.Retriever)
			defer func() { retrievers.Put(rt) }()
			for k, ok := f.claim(); ok; k, ok = f.claim() {
				lo, hi := d.bounds(k)
				pass := items[lo:hi]
				first := firstOf(pass)
				// A pass's hits get their own errors; a panic is its first's.
				if err := contain(first, func() error {
					beginPass(rt, queries, db, sc, pass, begins[lo:hi], errs, ctxOf)
					return nil
				}, func() { rt = new(align.Retriever) }); err != nil {
					errs[first.n] = err
				}
			}
		})
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

// finishItem is one (query, hit) pair of finishHits.
type finishItem struct {
	n, qi int // n: position in (query, hit) order
	hit   *Hit
	from  *scored // block and seed of a hit still to be located
	box   int64   // the schedule key
	cells int64   // what the item adds to RealignCells
}

// seeded orders the items of the first phase: 1 for a hit a lane pass
// locates, 0 for one with an item of its own.
func seeded(it finishItem) int {
	if it.from != nil {
		return 1
	}
	return 0
}

// firstOf returns the pass's first item in (query, hit) order.
func firstOf(pass []finishItem) *finishItem {
	first := &pass[0]
	for i := range pass {
		if pass[i].n < first.n {
			first = &pass[i]
		}
	}
	return first
}

// A fan hands out 0…n−1, each once, in order, to the workers of a
// fanOut.
type fan struct {
	next atomic.Int64
	n    int
	wg   sync.WaitGroup
}

// claim returns the next index, or false when none is left.
func (f *fan) claim() (int, bool) {
	i := int(f.next.Add(1)) - 1
	return i, i < f.n
}

// fanOut runs work on min(workers, n) goroutines, or on the caller when
// that is at most one, each claiming from one fan of n, and waits for
// them. Each call of work gets its own w in [0, max(1, min(workers, n))).
func fanOut(n, workers int, work func(w int, f *fan)) {
	f := &fan{n: n}
	if workers = min(workers, n); workers <= 1 {
		work(0, f)
		return
	}
	f.wg.Add(workers)
	for w := range workers {
		go fanWorker(w, f, work)
	}
	f.wg.Wait()
}

func fanWorker(w int, f *fan, work func(int, *fan)) {
	defer f.wg.Done()
	work(w, f)
}

// contain runs f and returns its error; a panic in f becomes an error
// naming the item's hit instead, after drop has let go of the scratch f held.
func contain(it *finishItem, f func() error, drop func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("search: finishing hit %q of query %d panicked: %v", it.hit.ID, it.qi, r)
			drop()
		}
	}()
	return f()
}

// A passDeal splits n hits sorted by box into lane passes of
// consecutive hits.
type passDeal struct{ n, passes int }

// deal returns how n hits sorted by box are dealt into lane passes of at
// most lanes hits: ⌈n/lanes⌉ passes, rounded up to a multiple of workers
// so that every worker runs as many, but no more passes than hits.
func deal(n, workers, lanes int) passDeal {
	p := (n + lanes - 1) / lanes
	return passDeal{n: n, passes: min(n, (p+workers-1)/workers*workers)}
}

// bounds returns pass k's hits, [lo, hi): the first n mod passes passes
// hold one hit more than the rest.
func (d passDeal) bounds(k int) (lo, hi int) {
	size, extra := d.n/d.passes, d.n%d.passes
	lo = k*size + min(k, extra)
	hi = lo + size
	if k < extra {
		hi++
	}
	return lo, hi
}

// beginPass runs the reverse sweeps of one lane pass of at most
// swar.BeginLanes hits, skipping those of a query whose context has fired, and fills
// the spans of the rest, or their errors in errs. begins is the pass's
// scratch.
func beginPass(rt *align.Retriever, queries []BatchQuery, db []bio.Record, sc bio.Scoring, pass []finishItem, begins []align.BeginItem, errs []error, ctxOf func(int) context.Context) {
	var skip uint32
	run := begins[:0]
	for i, it := range pass {
		if ctxOf(it.qi).Err() != nil {
			skip |= 1 << i
			continue
		}
		h := it.hit
		run = append(run, align.BeginItem{S: queries[it.qi].Seq, T: db[h.Index].Seq, EndI: h.endI, EndJ: h.endJ, K: h.Score})
	}
	if TestHookLanePass != nil {
		TestHookLanePass(positions(pass))
	}
	rt.BeginLanes(sc, run)
	for i, it := range pass {
		if skip>>i&1 == 0 {
			errs[it.n] = span(it.hit, &run[0])
			run = run[1:]
		}
	}
}

// TestHookFinish, when non-nil, runs at the start of every item and
// every lane pass of the finish pass's first phase with the positions
// of its hits in (query, hit) order. TestHookLanePass, when non-nil,
// runs at the start of every lane pass of its second phase with the
// positions of the pass's hits. They are for tests, which plant a panic
// with them; nothing else sets them.
var (
	TestHookFinish   func(items []int)
	TestHookLanePass func(items []int)
)

// positions returns the (query, hit) positions of a pass's hits, for
// the test hooks.
func positions(pass []finishItem) []int {
	ns := make([]int, len(pass))
	for i, it := range pass {
		ns[i] = it.n
	}
	return ns
}

// retrievers keeps the workers' align.Retrievers — their rolling rows,
// profile and lane-pass rows — alive between calls. Begin never touches
// a Retriever's arrow arena, so a pooled one holds rows and a profile
// sized by the longest record realigned.
var retrievers = sync.Pool{New: func() any { return new(align.Retriever) }}

// aligners does the same for the swar.Aligners of the scan workers and
// of the locate step: row buffers, saved border rows and seeds sized by
// the longest record group seen.
var aligners = sync.Pool{New: func() any { return new(swar.Aligner) }}

// locatePass gives the seeded hits of one lane pass of the first phase
// their end cells — one swar.(*Aligner).LocateLanes call, which replays
// each hit's end block from its saved border row — skipping those of a
// query whose context has fired, and fills in their errors in errs and,
// when spans is set, their share of Result.RealignCells: the rows of
// the end block replayed.
func locatePass(al *swar.Aligner, queries []BatchQuery, db []bio.Record, sc bio.Scoring, pass []finishItem, errs []error, ctxOf func(int) context.Context, spans bool) {
	var skip uint32
	var locs [swar.BeginLanes]swar.LocateItem
	run := locs[:0]
	for i, it := range pass {
		if ctxOf(it.qi).Err() != nil {
			skip |= 1 << i
			continue
		}
		run = append(run, swar.LocateItem{
			Q: queries[it.qi].Seq, T: db[it.hit.Index].Seq,
			Block: it.from.endI / swar.BlockRows, Seed: it.from.seed, Score: it.hit.Score,
		})
	}
	if TestHookFinish != nil {
		TestHookFinish(positions(pass))
	}
	al.LocateLanes(sc, run)
	for i := range pass {
		if skip>>i&1 != 0 {
			continue
		}
		it, loc := &pass[i], &run[0]
		run = run[1:]
		h := it.hit
		if !loc.OK {
			errs[it.n] = fmt.Errorf("search: scan score %d for %q disagrees with the exact rescan of query rows %d..%d from the saved border row",
				h.Score, h.ID, it.from.endI+1, min(it.from.endI+swar.BlockRows, len(loc.Q)))
			continue
		}
		h.endI, h.endJ = loc.EndI, loc.EndJ
		if spans {
			it.cells = int64((h.endI-1)%swar.BlockRows+1) * int64(len(loc.T))
		}
	}
}

// locate gives an item without a seed its end cell: for a hit that came
// without one, found by ScanPair over the whole matrix. cells is the
// hit's share of Result.RealignCells: the whole matrix, or for a hit
// already located the rows of its end block.
func locate(al *swar.Aligner, q, t bio.Sequence, sc bio.Scoring, it *finishItem) (cells int64, err error) {
	h := it.hit
	if h.endI == 0 {
		p, err := al.ScanPair(q, t, sc)
		if err != nil {
			return 0, fmt.Errorf("search: rescanning %q: %w", h.ID, err)
		}
		if p.Score != h.Score {
			return 0, fmt.Errorf("search: scan score %d for %q disagrees with the exact rescan of query rows 1..%d: %d",
				h.Score, h.ID, len(q), p.Score)
		}
		h.endI, h.endJ = p.I, p.J
		return int64(len(q)) * int64(len(t)), nil
	}
	return int64((h.endI-1)%swar.BlockRows+1) * int64(len(t)), nil
}

// span fills h's spans from the reverse sweep b ran from its end cell.
// The sweep is Begin's, which has no dense fallback: a cell from which
// no alignment of the hit's score passes Theorem 6.2's pruning — only a
// cell that is not the first to hold the score can be one — is a hard
// error, so an alignment of exactly the hit's score ends at exactly its
// cell (DESIGN §5.6).
func span(h *Hit, b *align.BeginItem) error {
	if !b.OK {
		return fmt.Errorf("search: no alignment of %q with score %d ends at the located cell (%d,%d)", h.ID, h.Score, h.endI, h.endJ)
	}
	h.QBegin, h.QEnd = b.SBegin, h.endI
	h.TBegin, h.TEnd = b.TBegin, h.endJ
	h.endI, h.endJ = 0, 0
	return nil
}
