package search

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/swar"
)

// This file holds the multi-query scan engine behind Run, RunCtx and
// RunBatch. A batch shares one pass over the lane groups: every group a
// worker pulls is scored for every live query while its targets are hot,
// so per-scan costs (worker pool, group traversal, channel traffic) are
// paid once per batch instead of once per query — the shared-scan
// serving mode of the resident server. Sharing changes only scheduling:
// each query keeps its own top-K heap, pruning floor and query bound,
// and routing is a fixed rule of the group, so every completed query's
// result is bit-identical — hits, scores, coordinates, tie-breaks, cells
// — to a solo Run of the same query against the same DB with the same
// Options.

// BatchQuery is one query of a shared scan.
type BatchQuery struct {
	// Seq is the query sequence.
	Seq bio.Sequence
	// Ctx, when non-nil, cancels this query alone: the scan stops
	// spending kernel time on it at the next group boundary while the
	// rest of the batch continues. Nil means the batch context.
	Ctx context.Context
	// TopK overrides Options.TopK for this query (0 keeps it).
	TopK int
	// MinScore overrides Options.MinScore for this query (0 keeps it).
	MinScore int
	// FloorHint, when non-nil, supplies an externally proven pruning
	// floor that is folded into the query's own threshold (Options.Prune
	// only). The distributed layer feeds the gossiped global top-K floor
	// through it. The hint must obey the floor contract: when it returns
	// f > 0, at least K distinct result-eligible records of the full
	// search score ≥ f — then pruning strictly below max(local floor,
	// hint) stays exact. A stale (lower) hint is always safe, only
	// slower. Called concurrently from scan workers, and once more after
	// the scan: the query's Hits then keep only the entries scoring ≥
	// that reading, since by the same contract none below it is in the
	// full search's top K, so none is located (entries at it stay: they
	// can win on the index tie-break). The Hits are then a shard's share
	// of the merge, no longer a solo Run's top K.
	FloorHint func() int
	// OnScore, when non-nil, observes every result-eligible exact score
	// (score > 0 and ≥ the query's MinScore) as it is pushed into the
	// heap, with the record's index in the scanned DB. The distributed
	// layer gossips these to the master as floor evidence. Called
	// concurrently from scan workers.
	OnScore func(score, index int)
	// OnGroup, when non-nil, runs after each lane group is scanned for
	// this query — a progress hook for gossip cadence and fault
	// injection. Called concurrently from scan workers.
	OnGroup func()
}

// BatchResult is one query's outcome. When Err is nil, Result is the
// full scan result, bit-identical to a solo Run but for the Hits a
// FloorHint trims. When Err reports the query's context (cancelled or
// past its deadline), Result carries partial diagnostics only —
// Searched/Cells/PaddedCells and prune counters for the records
// actually processed before the cancellation took effect, and no Hits:
// a partial top K is not a valid top K.
type BatchResult struct {
	Result *Result
	Err    error
}

// qstate is the per-query scan state.
type qstate struct {
	q        bio.Sequence
	ctx      context.Context
	k        int
	minScore int
	qb       *bio.QueryBound
	ft       *Floor
	scan     *dispatch.Router // nil = the scalar reference scorer
	hint     func() int
	onScore  func(score, index int)
	onGroup  func()
	// cancelled latches the first ctx.Err observation so workers stop
	// probing the context once the query is dead.
	cancelled atomic.Bool
}

// done reports (and latches) whether the query's context has fired.
func (st *qstate) done() bool {
	if st.cancelled.Load() {
		return true
	}
	if st.ctx.Err() != nil {
		st.cancelled.Store(true)
		return true
	}
	return false
}

// RunCtx is Run over a prepared DB with a context: cancelling ctx stops
// the workers at the next group boundary and returns the context error.
func RunCtx(ctx context.Context, q bio.Sequence, db *DB, opt Options) (*Result, error) {
	brs, err := RunBatch(ctx, []BatchQuery{{Seq: q}}, db, opt)
	if err != nil {
		return nil, err
	}
	if brs[0].Err != nil {
		return nil, brs[0].Err
	}
	return brs[0].Result, nil
}

// RunBatch scans the database once for every query of the batch. The
// batch-level error is non-nil only when the whole scan failed (kernel
// error, batch context cancelled, invalid options); per-query context
// errors land in the matching BatchResult instead.
func RunBatch(ctx context.Context, queries []BatchQuery, db *DB, opt Options) ([]BatchResult, error) {
	sc := opt.Scoring
	if sc == (bio.Scoring{}) {
		sc = bio.DefaultScoring()
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	var router *dispatch.Router // nil = the scalar reference scorer
	switch opt.Lanes {
	case 0:
		var err error
		if router, err = routerFor(opt); err != nil {
			return nil, err
		}
	case 1:
	default:
		return nil, fmt.Errorf("search: lanes must be 0 or 1 (the scalar reference scorer), got %d: force a kernel with Dispatch", opt.Lanes)
	}
	if len(queries) == 0 {
		return nil, nil
	}

	nq := len(queries)
	states := make([]*qstate, nq)
	for i, bq := range queries {
		st := &qstate{
			q: bq.Seq, ctx: bq.Ctx, k: bq.TopK, minScore: bq.MinScore,
			hint: bq.FloorHint, onScore: bq.OnScore, onGroup: bq.OnGroup,
		}
		if st.ctx == nil {
			st.ctx = ctx
		}
		if st.k <= 0 {
			st.k = opt.TopK
		}
		if st.k <= 0 {
			st.k = 10
		}
		if st.minScore == 0 {
			st.minScore = opt.MinScore
		}
		st.scan = router
		if opt.Prune {
			st.qb = bio.NewQueryBound(bq.Seq, sc)
			st.ft = &Floor{heap: topK{k: st.k}}
		}
		states[i] = st
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// The scan cannot use more workers than lane groups; the realign
	// pool below is sized by its own items, so it gets the unclamped
	// count.
	poolWorkers := workers
	groups := db.groups()
	if workers > len(groups) && len(groups) > 0 {
		workers = len(groups)
	}
	work := make(chan int)
	heaps := make([][]*topK, workers)
	errs := make([]error, workers)
	padded := make([][]int64, workers)
	pstats := make([][]PruneStats, workers)
	procRecs := make([][]int, workers)
	procCells := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A worker that fails keeps taking work items, unscanned, so
			// the feed never blocks on it.
			defer func() {
				for range work {
				}
			}()
			al := aligners.Get().(*swar.Aligner)
			gp := groupProfs.Get().(*groupProf)
			// A panic in a scan, a kernel bug, fails the batch like a kernel
			// error, and the process lives on; the Aligner and code words the
			// worker held mid-scan are dropped instead of pooled.
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("search: scan worker panicked: %v", r)
					return
				}
				aligners.Put(al)
				gp.drop()
				groupProfs.Put(gp)
			}()
			heaps[w] = make([]*topK, nq)
			for qi, st := range states {
				heaps[w][qi] = &topK{k: st.k}
			}
			padded[w] = make([]int64, nq)
			pstats[w] = make([]PruneStats, nq)
			procRecs[w] = make([]int, nq)
			procCells[w] = make([]int64, nq)
			var scratch groupScratch
			for gi := range work {
				group := groups[gi]
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				if TestHookScan != nil {
					TestHookScan(gi)
				}
				var groupBases int64
				for _, idx := range group {
					groupBases += int64(len(db.recs[idx].Seq))
				}
				// Every query of the batch scans this group's same
				// query-independent code words: reset the lazy holder once
				// per work item, point it at the group's precomputed layout
				// words when the DB carries them.
				gp.reset(db, group)
				if db.layout != nil {
					gp.words = db.layout.GroupWords(gi)
				}
				for qi, st := range states {
					if st.done() {
						continue
					}
					err := scanGroupFor(al, st, db, group, sc, opt.Prune,
						heaps[w][qi], &pstats[w][qi], &padded[w][qi], &scratch, gp)
					if err != nil {
						errs[w] = err
						return
					}
					procRecs[w][qi] += len(group)
					procCells[w][qi] += int64(len(st.q)) * groupBases
					if st.onGroup != nil {
						st.onGroup()
					}
				}
			}
		}(w)
	}
feed:
	for gi := range groups {
		select {
		case work <- gi:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := make([]BatchResult, nq)
	from := make([][]scored, nq) // per query, the heap entries behind its Hits
	for qi, st := range states {
		qerr := st.ctx.Err()
		res := &Result{}
		if qerr == nil {
			res.Searched = len(db.recs)
			res.Cells = int64(len(st.q)) * db.total
		} else {
			for w := range procRecs {
				if procRecs[w] != nil {
					res.Searched += procRecs[w][qi]
					res.Cells += procCells[w][qi]
				}
			}
		}
		for w := range padded {
			if padded[w] != nil {
				res.PaddedCells += padded[w][qi]
			}
		}
		if opt.Prune {
			pst := &PruneStats{FloorFinal: st.ft.Get()}
			for w := range pstats {
				if pstats[w] == nil {
					continue
				}
				pst.Skipped += pstats[w][qi].Skipped
				pst.Abandoned += pstats[w][qi].Abandoned
				pst.Scanned += pstats[w][qi].Scanned
				pst.CellsSaved += pstats[w][qi].CellsSaved
			}
			res.Prune = pst
		}
		if qerr != nil {
			out[qi] = BatchResult{Result: res, Err: qerr}
			continue
		}
		merged := &topK{k: st.k}
		for w := range heaps {
			if heaps[w] == nil {
				continue
			}
			for _, it := range heaps[w][qi].items {
				merged.push(it)
			}
		}
		ends := merged.items
		sort.Slice(ends, func(a, b int) bool { return ends[a].before(ends[b]) })
		if st.hint != nil {
			// The hint's contract: K records of the full search score ≥ h,
			// so an entry strictly below it is in no merged top K. It is
			// dropped before the finish pass locates it; one at h stays, as
			// it can still win on the index tie-break.
			h := st.hint()
			for len(ends) > 0 && ends[len(ends)-1].score < h {
				ends = ends[:len(ends)-1]
			}
		}
		if len(ends) > 0 { // no hits stays a nil slice
			res.Hits = make([]Hit, len(ends))
		}
		for i, it := range ends {
			res.Hits[i] = Hit{Index: it.index, ID: db.recs[it.index].ID, Score: it.score}
			if it.endJ > 0 {
				res.Hits[i].endI, res.Hits[i].endJ = it.endI, it.endJ
			}
		}
		from[qi] = ends
		out[qi] = BatchResult{Result: res}
	}
	// One pool call over the whole batch: every (query, hit) pair is an
	// independent item, so a 4-query batch keeps all workers busy where a
	// per-query loop would leave them idle between queries.
	if err := finishHits(ctx, queries, out, db.recs, sc, poolWorkers, from, !opt.NoEndpoints); err != nil {
		return nil, err
	}
	return out, nil
}

// TestHookScan, when non-nil, runs at the start of every work item of
// RunBatch's scan with the index of its lane group. It is for tests,
// which plant a panic with it; nothing else sets it.
var TestHookScan func(group int)

// groupProf is one work item's swar.Codes, shared by every query of the
// batch: the code words of the full lane group — the DB layout's words
// when one is attached (the pack-v2 zero-copy path), otherwise the
// record bytes interleaved once per work item instead of once per query
// — and, memoised, the int16 words of each subgroup the ladder's retries
// ask for. Either source holds exactly the words the ladder would
// interleave per scan (TestSearchWithLayoutDifferential pins the
// equivalence), so sharing changes cost only, never results.
//
// A query's stage-1 skips compact the lanes it scans, so each call says
// which records it holds (use): the full group's words serve only a call
// that kept the whole group, a compacted call gets its lanes' words in a
// buffer of its own, and an int16 subgroup is memoised under its record
// indices, which stage-1 skips cannot change. reset drops every set of
// words, so none outlives its work item, but not their buffers: each is
// refilled in place in one the holder keeps, so a worker allocates only
// while its work items outgrow them (TestGroupProfReusesBuffers). The
// layout's words are never written: they may be an mmap'd pack's
// read-only pages, so no buffer here ever aliases them.
type groupProf struct {
	words   []uint64       // the group's layout words; nil without a layout
	targets []bio.Sequence // full group targets in rank order
	codes   []uint64       // the full group's words: words, or own8
	kept    []int          // the current call's records, lane order
	keptSeq []bio.Sequence // and their sequences
	memo16  []codes16      // memo16[k].codes is built in own16[k]
	// own8 holds the full group's interleave without a layout, part8 that
	// of the current call's compacted lanes, valid until the next Int8
	// call.
	own8, part8 []uint64
	own16       [][]uint64
}

// codes16 is one memoised int16 subgroup: the records of its lanes (n
// of them) and their words.
type codes16 struct {
	recs  [bio.PackedLanes16]int
	n     int
	codes []uint64
}

// reset points the holder at a new group and drops every cached set of
// words.
func (g *groupProf) reset(db *DB, group []int) {
	g.words, g.codes = nil, nil
	g.memo16 = g.memo16[:0]
	g.targets = g.targets[:0]
	for _, idx := range group {
		g.targets = append(g.targets, db.recs[idx].Seq)
	}
}

// groupProfs pools the scan workers' code-word holders, so the buffers
// their words are refilled in outlive a batch, as the aligners' rows do.
var groupProfs = sync.Pool{New: func() any { return new(groupProf) }}

// drop clears the holder's references into the database before it goes
// back to the pool: only its own buffers stay.
func (g *groupProf) drop() {
	clear(g.targets[:cap(g.targets)])
	g.words, g.codes, g.kept, g.keptSeq = nil, nil, nil, nil
	g.memo16 = g.memo16[:0]
}

// use names the records of the next Ladder call, in lane order, and
// their sequences.
func (g *groupProf) use(kept []int, targets []bio.Sequence) {
	g.kept, g.keptSeq = kept, targets
}

// Int8 returns the group's int8 code words when the call kept the whole
// group — the layout's, or an interleave built on first use — and a
// fresh interleave of its compacted lanes otherwise.
func (g *groupProf) Int8() []uint64 {
	if len(g.kept) != len(g.targets) {
		g.part8 = bio.InterleaveWords8(g.part8[:0], g.keptSeq)
		return g.part8
	}
	if g.codes == nil {
		g.codes = g.words
		if g.codes == nil {
			g.own8 = bio.InterleaveWords8(g.own8[:0], g.targets)
			g.codes = g.own8
		}
	}
	return g.codes
}

// Int16 returns the int16 code words of the call's lanes set in lanes,
// built once per work item for each set of records.
func (g *groupProf) Int16(lanes uint8) []uint64 {
	var key codes16
	var seqs [bio.PackedLanes16]bio.Sequence
	for l := range g.kept {
		if lanes&(1<<uint(l)) != 0 {
			key.recs[key.n], seqs[key.n] = g.kept[l], g.keptSeq[l]
			key.n++
		}
	}
	for _, m := range g.memo16 {
		if m.recs == key.recs && m.n == key.n {
			return m.codes
		}
	}
	k := len(g.memo16)
	if k == len(g.own16) {
		g.own16 = append(g.own16, nil)
	}
	g.own16[k] = bio.InterleaveWords16(g.own16[k][:0], seqs[:key.n])
	key.codes = g.own16[k]
	g.memo16 = append(g.memo16, key)
	return key.codes
}

// groupScratch is one worker's reusable per-group buffers: the records
// that survived stage 1, their sequences and their lengths.
type groupScratch struct {
	kept    []int
	targets []bio.Sequence
	lens    []int
}

// scanGroupFor scores one lane group for one query: stage-1 record
// skipping against the query's floor, the group scorer (routed, or the
// scalar reference when the query has no router), and the
// heap/floor pushes. This is the body of the original single-query Run
// worker, parameterized by query state.
func scanGroupFor(al *swar.Aligner, st *qstate, db *DB, group []int, sc bio.Scoring, prune bool,
	heap *topK, ps *PruneStats, padded *int64, buf *groupScratch, gp *groupProf) error {
	q := st.q
	kept := buf.kept[:0]
	var ab *swar.Bound // nil = unpruned
	if prune {
		// Stage 1: the O(1) record bound against the floor read once per
		// group (a stale, lower floor only makes the check more
		// conservative — never wrong).
		th := st.ft.threshold(st.minScore)
		if st.hint != nil {
			// An external floor (the gossiped global top-K floor of the
			// shard layer) tightens the threshold: the hint's contract
			// guarantees K distinct eligible records of the full search
			// score ≥ it, so pruning strictly below it stays exact even
			// when this scan covers only a shard of that search.
			if h := st.hint(); h > th {
				th = h
			}
		}
		for _, idx := range group {
			t := db.recs[idx].Seq
			if st.qb.RecordBound(len(t)) < th {
				ps.Skipped++
				ps.CellsSaved += int64(len(q)) * int64(len(t))
				continue
			}
			kept = append(kept, idx)
		}
		ab = &swar.Bound{Below: th, Query: st.qb}
	} else {
		kept = append(kept, group...)
	}
	buf.kept = kept
	if len(kept) == 0 {
		return nil
	}
	targets, lens := buf.targets[:0], buf.lens[:0]
	for _, idx := range kept {
		t := db.recs[idx].Seq
		targets = append(targets, t)
		lens = append(lens, len(t))
	}
	buf.targets, buf.lens = targets, lens
	var res swar.GroupResult
	if st.scan != nil {
		if gp != nil {
			gp.use(kept, targets)
		}
		res = scoreGroup(al, q, targets, lens, sc, st.scan, ab, gp)
	} else {
		var err error
		if res, err = referenceScores(al, q, targets, sc, ab); err != nil {
			return err
		}
	}
	*padded += res.Padded
	for i, idx := range kept {
		if res.Pruned&(1<<uint(i)) != 0 {
			ps.Abandoned++
			ps.CellsSaved += int64(len(q)-res.Rows[i]) * int64(lens[i])
			continue
		}
		if prune {
			ps.Scanned++
		}
		if s := res.Scores[i]; s > 0 && s >= st.minScore {
			it := scored{score: s, index: idx, endI: res.EndI[i], endJ: res.EndJ[i]}
			seeded := res.Seeded&(1<<uint(i)) != 0
			if seeded {
				it.endI = res.EndBlock[i] * swar.BlockRows
			}
			// A score with neither an end cell nor a seed comes from a packed
			// rung and lies below the threshold it was scanned under: K
			// records are known to beat it, so it is no hit and the heap need
			// not see it. The seed is copied out of the Aligner, into the
			// evicted entry's buffer, only once the heap takes the entry.
			if (seeded || it.endJ > 0) && heap.admits(it) {
				if seeded {
					it.seed = append(heap.spare(), al.Seed(i)...)
				}
				heap.push(it)
			}
			if st.ft != nil {
				st.ft.Push(s, idx)
			}
			if st.onScore != nil {
				st.onScore(s, idx)
			}
		}
	}
	return nil
}
