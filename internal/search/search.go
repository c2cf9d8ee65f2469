// Package search implements a multicore Smith–Waterman database scan:
// one query against every record of a FASTA database, scored by the
// inter-sequence SWAR kernels of internal/swar and fanned out over a
// worker pool of host cores. It is the repo's first use of real
// parallel hardware for throughput — the cluster strategies elsewhere
// model a 2005 testbed in virtual time, while this layer answers the
// ROADMAP's "as fast as the hardware allows" for the database-search
// workload that DSA and SWAPHI target.
//
// The pipeline: records are ordered by decreasing length and cut into
// lane groups of 8 consecutive records, so the lanes of a group have
// near-equal length and the padded cells wasted on short lanes are
// minimized. Groups feed a shared work queue; each worker owns one
// swar.Aligner (reused row buffers) and a bounded top-K heap. Per-worker
// heaps merge into the global top K, and only those final hits pay for
// coordinates (realign.go). The scan itself says where each score ends:
// the pairwise rungs report the end cell, and the packed rungs save the
// H row entering the block of swar.BlockRows rows a lane's score ends
// in — the border row of the paper's pre-process strategy (§5) — from
// which swar.LocateEnd replays that one block to the cell. All that is left
// for a hit is the walk back from it to the start: align.Retriever.Begin,
// the §6 reverse sweep without its traceback, since a hit keeps its four
// coordinates and no alignment.
package search

import (
	"context"
	"sort"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/swar"
)

// Options configures a database scan. The zero value scans with the
// paper's default scoring, top 10 hits and one worker per host core.
type Options struct {
	// Scoring is the column scoring scheme; zero means bio.DefaultScoring.
	Scoring bio.Scoring
	// TopK is the number of hits to keep (default 10).
	TopK int
	// Workers is the worker-pool size (default runtime.NumCPU()).
	Workers int
	// MinScore drops hits scoring below it; scores ≤ 0 are always dropped.
	MinScore int
	// Lanes is not a kernel knob: the only value besides 0 is 1, which
	// scores every record with the scalar reference scorer
	// (referenceScores) instead of the routed ladder. The field survives
	// only because the differential tests and the benchmark's oracle
	// compare against that reference, which must stay independent of
	// the router and the packed rungs it checks. To force a kernel, use
	// Dispatch.
	Lanes int
	// Dispatch selects the routing mode: "" or "auto" (or "fixed", an
	// alias of auto) starts every lane group on the int8 ladder by the
	// fixed rule of internal/dispatch, "scalar" forces the exact scalar
	// kernels. All modes return bit-identical hits; only speed varies.
	Dispatch string
	// NoEndpoints skips the exact re-alignment of the final hits, for
	// callers that only need scores.
	NoEndpoints bool
	// Prune enables the exact ALAE-style pruning pipeline (prune.go):
	// an O(1) record-level upper bound skips hopeless records and a
	// shared top-K floor lets the kernels abandon scans that provably
	// cannot reach the result. The hit set — scores, coordinates and
	// tie-breaks — is bit-identical with or without it.
	Prune bool
	// Router, when non-nil, routes this scan's lane groups instead of a
	// router built from Dispatch: a resident server shares one router —
	// and its route statistics — across requests. Routing never changes
	// results, only speed.
	Router *dispatch.Router
}

// Hit is one database record in the top K.
type Hit struct {
	Index int    // record index in the database
	ID    string // FASTA record ID
	Score int    // exact best local-alignment score
	// Alignment span of the best hit, 1-based inclusive, filled by the
	// re-alignment pass (RealignBatch; zero when NoEndpoints is set).
	QBegin, QEnd int // in the query
	TBegin, TEnd int // in the target record
	// endI, endJ is the cell the alignment ends in, as the scan located
	// it: align.Scan's (BestI, BestJ), the first cell, row-major, holding
	// Score. Every hit a scan returns carries it, so the re-alignment
	// pass only walks back from it. Zero means unknown — a hit built by
	// hand, or one whose span is already filled (QEnd, TEnd say the
	// same) — and scans the whole matrix forward first. It is set on the
	// hits of a NoEndpoints scan, travels with the value (the shard
	// workers hand it to the master this way), and is a function of
	// (query, record, scoring) alone, so equal scans still produce ==
	// hits.
	endI, endJ int
}

// Result is the outcome of a database scan.
type Result struct {
	Hits     []Hit
	Searched int   // records scored
	Cells    int64 // true DP cells: Σ |q|·|target|
	// PaddedCells counts the cells the packed kernels actually computed
	// (lane width × padded group length × rows scanned): the
	// padding-waste metric that the length-sorted batching keeps close
	// to Cells. Under pruning it shrinks with the abandoned rows and
	// skipped records, and — like the PruneStats — depends on worker
	// scheduling. It counts what the kernels ran (swar.GroupResult.Padded):
	// an int16 retry of saturated int8 lanes from the border row it
	// resumed at, and the int8 pass only the columns its unsaturated lanes
	// still needed.
	PaddedCells int64
	// Prune holds the pruning statistics; nil when Options.Prune is off.
	Prune *PruneStats
	// RealignCells counts the forward DP cells behind the end cells of
	// the Hits whose spans were filled: per hit the rows of its end block
	// down to the end row × |target| — what locating it replays at most,
	// so ≤ swar.BlockRows rows, and it shrinks with that constant — or
	// |q|·|target| for a hit that arrived without an end cell (see
	// RealignBatch). A function of the hits alone: neither worker
	// scheduling nor the rung that scored a record shows. Zero under
	// NoEndpoints.
	RealignCells int64
}

// scored is one record's score evidence: the element of the bounded
// heap behind the per-worker and merged top K and the pruning floors.
type scored struct {
	score, index int
	// Where the score's alignment ends, as far as the rung that resolved
	// the record knows; the floors, which only rank, leave it zero. A
	// pairwise rung knows the cell: endI, endJ ≥ 1. A packed rung knows
	// the end block and the H row entering it (swar.Aligner.Seed): endJ
	// is 0, endI the rows above the block — a multiple of swar.BlockRows
	// — and seed that row, empty for the first block. seed is a copy the
	// entry owns.
	endI, endJ int
	seed       []uint16
}

// before is the result order, defined once: higher score first, lower
// record index on ties. It is a strict total order over distinct
// records, so every merge that respects it — worker heaps, the batch
// merge, the shard merge — picks the same top K.
func (a scored) before(b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.index < b.index
}

// SortHits sorts hits into the result order.
func SortHits(hits []Hit) {
	sort.Slice(hits, func(a, b int) bool {
		return scored{score: hits[a].Score, index: hits[a].Index}.before(scored{score: hits[b].Score, index: hits[b].Index})
	})
}

// topK is a bounded min-heap of (score, index) under the result order,
// so the root is the weakest kept entry. A plain slice heap keeps the
// merge deterministic regardless of worker scheduling: every record
// that belongs to the global top K under the same total order survives
// its worker's local top K.
type topK struct {
	k     int
	items []scored
}

// admits reports whether push would keep it, so a caller can put off
// what only a kept entry needs (copying its seed).
func (h *topK) admits(it scored) bool {
	return h.k > 0 && (len(h.items) < h.k || it.before(h.items[0]))
}

// spare returns the seed buffer of the entry the next kept push evicts,
// emptied for reuse; nil while the heap still grows.
func (h *topK) spare() []uint16 {
	if len(h.items) < h.k {
		return nil
	}
	return h.items[0].seed[:0]
}

// push offers one entry, keeping the k best.
func (h *topK) push(it scored) {
	if !h.admits(it) {
		return
	}
	if len(h.items) == h.k {
		h.items[0] = it
		h.siftDown(0)
		return
	}
	h.items = append(h.items, it)
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.items[parent].before(h.items[i]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// raise lifts the entry of record index to score when it is present
// and scores lower, and reports whether the record was present.
func (h *topK) raise(score, index int) bool {
	for i := range h.items {
		if h.items[i].index == index {
			if score > h.items[i].score {
				h.items[i].score = score
				h.siftDown(i)
			}
			return true
		}
	}
	return false
}

func (h *topK) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		weakest := i
		if l < n && h.items[weakest].before(h.items[l]) {
			weakest = l
		}
		if r < n && h.items[weakest].before(h.items[r]) {
			weakest = r
		}
		if weakest == i {
			return
		}
		h.items[i], h.items[weakest] = h.items[weakest], h.items[i]
		i = weakest
	}
}

// Run scans the database for the best local alignments of q and returns
// the top-K hits sorted by decreasing score (record index breaks ties).
// Run prepares the database and scans it once; callers with many
// queries against one database should build a DB once (NewDB, or load a
// pack via internal/dbpack) and use RunCtx/RunBatch instead.
func Run(q bio.Sequence, db []bio.Record, opt Options) (*Result, error) {
	return RunCtx(context.Background(), q, NewDB(db), opt)
}

// referenceScores is the scalar reference scorer behind Options.Lanes
// == 1: every record of the group through the scalar align.Scan, or
// through al's scalar kernel (swar.Aligner.ScalarPair) under a pruning
// bound. It consults no router and runs no packed rung, so the
// differential tests and the benchmark's oracle compare the ladder —
// scores and end cells — against an independent kernel. The
// reference's own re-alignment walks back from the end cells its
// scalar scan found, so its coordinates pass through no packed kernel.
func referenceScores(al *swar.Aligner, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, ab *swar.Bound) (swar.GroupResult, error) {
	var res swar.GroupResult
	for i, t := range targets {
		res.Rows[i] = len(q)
		if ab != nil {
			p, rows, pruned := al.ScalarPair(q, t, sc, ab)
			res.Scores[i], res.EndI[i], res.EndJ[i], res.Rows[i] = p.Score, p.I, p.J, rows
			if pruned {
				res.Pruned |= 1 << uint(i)
			}
		} else {
			r, err := align.Scan(q, t, sc, align.ScanOptions{})
			if err != nil {
				return res, err
			}
			res.Scores[i], res.EndI[i], res.EndJ[i] = r.BestScore, r.BestI, r.BestJ
		}
		res.EndBlock[i] = swar.BlockOf(res.EndI[i])
		res.Padded += int64(len(t)) * int64(res.Rows[i])
	}
	return res, nil
}
