package search

import (
	"sync"
	"sync/atomic"
)

// This file holds the ALAE-style exact pruning pipeline of Run:
//
//   stage 1 — record-level skip: bio.QueryBound.RecordBound gives an
//     O(1) upper bound per record (best-case ungapped sum capped by
//     record and query length); records strictly below the shared
//     top-K floor never touch a kernel.
//   stage 2 — mid-scan abandon: the floor is threaded into the packed
//     kernels as a swar.Bound; every cadence rows the kernel checks
//     whether any lane can still reach it and bails when none can.
//
// Both stages prove scores strictly below the pruning threshold, and
// ties at the threshold are never pruned, so the surviving top-K set,
// scores, coordinates and tie-breaks are bit-identical to the unpruned
// scan — the differential and fuzz suites pin exactly that.

// PruneStats reports what the pruning pipeline did during one Run.
// Skipped + Abandoned + Scanned always equals the number of records
// searched; the split between them (and CellsSaved) depends on how fast
// the floor ratcheted, which varies with worker scheduling — callers
// must treat the counts as diagnostics, never as part of the result.
type PruneStats struct {
	// Skipped counts records dropped by the O(1) record-level bound
	// without touching a kernel.
	Skipped int
	// Abandoned counts records whose scan a kernel abandoned mid-matrix.
	Abandoned int
	// Scanned counts records scored to completion.
	Scanned int
	// CellsSaved estimates the true DP cells not computed: the full
	// |q|·|record| matrix for skipped records, plus the rows the
	// resolving kernel rung never reached for abandoned ones. Never
	// exceeds Result.Cells.
	CellsSaved int64
	// FloorFinal is the shared top-K score floor when the scan finished
	// (0 when fewer than K records produced eligible scores).
	FloorFinal int
}

// Floor maintains a top-K score floor that makes pruning global across
// workers (and, through the shard master, across shards): a bounded
// heap of per-record exact scores whose root, once K records are in, is
// published through an atomic, so the hot path reads the current floor
// without a lock. The floor only ever ratchets up, and is valid by
// construction: when Get returns f > 0, K distinct records are known to
// score ≥ f and to be result-eligible (callers only push eligible
// scores, see Push), so a record provably scoring < f cannot enter the
// final merged top K no matter how worker scheduling interleaves.
type Floor struct {
	floor atomic.Int64
	mu    sync.Mutex
	// dedup: one record's score may arrive more than once (a shard
	// replayed a span), so pushes must dedup by index.
	dedup bool
	heap  topK
}

// NewFloor returns a floor over the K best records with dedup on: the
// shard master's global floor, where replayed spans and duplicated
// messages can legitimately deliver the same record's score twice.
func NewFloor(k int) *Floor {
	return &Floor{dedup: true, heap: topK{k: k}}
}

// Get returns the current published floor (0 until K records have
// evidence).
func (f *Floor) Get() int { return int(f.floor.Load()) }

// threshold folds the published floor with the caller's MinScore and
// the implicit "hits must score > 0" rule into the strict pruning
// threshold: a record provably scoring < threshold cannot appear in
// the result. Records tying the threshold are never pruned — a score
// equal to the floor can still win its place on the index tie-break.
func (f *Floor) threshold(minScore int) int {
	return max(f.Get(), minScore, 1)
}

// Push records one record's exact score after a completed scan and
// reports whether the published floor rose. Callers must only push
// result-eligible records (score ≥ max(MinScore, 1)), otherwise the
// floor could be propped up by records the result later drops. Under
// dedup a record already present is raised in place, never counted
// twice — double-counting would overstate how many distinct records
// clear the floor and break the floor's validity.
func (f *Floor) Push(score, index int) bool {
	if f.heap.k <= 0 {
		return false
	}
	// Fast path without the lock: once the heap is full every entry
	// scores ≥ the published floor, so evidence at or below it can
	// neither displace an entry nor improve one.
	if fl := f.floor.Load(); fl > 0 && int64(score) <= fl {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.dedup || !f.heap.raise(score, index) {
		f.heap.push(scored{score: score, index: index})
	}
	// Publish the heap root as the floor once K records are in. The root
	// never decreases (entries are only replaced by stronger ones), so
	// readers observe a monotonically ratcheting floor.
	if len(f.heap.items) == f.heap.k {
		if root := int64(f.heap.items[0].score); root > f.floor.Load() {
			f.floor.Store(root)
			return true
		}
	}
	return false
}
