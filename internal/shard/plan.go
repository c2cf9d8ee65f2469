// Package shard is the distributed database-search layer: a master
// partitions a prepared database across N worker shards by total cell
// count (the DSA load-balance rule — cells, not record counts, predict
// scan time), scatters each query batch to every shard, runs the full
// pruned/dispatched kernel stack per shard, and merges the per-shard
// top-K heaps under the canonical tie-break order. The result is
// bit-identical — hits, scores, coordinates, tie-breaks, Searched and
// Cells — to a single-node search.Run of the same query with the same
// Options.
//
// Robustness is structural, not best-effort: scatter is at-least-once
// (per-shard request timeouts with recovery.Backoff retransmission,
// worker-side dedup by request id), lease heartbeats detect a dead
// shard, and the master replays a dead shard's partition on a survivor
// — a query in flight when a shard is killed mid-scan returns the same
// bits as if nothing happened. The pruning floor is shared by gossip:
// workers stream result-eligible scores to the master, which maintains
// the global top-K floor and broadcasts rises back to every shard; a
// lost or late floor update only loosens pruning, never the result
// (prune.go's exactness argument survives distribution unchanged, see
// DESIGN.md §11).
package shard

import (
	"fmt"
	"sort"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
)

// Span is one shard's partition: the half-open rank range [Lo, Hi) of
// the database's canonical scan order (length descending, record index
// ascending on ties). Partitioning by rank range keeps every shard's
// local scan order a contiguous slice of the global one, so lane
// groups inside a shard pack the same near-equal lengths they would in
// a single-node scan. An empty span (Lo == Hi) is a valid shard with
// no work — it appears when shards outnumber records.
type Span struct {
	Lo, Hi int
}

// Len returns the number of records in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

func (s Span) String() string { return fmt.Sprintf("[%d,%d)", s.Lo, s.Hi) }

// PlanSpans cuts the database's canonical order into shards contiguous
// spans balanced by total base count: with every shard scanning the
// same query, bases are proportional to DP cells, so equal bases means
// equal work (DSA's partition rule). The cut points are the ranks where
// the cumulative base count first reaches i/shards of the total,
// rounded to the nearest lane-group boundary (multiple of
// bio.PackedLanes8) — an aligned span's lane groups coincide with the
// global 8-lane groups, so a worker attaches to its slice of the
// pack's precomputed (possibly mmap'd) lane layout instead of
// re-interleaving its sub-database (see subDB). The rounding moves at
// most half a group of records per cut and is deterministic — every
// master over the same database computes the same plan, and FuzzShardPlan
// proves the plan never affects results, only balance.
func PlanSpans(db *search.DB, shards int) []Span {
	order := db.Order()
	recs := db.Records()
	n := len(order)
	spans := make([]Span, shards)
	lo := 0
	var cum int64
	for s := 0; s < shards; s++ {
		hi := lo
		if s == shards-1 {
			hi = n
		} else {
			target := db.TotalBases() * int64(s+1) / int64(shards)
			for hi < n && cum < target {
				cum += int64(len(recs[order[hi]].Seq))
				hi++
			}
			if hi < n {
				down := hi - hi%bio.PackedLanes8
				up := min(down+bio.PackedLanes8, n)
				if hi-down <= up-hi {
					for hi > down {
						hi--
						cum -= int64(len(recs[order[hi]].Seq))
					}
				} else {
					for hi < up {
						cum += int64(len(recs[order[hi]].Seq))
						hi++
					}
				}
			}
		}
		spans[s] = Span{Lo: lo, Hi: hi}
		lo = hi
	}
	return spans
}

// ValidateSpans checks that spans is a partition of [0, n): contiguous,
// non-overlapping, covering every rank exactly once. Overlap would
// double records into the merged top K (corrupting tie-breaks), a gap
// would silently drop them — both break bit-exactness, so a custom
// plan is rejected up front.
func ValidateSpans(spans []Span, n int) error {
	if len(spans) == 0 {
		return fmt.Errorf("shard: empty span plan")
	}
	at := 0
	for i, sp := range spans {
		if sp.Lo != at {
			return fmt.Errorf("shard: span %d is %v, want Lo=%d (plan must be contiguous)", i, sp, at)
		}
		if sp.Hi < sp.Lo {
			return fmt.Errorf("shard: span %d is %v: Hi < Lo", i, sp)
		}
		at = sp.Hi
	}
	if at != n {
		return fmt.Errorf("shard: plan covers [0,%d) of %d records", at, n)
	}
	return nil
}

// subDB materializes one span as a prepared sub-database plus the
// local→global record index map. The sub-records are laid out in
// ascending global index order — NOT canonical order — because the
// top-K heap breaks score ties by record index, and local index order
// must agree with global index order for the merged tie-breaks to be
// bit-identical to a single-node scan. The canonical scan permutation
// is supplied explicitly: the span's slice of the global canonical
// order, translated to local indices. (It is still canonical for the
// sub-database: lengths stay non-increasing, and on equal lengths
// global rank order is global index order, which is local index
// order.)
func subDB(db *search.DB, sp Span) (*search.DB, []int, error) {
	order := db.Order()
	recs := db.Records()
	toGlobal := make([]int, 0, sp.Len())
	for r := sp.Lo; r < sp.Hi; r++ {
		toGlobal = append(toGlobal, order[r])
	}
	sort.Ints(toGlobal)
	local := make(map[int]int, sp.Len())
	sub := make([]bio.Record, sp.Len())
	for li, gi := range toGlobal {
		sub[li] = recs[gi]
		local[gi] = li
	}
	perm := make([]int, sp.Len())
	for j := range perm {
		perm[j] = local[order[sp.Lo+j]]
	}
	d, err := search.PreparedDB(sub, perm)
	if err != nil {
		return nil, nil, err
	}
	if lay := db.Layout(); lay != nil && sp.Len() > 0 &&
		sp.Lo%bio.PackedLanes8 == 0 && (sp.Hi%bio.PackedLanes8 == 0 || sp.Hi == len(order)) {
		// A lane-aligned span's groups coincide with the global 8-lane
		// groups (the sub-DB's canonical order is the span's slice of the
		// global one, and groups cut every 8 ranks from rank 0), so the
		// sub-DB can alias the parent's precomputed — possibly mmap'd —
		// layout slice instead of re-interleaving. A trailing partial
		// group only occurs at sp.Hi == n, where all its lanes are
		// in-span, so the slice is exactly BuildLayout(sub-DB). Unaligned
		// custom spans skip the attach and fall back to lazy rebuild.
		if err := d.SetLayout(lay.Slice(sp.Lo/bio.PackedLanes8, (sp.Hi+bio.PackedLanes8-1)/bio.PackedLanes8)); err != nil {
			return nil, nil, err
		}
	}
	return d, toGlobal, nil
}
