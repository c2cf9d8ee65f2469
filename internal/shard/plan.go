// Package shard is the distributed database-search layer: a master
// deals a prepared database's lane groups across N worker shards by the
// source paper's scattered mapping (§4.4), scatters each query batch to
// every shard, runs the full pruned/dispatched kernel stack per shard,
// and merges the per-shard top-K heaps under the canonical tie-break order. The result is
// bit-identical — hits, scores, coordinates, tie-breaks, Searched and
// Cells — to a single-node search.Run of the same query with the same
// Options.
//
// Robustness is structural, not best-effort: the transport delivers at
// least once, as the DSM layer's does (a lost attempt costs one
// recovery.Backoff timeout, then the message arrives), so the master
// sends each request once and workers drop duplicates by request id;
// lease heartbeats detect a dead shard, and the master replays a dead
// shard's partition on a survivor under a fresh id — a query in flight
// when a shard is killed mid-scan returns the same bits as if nothing
// happened. The pruning floor is shared by gossip:
// workers stream result-eligible scores to the master, which maintains
// the global top-K floor and broadcasts rises back to every shard; a
// lost or late floor update only loosens pruning, never the result
// (prune.go's exactness argument survives distribution unchanged, see
// DESIGN.md §11).
package shard

import (
	"fmt"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
)

// Span is one shard's partition of the database's canonical scan order
// (length descending, record index ascending on ties), in one of two
// forms. A contiguous span (Deal ≤ 1) owns the ranks [Lo, Hi). A dealt
// span owns, of the ranks in [Lo, Hi), the runs of bio.PackedLanes8
// ranks starting at Lo, Lo+8·Deal, Lo+16·Deal, … — every Deal-th lane
// group. Either way each run of at most bio.PackedLanes8 ranks is one
// lane group of the shard's scan, and the runs ascend in rank order, so
// the groups pack the same near-equal lengths they would in a
// single-node scan. A span owning no rank is a valid shard with no work
// — it appears when shards outnumber lane groups.
type Span struct {
	Lo, Hi int
	Deal   int
}

// runs calls f with each run [lo, hi) of ranks the span owns, in rank
// order.
func (s Span) runs(f func(lo, hi int)) {
	step := max(s.Deal, 1) * bio.PackedLanes8
	for lo := s.Lo; lo < s.Hi; lo += step {
		f(lo, min(lo+bio.PackedLanes8, s.Hi))
	}
}

// view returns the view of db that scans the span's runs, each run one
// lane group (search.DB.View).
func (s Span) view(db *search.DB) (*search.DB, error) {
	var runs [][2]int
	s.runs(func(lo, hi int) { runs = append(runs, [2]int{lo, hi}) })
	return db.View(runs)
}

func (s Span) String() string {
	if s.Deal > 1 {
		return fmt.Sprintf("[%d,%d)/%d", s.Lo, s.Hi, s.Deal)
	}
	return fmt.Sprintf("[%d,%d)", s.Lo, s.Hi)
}

// PlanSpans deals the canonical lane groups to shards by the source
// paper's scattered mapping (§4.4): group g, ranks [8g, 8g+8), goes to
// shard g mod shards. Every shard's scan therefore starts with the
// longest records — where homologs sort, so every shard's pruning
// floor rises from its own first groups, not only from gossip (a
// contiguous cut of equal bases can leave every homolog on the first
// shard). It balances cells too: shard i's k-th group is never shorter
// than shard i+1's, so loads fall with the shard id and the first and
// last differ by at most the first group's bases. Each dealt group is a whole
// global group, so a shard's scan reads the pack's precomputed (possibly
// mmap'd) lane layout words instead of re-interleaving (search.DB.View).
// The plan is deterministic, and FuzzShardPlan proves no plan affects
// results, only speed.
func PlanSpans(db *search.DB, shards int) []Span {
	n := db.Size()
	spans := make([]Span, shards)
	for i := range spans {
		spans[i] = Span{Lo: min(i*bio.PackedLanes8, n), Hi: n, Deal: shards}
	}
	return spans
}

// ValidateSpans checks that spans partition [0, n): each span lies in
// [0, n) and every rank is owned by exactly one span. Overlap would
// double records into the merged top K (corrupting tie-breaks), a gap
// would silently drop them — both break bit-exactness, so a custom
// plan is rejected up front.
func ValidateSpans(spans []Span, n int) error {
	if len(spans) == 0 {
		return fmt.Errorf("shard: empty span plan")
	}
	owner := make([]int, n) // span index + 1; 0 = unowned
	for i, sp := range spans {
		if sp.Lo < 0 || sp.Hi < sp.Lo || sp.Hi > n || sp.Deal < 0 {
			return fmt.Errorf("shard: span %d is %v: want 0 ≤ Lo ≤ Hi ≤ %d and Deal ≥ 0", i, sp, n)
		}
		var err error
		sp.runs(func(lo, hi int) {
			for r := lo; r < hi; r++ {
				if owner[r] != 0 && err == nil {
					err = fmt.Errorf("shard: spans %d and %d both own rank %d", owner[r]-1, i, r)
				}
				owner[r] = i + 1
			}
		})
		if err != nil {
			return err
		}
	}
	for r, o := range owner {
		if o == 0 {
			return fmt.Errorf("shard: no span owns rank %d of %d", r, n)
		}
	}
	return nil
}
