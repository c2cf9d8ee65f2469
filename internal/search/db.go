package search

import (
	"fmt"
	"sort"

	"genomedsm/internal/bio"
)

// DB is a prepared database: the records plus everything a scan derives
// from them that does not depend on the query — the canonical
// descending-length order, its lane groups, the total base count, and
// (optionally) a pack's precomputed lane-group layout. Build one DB per
// database and reuse it across scans: a resident server amortizes the
// preparation over millions of queries, and internal/dbpack persists
// exactly this state so a cold process loads it without re-parsing
// FASTA or re-sorting. A DB is read-only after construction and safe
// for concurrent scans.
//
// A DB may also be a view of another (View): the same records, order,
// layout and index space, scanning only some of its lane groups.
type DB struct {
	*base
	groups []group // the lane groups a scan visits, in rank order
	size   int     // records in groups
	total  int64   // their bases
}

// base is what a DB shares with its views.
type base struct {
	recs   []bio.Record
	order  []int   // canonical scan order: length desc, index asc on ties
	whole  []group // the order cut into consecutive groups of 8
	layout *Layout // optional precomputed lane-group layout (layout.go)
}

// group is one lane group of a scan: the records of up to
// bio.PackedLanes8 consecutive canonical ranks, in rank order.
type group struct {
	recs   []int // a slice of the order
	bases  int64
	layout int // the group of the whole cut these records form, whose layout words a scan reads; -1 if none
}

// sortedOrder computes the canonical scan order of recs: decreasing
// sequence length, record index ascending on ties. The order is a
// strict total order, so it is unique — every scan of the same records
// forms identical lane groups, which is what keeps tie-breaks and
// padded-cell accounting reproducible across Run, RunBatch and a
// pack-loaded database.
func sortedOrder(recs []bio.Record) []int {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := len(recs[order[a]].Seq), len(recs[order[b]].Seq)
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	return order
}

// NewDB prepares recs for scanning.
func NewDB(recs []bio.Record) *DB {
	return newDB(recs, sortedOrder(recs))
}

// newDB cuts a canonical order into its lane groups.
func newDB(recs []bio.Record, order []int) *DB {
	b := &base{recs: recs, order: order}
	d := &DB{base: b}
	for lo := 0; lo < len(order); lo += bio.PackedLanes8 {
		d.add(lo, min(lo+bio.PackedLanes8, len(order)))
	}
	b.whole = d.groups
	return d
}

// PreparedDB builds a DB from records plus a precomputed scan order
// (a pack file stores the order so loading skips the sort). The order
// is validated against the canonical total order — length descending,
// index ascending on ties — because a permutation that merely looks
// sorted but breaks the tie rule would regroup records and silently
// change padded-cell accounting; the canonical order is unique, so
// checking adjacency pairs proves equality with what NewDB computes.
func PreparedDB(recs []bio.Record, order []int) (*DB, error) {
	if len(order) != len(recs) {
		return nil, fmt.Errorf("search: order holds %d entries for %d records", len(order), len(recs))
	}
	seen := make([]bool, len(recs))
	for rank, idx := range order {
		if idx < 0 || idx >= len(recs) {
			return nil, fmt.Errorf("search: order rank %d names record %d of %d", rank, idx, len(recs))
		}
		if seen[idx] {
			return nil, fmt.Errorf("search: order names record %d twice", idx)
		}
		seen[idx] = true
		if rank == 0 {
			continue
		}
		prev := order[rank-1]
		lp, li := len(recs[prev].Seq), len(recs[idx].Seq)
		if lp < li || (lp == li && prev > idx) {
			return nil, fmt.Errorf("search: order is not the canonical length-sorted order at rank %d", rank)
		}
	}
	return newDB(recs, order), nil
}

// View returns the view of d that scans the lane groups runs name:
// each run [lo, hi) is one group, of at most bio.PackedLanes8
// consecutive canonical ranks, and the runs ascend without overlap.
// The view keeps d's records, order, layout and index space — its hits'
// Index, and the index OnScore reports, name records of d — so the
// results of views of one database merge with no translation. A run
// that is a whole group of d's cut reads that group's layout words, if
// any; another run interleaves its records per scan, as a DB without a
// layout does. Size and TotalBases count the view's own records, and so
// do the Searched and Cells of its scans.
func (d *DB) View(runs [][2]int) (*DB, error) {
	v := &DB{base: d.base}
	prev := 0
	for _, r := range runs {
		lo, hi := r[0], r[1]
		if lo < prev || hi <= lo || hi > len(d.order) || hi-lo > bio.PackedLanes8 {
			return nil, fmt.Errorf("search: view run [%d,%d) after rank %d of %d: want ascending runs of 1 to %d ranks", lo, hi, prev, len(d.order), bio.PackedLanes8)
		}
		v.add(lo, hi)
		prev = hi
	}
	return v, nil
}

// add appends the group of ranks [lo, hi).
func (d *DB) add(lo, hi int) {
	g := group{recs: d.order[lo:hi], layout: -1}
	for _, idx := range g.recs {
		g.bases += int64(len(d.recs[idx].Seq))
	}
	if lo%bio.PackedLanes8 == 0 && (hi-lo == bio.PackedLanes8 || hi == len(d.order)) {
		g.layout = lo / bio.PackedLanes8
	}
	d.groups = append(d.groups, g)
	d.size += len(g.recs)
	d.total += g.bases
}

// words returns the layout words of g, a group of d, or nil when d's
// database has no layout or g is no group of its whole cut.
func (d *DB) words(g *group) []uint64 {
	if d.layout == nil || g.layout < 0 {
		return nil
	}
	return d.layout.GroupWords(g.layout)
}

// Records returns the underlying records (callers must not mutate); a
// view's are its database's.
func (d *DB) Records() []bio.Record { return d.recs }

// Order returns the canonical scan order (callers must not mutate).
func (d *DB) Order() []int { return d.order }

// Size returns the number of records a scan visits.
func (d *DB) Size() int { return d.size }

// TotalBases returns the summed lengths of the records a scan visits.
func (d *DB) TotalBases() int64 { return d.total }
