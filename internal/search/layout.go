package search

import (
	"fmt"

	"genomedsm/internal/bio"
)

// Layout is the precomputed 8-lane group layout of a DB: the canonical
// scan order cut into groups of bio.PackedLanes8 records, each group
// stored as its lane-interleaved code words (bio.InterleaveWords8) —
// exactly the operand the int8 lane kernels read, comparing them with
// each query row's code in register. The layout is query- and
// scoring-independent, so `genomedsm index` computes it once at index
// time and a pack-v2 load maps the words straight from the file: the
// scan reads memory it never copied and builds nothing per group, and a
// view of the DB (a shard's) reads the same words for each of its runs
// that is a whole group. A Layout is read-only after construction and
// safe for concurrent scans.
type Layout struct {
	offs  []int64  // group g's words are words[offs[g]:offs[g+1]]
	words []uint64 // lane-interleaved code words
	view  bool     // words alias a caller-owned region (an mmap'd pack)
}

// BuildLayout computes the layout of d's database in memory — the
// single shared layout code path: the index-time encoder, an in-memory
// build and the forged-section rebuild all come through here.
func BuildLayout(d *DB) *Layout {
	offs := make([]int64, 1, len(d.whole)+1)
	var words []uint64
	targets := make([]bio.Sequence, 0, bio.PackedLanes8)
	for _, g := range d.whole {
		targets = targets[:0]
		for _, idx := range g.recs {
			targets = append(targets, d.recs[idx].Seq)
		}
		words = bio.InterleaveWords8(words, targets)
		offs = append(offs, int64(len(words)))
	}
	return &Layout{offs: offs, words: words}
}

// NewLayoutView wraps precomputed layout data — typically slices into
// an mmap'd pack section — without copying. The view is checked
// structurally here (offsets must be a monotone cover of words);
// callers that cannot trust the bytes must also run Validate against
// the DB before scanning with it.
func NewLayoutView(offs []int64, words []uint64) (*Layout, error) {
	if len(offs) == 0 || offs[0] != 0 {
		return nil, fmt.Errorf("search: layout offsets must start at 0")
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return nil, fmt.Errorf("search: layout offsets decrease at group %d", i-1)
		}
	}
	if offs[len(offs)-1] != int64(len(words)) {
		return nil, fmt.Errorf("search: layout offsets end at %d for %d words", offs[len(offs)-1], len(words))
	}
	return &Layout{offs: offs, words: words, view: true}, nil
}

// Groups returns the number of lane groups.
func (l *Layout) Groups() int { return len(l.offs) - 1 }

// GroupWords returns group g's interleaved code words (do not modify).
func (l *Layout) GroupWords(g int) []uint64 { return l.words[l.offs[g]:l.offs[g+1]] }

// IsView reports whether the words alias a caller-owned region rather
// than heap memory built by BuildLayout.
func (l *Layout) IsView() bool { return l.view }

// Bytes returns the in-memory size of the layout's data.
func (l *Layout) Bytes() int64 { return int64(len(l.words))*8 + int64(len(l.offs))*8 }

// Validate proves the layout semantically consistent with d's database:
// every group's words must equal the interleave of the group's record
// bytes.
// This is what upholds the "a forged lane section can only slow, never
// corrupt" rule for pack v2 — a file whose section checksums were
// forged along with the section can pass Open's integrity pass, but it
// cannot pass this compare against the sequence bytes, and the loader
// then rebuilds the layout from the records instead of trusting it.
func (l *Layout) Validate(d *DB) error {
	if l.Groups() != len(d.whole) {
		return fmt.Errorf("search: layout holds %d groups for %d", l.Groups(), len(d.whole))
	}
	var scratch []uint64
	targets := make([]bio.Sequence, 0, bio.PackedLanes8)
	for gi, g := range d.whole {
		targets = targets[:0]
		for _, idx := range g.recs {
			targets = append(targets, d.recs[idx].Seq)
		}
		scratch = bio.InterleaveWords8(scratch[:0], targets)
		got := l.GroupWords(gi)
		if len(got) != len(scratch) {
			return fmt.Errorf("search: layout group %d holds %d words, want %d", gi, len(got), len(scratch))
		}
		for j := range scratch {
			if got[j] != scratch[j] {
				return fmt.Errorf("search: layout group %d word %d disagrees with the record bytes", gi, j)
			}
		}
	}
	return nil
}

// SetLayout attaches a precomputed lane-group layout to d's database,
// its views included; scans then read its words instead of interleaving
// the record bytes. Only the cheap structural shape is checked here —
// callers loading untrusted bytes must Validate first. Call before the
// first scan.
func (d *DB) SetLayout(l *Layout) error {
	if l.Groups() != len(d.whole) {
		return fmt.Errorf("search: layout holds %d groups for %d records", l.Groups(), len(d.order))
	}
	d.layout = l
	return nil
}

// Layout returns the layout attached to d's database, or nil.
func (d *DB) Layout() *Layout { return d.layout }

// EnsureLayout returns the attached layout, building (and attaching)
// one when missing. Not safe to race with scans; call during
// preparation.
func (d *DB) EnsureLayout() *Layout {
	if d.layout == nil {
		d.layout = BuildLayout(d)
	}
	return d.layout
}
