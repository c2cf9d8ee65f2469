// Package swar implements inter-sequence vectorized Smith–Waterman in
// pure Go via SWAR ("SIMD within a register"): one uint64 word carries
// the running scores of 8 int8 lanes (or 4 int16 lanes), each lane
// scanning a different target sequence against the same query. The
// style follows the inter-sequence vectorization of DSA (Xu et al.,
// arXiv:1701.01575) and SWAPHI (Liu & Schmidt, arXiv:1404.4152): because
// every lane is an independent pairwise comparison, the DP recurrence
// has no cross-lane dependencies and the scalar inner loop of
// align.Scan lifts to packed words unchanged.
//
// # Guard-bit arithmetic
//
// Local-alignment scores are never negative, so lanes hold unsigned
// magnitudes and the zero clamp max(0, ·) of the recurrence is the
// floor of a clamped subtract. Keeping each lane's *top bit free as a
// guard* (clean scores ≤ 127 per int8 lane, ≤ 32767 per int16 lane)
// buys two things:
//
//   - The diagonal term needs no saturating add: with the profile split
//     into non-negative match/mismatch magnitudes (bio.PackedProfile),
//     v = clamp(d − minus) + plus is exact and a *plain* word add — per
//     lane, exactly one of plus/minus is nonzero, lane sums stay below
//     256, and carries never cross a lane boundary.
//   - Subtracts of penalties p ≤ 127 use z = (x|hi) − p, which cannot
//     borrow across lanes because every byte of x|hi is ≥ 128 > p; the
//     guard bit of z doubles as the per-lane "did not underflow" flag
//     that implements the zero clamp.
//
// A lane whose value sets the guard bit may be about to overflow, so
// the kernel ORs every cell into a saturation accumulator; the first
// excess value is still computed exactly (sums stay within the lane),
// so a lane is either never flagged — and bit-exact against the scalar
// kernel — or flagged and retried with the next wider layout:
// int8 → int16 → the exact scalar kernel (scalar.go). Wrapped garbage in a
// flagged lane stays inside that lane (no operation carries or borrows
// across lane boundaries for any input), so neighbours are unaffected.
// The chain (Ladder, ladder.go) is bit-exact against align.Scan by
// construction.
package swar

import (
	"genomedsm/internal/bio"
)

// Guard-bit masks of the two packed widths: the per-lane top bits.
const (
	hi8  = 0x8080808080808080
	hi16 = 0x8000800080008000
)

// SubClamp8 returns per byte max(0, x−y), the zero-clamped subtract of
// the local recurrence, for penalty lanes y ≤ 127. The result lane is
// exact when the x lane is clean (≤ 127) and always ≤ 127; no borrow
// ever crosses a lane boundary, for any x.
func SubClamp8(x, y uint64) uint64 {
	z := (x | hi8) - y
	m := ((z & hi8) >> 7) * 0xFF
	return (z &^ hi8) & m
}

// MaxClamped8 returns the per-byte unsigned maximum for y lanes ≤ 127
// and any x: a lane with the guard bit set always beats y, otherwise
// the guard bit of (x|hi)−y decides. Exact for every x ≤ 255, y ≤ 127.
func MaxClamped8(x, y uint64) uint64 {
	z := (x | hi8) - y
	m := (((x | z) & hi8) >> 7) * 0xFF
	return (x & m) | (y &^ m)
}

// SubClamp16 and MaxClamped16 are the 4-lane uint16 variants, with the
// penalty bound 32767.
func SubClamp16(x, y uint64) uint64 {
	z := (x | hi16) - y
	m := ((z & hi16) >> 15) * 0xFFFF
	return (z &^ hi16) & m
}

// MaxClamped16 is the 4-lane uint16 maximum for y lanes ≤ 32767.
func MaxClamped16(x, y uint64) uint64 {
	z := (x | hi16) - y
	m := (((x | z) & hi16) >> 15) * 0xFFFF
	return (x & m) | (y &^ m)
}

// row8 advances one packed row of the zero-clamped local recurrence for
// all 8 lanes at once — the SWAR lift of align.swRow: per word,
//
//	cur[j] = max(clamp(prev[j-1] − minus[j]) + plus[j],
//	             clamp(prev[j] − gap), clamp(cur[j-1] − gap))
//
// with the zero clamp implicit in the clamped subtracts. It folds the
// row into the running guard-stripped per-lane maximum and ORs every
// cell into the saturation accumulator sat; lanes that ever set their
// guard bit in sat are unreliable and must be retried wider.
func row8(prev, cur, plus, minus []uint64, gapV, best, sat uint64) (uint64, uint64) {
	n := len(plus)
	d := prev[0]   // diag carry: prev[j-1]
	w := uint64(0) // left carry: cur[j-1]; the border column is all zero
	pr := prev[1:]
	out := cur[1:]
	_ = pr[n-1] // bounds hints for the loop body
	_ = out[n-1]
	_ = minus[n-1]
	for j := 0; j < n; j++ {
		v := SubClamp8(d, minus[j]) + plus[j]
		d = pr[j]
		v = MaxClamped8(v, SubClamp8(d, gapV))
		v = MaxClamped8(v, SubClamp8(w, gapV))
		out[j] = v
		w = v
		sat |= v
		best = MaxClamped8(best, v&^hi8)
	}
	return best, sat
}

// row16 is row8 for 4 uint16 lanes.
func row16(prev, cur, plus, minus []uint64, gapV, best, sat uint64) (uint64, uint64) {
	n := len(plus)
	d := prev[0]
	w := uint64(0)
	pr := prev[1:]
	out := cur[1:]
	_ = pr[n-1]
	_ = out[n-1]
	_ = minus[n-1]
	for j := 0; j < n; j++ {
		v := SubClamp16(d, minus[j]) + plus[j]
		d = pr[j]
		v = MaxClamped16(v, SubClamp16(d, gapV))
		v = MaxClamped16(v, SubClamp16(w, gapV))
		out[j] = v
		w = v
		sat |= v
		best = MaxClamped16(best, v&^hi16)
	}
	return best, sat
}

// LaneScores is the outcome of one packed scan.
type LaneScores struct {
	// Scores holds the per-lane best local-alignment score; only the
	// first Lanes entries are meaningful, and a lane flagged in
	// Saturated must not be trusted.
	Scores [bio.PackedLanes8]int
	// Saturated is the bitmask of lanes that ever set their guard bit:
	// their true score may exceed the clean lane range.
	Saturated uint8
	// EndBlock holds, per unsaturated lane, the block of BlockRows query
	// rows in which the lane's running maximum reached Scores[l] — the
	// block of the end row align.Scan reports (see GroupResult.EndBlock).
	EndBlock [bio.PackedLanes8]int
	// Lanes is the number of live lanes (= number of targets scanned).
	Lanes int
	// Rows is the number of query rows the scan consumed: the full query
	// length for a completed scan, fewer when a Bound abandoned it.
	Rows int
	// Pruned reports that a bounded scan was abandoned mid-matrix: every
	// lane's exact score is provably below the bound's Below threshold.
	// Scores are then meaningless and Saturated is always zero (saturated
	// lanes are never used as abandon evidence).
	Pruned bool
}

// Aligner carries the reusable packed row buffers of one worker. The
// zero value is ready to use; an Aligner must not be shared between
// goroutines.
type Aligner struct {
	prev, cur   []uint64 // inter-sequence packed rows (Scan8/Scan16)
	sprev, scur []uint64 // striped rows (StripedScan8/StripedScan16)
	schg        []uint64 // striped correction-loop change mask
}

// rows returns the two row buffers of length words+1, with prev cleared
// (the zero top border) — cur is fully overwritten row by row and its
// border cell cur[0] is never read (the left carry starts at the
// constant zero column instead).
func (a *Aligner) rows(words int) ([]uint64, []uint64) {
	if cap(a.prev) < words+1 {
		a.prev = make([]uint64, words+1)
		a.cur = make([]uint64, words+1)
	}
	a.prev = a.prev[:words+1]
	a.cur = a.cur[:words+1]
	clear(a.prev)
	a.cur[0] = 0
	return a.prev, a.cur
}

// scanPacked runs the packed recurrence of q against prof and returns
// the folded guard-stripped per-lane maximum, the saturation word and
// each lane's end-row block. Under a non-nil Bound it additionally
// abandons the scan (see Bound) once no lane can still reach the
// threshold, reporting how many rows it consumed and whether it pruned.
//
// The lanes keep one running maximum each and no coordinates, so the
// end row is recovered at block granularity: best is compared with its
// value one block of BlockRows rows earlier, and a lane that moved is
// stamped with the block. A lane's maximum only ever grows, so its last
// stamp is the block whose rows first reached the final score — one XOR
// per block, per-lane work only when a maximum moved.
func (a *Aligner) scanPacked(q bio.Sequence, prof *bio.PackedProfile, gap int, ab *Bound) (best, sat uint64, blocks [bio.PackedLanes8]int, rows int, pruned bool) {
	words := prof.Words()
	if words == 0 || len(q) == 0 {
		return 0, 0, blocks, len(q), false
	}
	prev, cur := a.rows(words)
	gapV := prof.Broadcast(gap)
	wide := prof.Lanes() == bio.PackedLanes16
	satMask := uint64(hi8)
	if wide {
		satMask = hi16
	}
	bounded := ab.cadence() != 0
	var snap uint64 // best at the previous block boundary
	for lo := 0; lo < len(q); lo += BlockRows {
		hi := min(lo+BlockRows, len(q))
		for _, c := range q[lo:hi] {
			if wide {
				best, sat = row16(prev, cur, prof.PlusRow(c), prof.MinusRow(c), gapV, best, sat)
			} else {
				best, sat = row8(prev, cur, prof.PlusRow(c), prof.MinusRow(c), gapV, best, sat)
			}
			prev, cur = cur, prev
		}
		if moved := best ^ snap; moved != 0 {
			for l := 0; l < prof.Lanes(); l++ {
				if prof.Lane(moved, l) != 0 {
					blocks[l] = lo / BlockRows
				}
			}
			snap = best
		}
		// Abandon only at full-block boundaries. A saturated lane's running
		// maximum is untrustworthy, so it is never abandon evidence; the
		// wider retry re-checks.
		if bounded && hi-lo == BlockRows && sat&satMask == 0 {
			m := reduce8(best)
			if wide {
				m = reduce16(best)
			}
			if m+ab.Query.SuffixBound(hi) < ab.Below {
				a.prev, a.cur = prev, cur
				return best, sat, blocks, hi, true
			}
		}
	}
	a.prev, a.cur = prev, cur
	return best, sat, blocks, len(q), false
}

// Scan8 scores q against up to 8 targets in int8 lanes. ok is false
// when the scoring magnitudes do not fit the 7-bit clean lane range
// (callers then use Scan16 or the scalar path); lanes that overflow it
// are flagged Saturated in the result.
func (a *Aligner) Scan8(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) (LaneScores, bool) {
	return a.scan(q, bio.NewPackedProfile8(targets, sc), sc, len(targets), nil)
}

// Scan16 scores q against up to 4 targets in int16 lanes.
func (a *Aligner) Scan16(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) (LaneScores, bool) {
	return a.scan(q, bio.NewPackedProfile16(targets, sc), sc, len(targets), nil)
}

// scan is the one packed rung: it scores q against the lanes live
// targets prof describes — at the profile's own width, int8 or int16 —
// under an optional Bound (nil = scan the full matrix). prof may be
// built per call or prebuilt from the pack-v2 lane layout and shared by
// the queries of a batch; either way it must describe exactly the
// group being scanned under sc. ok is false when prof is nil (the
// match/mismatch magnitudes do not fit the lane) or the gap penalty
// does not fit it; callers then fall to the next rung. An abandoned
// scan returns Pruned with Rows set to the rows consumed.
func (a *Aligner) scan(q bio.Sequence, prof *bio.PackedProfile, sc bio.Scoring, lanes int, ab *Bound) (LaneScores, bool) {
	if prof == nil || -sc.Gap > prof.Cap() {
		return LaneScores{}, false
	}
	best, sat, blocks, rows, pruned := a.scanPacked(q, prof, -sc.Gap, ab)
	res := LaneScores{Lanes: lanes, Rows: rows, Pruned: pruned}
	if pruned {
		return res, true
	}
	res.EndBlock = blocks // lanes past the live ones never left zero
	guard := uint64(1) << (uint(prof.Shift()) - 1)
	for l := 0; l < lanes; l++ {
		res.Scores[l] = prof.Lane(best, l)
		if prof.Lane(sat, l)&int(guard) != 0 {
			res.Saturated |= 1 << uint(l)
		}
	}
	return res, true
}
