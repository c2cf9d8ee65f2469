package swar

import "genomedsm/internal/bio"

// The begin-sweep row kernel: one row of up to BeginLanes independent §6
// reverse sweeps (align.Retriever.Begin), one sweep per int16 lane of a
// YMM register — the inter-task lanes of SWAPHI and the Knights Landing
// paper, applied to the paper's Section 6. Lane l sweeps its own pair of
// reversed prefixes: its row p is its own query row and its column q its
// own target column, so a row of the pass is row p of every lane at
// once. Its callers (align.Retriever.BeginLanes, and LocateLanes,
// which runs the forward end-block replays of LocateEnd in its lanes)
// own the windows, the floors, the tie-break and the stop rule; the
// kernel only evaluates.
//
// A row array holds four words per column, lane l's value in bits
// 16(l%4)… of word 4q+l/4. A live value is exact and ≥ its row's floor;
// every other cell holds LaneDead, far enough below any floor that no
// candidate built on it is live again (the adds saturate). The code
// array holds, in the same layout, each lane's target code per column
// (LaneTarget, or the dead column LaneDead past the lane's own prefix),
// and LaneRow the row's query code per lane (LaneQuery). The two code
// sets are disjoint except on equal known bases, so a compare of the two
// is the substitution rule of bio.Substitution: an 'N' on either side,
// and a dead column, never match.

// BeginLanes is the number of sweeps a BeginRow row runs: the int16
// lanes of a YMM register.
const BeginLanes = 16

// LaneMax is the largest value a live cell of BeginRow may hold: the
// target codes, which cap every cell from above, start here. A sweep is
// admitted to a lane only when Match·min(endI, endJ), which bounds every
// cell of it, and its score k are at most LaneMax.
const LaneMax = 0x7FF0

// LaneDead is the value of a dead cell and of a dead column's target
// code; LaneDeadWord is a column word with all four lanes dead.
const (
	LaneDead     = -0x8000
	LaneDeadWord = 0x8000_8000_8000_8000
)

// LaneStopped is the floor of a lane whose sweep is over, or that holds
// none: above every live value, so every cell of the row is dead.
const LaneStopped = 0x7FFF

// LaneRow holds the per-lane operands of one BeginRow row. The assembly
// reads it at fixed offsets: keep the field order.
type LaneRow struct {
	// Query is the row's query code per lane (LaneQuery).
	Query [BeginLanes]int16
	// Floor is the least value a cell of the row stays live with, per
	// lane: LaneStopped for a lane that runs no sweep.
	Floor [BeginLanes]int16
	// Reach is k−1 per lane: BeginRow reports the lanes whose row holds a
	// cell above it.
	Reach [BeginLanes]int16
	// The scoring in every lane, set by SetScoring.
	Match, Mismatch, Gap [BeginLanes]int16
	// Clamp is the least value a cell takes, per lane: LaneDead, no
	// clamp, for a begin sweep, 0 for LocateLanes' zero-clamped local
	// recurrence.
	Clamp [BeginLanes]int16
}

// SetScoring puts sc's scores in every lane. A penalty below the int16
// range is clamped to it, which changes no live cell: a candidate that
// adds one to a value ≤ LaneMax is below 1 either way.
func (r *LaneRow) SetScoring(sc bio.Scoring) {
	for l := range r.Match {
		r.Match[l] = int16(sc.Match)
		r.Mismatch[l] = int16(max(sc.Mismatch, LaneDead))
		r.Gap[l] = int16(max(sc.Gap, LaneDead))
	}
}

// laneCodes are the lane codes of every byte, target and query: the
// base's bio.BaseCode above LaneMax, and for a query 'N' (or any byte
// outside ACGT) LaneStopped, which no target code equals — a target 'N'
// keeps bio.PadCode's code, which no query code equals.
var laneCodes = func() (c struct{ target, query [256]int16 }) {
	for b := range c.target {
		code := int16(LaneMax + int(bio.BaseCode(byte(b))))
		c.target[b], c.query[b] = code, code
		if bio.BaseCode(byte(b)) == bio.PadCode {
			c.query[b] = LaneStopped
		}
	}
	return c
}()

// LaneTarget is the code of target byte b in a BeginRow code array.
func LaneTarget(b byte) int16 { return laneCodes.target[b] }

// LaneQuery is the code of query byte b in LaneRow.Query.
func LaneQuery(b byte) int16 { return laneCodes.query[b] }

// HasBeginRow reports whether BeginRow runs on this host: an amd64 CPU
// with AVX2. There is no portable form; align.Retriever.Begin is the
// fallback.
func HasBeginRow() bool { return hasAVX2 }

// BeginRow evaluates row p of a lane pass from the row above it, prev,
// into cur: columns [lo, mid] by the full recurrence
//
//	v = max(clamp, d + sub, n + gap, w + gap)
//
// with d, n from prev, w the cell to the west and clamp the lane's
// r.Clamp, then the west chain past mid — cells whose north and
// diagonal are dead, max(clamp, w + gap) — while any lane of it is
// live, up to column qmax. Each cell is then capped by its column's
// code (a dead column kills it) and stored as LaneDead when below its
// lane's floor. Column lo−1 of cur is set to the clamp — dead for a
// begin sweep, the zero border column of a locate pass — and the column
// after the last one evaluated, end (≤ qmax+1), dead, so cur holds a
// value for every column in [lo−1, end]. reach has bit l set when lane
// l's row holds a cell above r.Reach[l], over when it holds one above
// r.Reach[l]+1: with Reach at k−1, the lanes whose row reaches k and
// those whose row exceeds it.
//
// prev must hold mid+1 columns, cur qmax+2 and codes qmax+1, with
// 1 ≤ lo ≤ mid ≤ qmax; it panics otherwise, and on a host without AVX2.
func BeginRow(prev, cur, codes []uint64, r *LaneRow, lo, mid, qmax int) (end int, reach, over uint32) {
	if !hasAVX2 {
		panic("swar: BeginRow needs AVX2")
	}
	if lo < 1 || mid < lo || qmax < mid || len(prev) < 4*(mid+1) || len(cur) < 4*(qmax+2) || len(codes) < 4*(qmax+1) {
		panic("swar: BeginRow row or codes shorter than its columns")
	}
	end, reach, over = beginRow(prev, cur, codes, r, lo, mid, qmax)
	return end, compress(reach), compress(over)
}

// compress turns one of the kernel's lane masks, two equal bits per
// lane (a byte mask of the lanes' words), into one bit per lane: the
// even bits, gathered.
func compress(reach uint32) uint32 {
	m := reach & 0x5555_5555
	m = (m | m>>1) & 0x3333_3333
	m = (m | m>>2) & 0x0F0F_0F0F
	m = (m | m>>4) & 0x00FF_00FF
	return (m | m>>8) & 0xFFFF
}
