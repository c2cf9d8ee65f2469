// Package swar implements inter-sequence vectorized Smith–Waterman via
// SWAR ("SIMD within a register"): one uint64 word carries
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
//   - The diagonal term needs no saturating add: with the substitution
//     split into non-negative match/mismatch magnitudes (rowPair8Go
//     derives them from the group's code words),
//     v = clamp(d − minus) + plus is exact and a *plain* word add — per
//     lane, exactly one of plus/minus is nonzero, lane sums stay below
//     256, and carries never cross a lane boundary.
//   - Subtracts of penalties p ≤ 127 use z = (x|hi) − p, which cannot
//     borrow across lanes because every byte of x|hi is ≥ 128 > p; the
//     guard bit of z doubles as the per-lane "did not underflow" flag
//     that implements the zero clamp.
//
// A lane whose value sets the guard bit may be about to overflow, so
// the kernel ORs every diagonal term — the only term that adds, and so
// the only place a clean lane can first exceed its cap (rowPair8Go) —
// into a saturation accumulator; the first excess value is still
// computed exactly (sums stay within the lane), so a lane is either
// never flagged — and bit-exact against the scalar kernel — or flagged
// and retried with the next wider layout: int8 → int16 → the exact
// scalar kernel (scalar.go). Wrapped garbage in a flagged lane stays
// inside that lane (no operation carries or borrows across lane
// boundaries for any input), so neighbours are unaffected. The chain
// (Ladder, ladder.go) is bit-exact against align.Scan by construction.
//
// # AVX2 kernels
//
// The pass the scan runs, rowOct8 or rowOct16, advances eight query
// rows at once. On an amd64 host with AVX2 it is assembly
// (rowoct_amd64.s) over the same words: the row and the group's code
// words, which a VPCMPEQB/VPCMPEQW against the pass's eight query codes
// turns into the substitution terms in register. Each of a YMM
// register's four qwords runs the portable two-row kernel's schedule on
// its own pair of rows, rows i+2k and i+2k+1 in qword k, two words
// behind qword k-1, whose odd row — kept in a register — is its row
// above. Each guard-bit
// op is one saturating lane op — SubClamp is VPSUBUSB/VPSUBUSW, the
// diagonal's add VPADDUSB/VPADDUSW, max8 and max16 VPMAXUB/VPMAXUW. On a
// clean lane every saturating op returns what its guard-bit twin does
// and the diagonal sum stays below the lane's top, so every cell up to
// the lane's first guard bit is bit-identical and the same diagonal term
// flags the lane. A flagged lane may hold other garbage than the
// portable kernel's (up to the lane's full range instead of ≤ cap),
// still inside its lane; nothing reads a flagged lane's values, which
// the wider retry computes afresh. AVX2 is detected once, from CPUID and
// the OS's saved register state. The portable pass, four rowPair8Go or
// rowPair16Go passes, is the specification: hosts without AVX2, every
// other GOARCH and rows under 8 words run it, and FuzzRowQuadVsPortable
// holds the assembly to it.
package swar

import (
	"math/bits"

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
// ever crosses a lane boundary, for any x. The guard bit t of z says
// "did not underflow"; t − t>>7 turns it into the lane's 7-bit value
// mask (0x80 − 0x01 = 0x7F, no borrow out of the lane).
func SubClamp8(x, y uint64) uint64 {
	z := (x | hi8) - y
	t := z & hi8
	return z & (t - t>>7)
}

// MaxClamped8 returns the per-byte unsigned maximum for y lanes ≤ 127
// and any x: a lane with the guard bit set always beats y, otherwise
// the guard bit of (x|hi)−y decides. Exact for every x ≤ 255, y ≤ 127.
// t<<1 − t>>7 spreads each set guard bit over its whole lane: the word
// subtract is Σ (0x100 − 0x01)·2^(8l) over the set lanes, mod 2^64.
func MaxClamped8(x, y uint64) uint64 {
	z := (x | hi8) - y
	t := (x | z) & hi8
	m := t<<1 - t>>7
	return y ^ ((x ^ y) & m)
}

// SubClamp16 and MaxClamped16 are the 4-lane uint16 variants, with the
// penalty bound 32767.
func SubClamp16(x, y uint64) uint64 {
	z := (x | hi16) - y
	t := z & hi16
	return z & (t - t>>15)
}

// MaxClamped16 is the 4-lane uint16 maximum for y lanes ≤ 32767.
func MaxClamped16(x, y uint64) uint64 {
	z := (x | hi16) - y
	t := (x | z) & hi16
	m := t<<1 - t>>15
	return y ^ ((x ^ y) & m)
}

// max8 is the maximum the portable two-row kernels use:
// y + clamp(x − y), one op shorter than MaxClamped8. For y lanes ≤ 127
// it is the exact per-byte maximum of every clean x lane; a dirty x
// lane (guard bit set) yields x−128 or y — garbage, but ≤ 127 and
// confined to its lane (the clamped subtract never borrows and the sum
// stays below 256), which is all a lane already flagged saturated has
// to guarantee.
func max8(x, y uint64) uint64 { return y + SubClamp8(x, y) }

// max16 is max8 for 4 uint16 lanes.
func max16(x, y uint64) uint64 { return y + SubClamp16(x, y) }

// eqMask8 returns, per byte, 0xFF where the byte of w equals the byte
// of pattern and 0x00 elsewhere. Exact for byte values ≤ 0x7F — codes
// are ≤ bio.PadCode and query patterns ≤ noMatch, so x = w^pattern stays
// ≤ 0x7F per byte. Adding 0x7F to such a byte sets its top bit iff the
// byte is nonzero and can never carry into the next byte (unlike the
// classic subtract-borrow zero test, whose borrows cross byte
// boundaries); m<<1 − m>>7 spreads each isolated 0x80 marker over its
// byte, as in MaxClamped8.
func eqMask8(w, pattern uint64) uint64 {
	x := w ^ pattern
	m := ^((x + 0x7f7f7f7f7f7f7f7f) | x) & hi8
	return m<<1 - m>>7
}

// eqMask16 is eqMask8 for 4 uint16 lanes, exact for lane values ≤ 0x7FFF.
func eqMask16(w, pattern uint64) uint64 {
	x := w ^ pattern
	m := ^((x + 0x7fff7fff7fff7fff) | x) & hi16
	return m<<1 - m>>15
}

// rowPair8Go advances two packed rows of the zero-clamped local
// recurrence for all 8 lanes at once — the SWAR lift of align.swRow,
//
//	H[i][j] = max(clamp(H[i-1][j-1] − minus[j]) + plus[j],
//	              clamp(H[i-1][j] − gap), clamp(H[i][j-1] − gap))
//
// with the zero clamp implicit in the clamped subtracts — in one
// skewed pass: the step at word j computes row i at j (a) and row i+1
// at j−1 (b). Row i never reaches memory: b needs a[j−2] (diagonal)
// and a[j−1] (up), both still in registers, and clamp(a[j−1] − gap) is
// at once a[j]'s left term and b[j−1]'s up term. row holds row i−1 on
// entry and row i+1 on return, updated in place: word j−1 is rewritten
// one step after its old value was read as a[j]'s diagonal. The two
// rows are two independent carried chains, which is what the pass buys
// over two one-row passes (DESIGN §5.6).
//
// The substitution term comes from the group's code words: qa and qb
// hold the query codes of rows i and i+1 in every lane, and where a
// lane's code at j equals the row's (eqMask8), plus[j] is match and
// minus[j] 0, else plus[j] is 0 and minus[j] miss — the lane's Match
// and |Mismatch|. Per lane exactly one of them is nonzero, so
// clamp(d − minus) + plus is max(0, d + Substitution) exactly.
//
// sat ORs the diagonal terms only. That is the one place a clean lane
// can first exceed its cap: the up and left terms are clamped subtracts
// and so ≤ 127 whatever their input, and max8 of a clean diagonal term
// is exact — so up to a lane's first guard bit every cell equals the
// scalar recurrence, and that first excess (≤ 254, still inside the
// lane) is ORed into sat before max8 mangles it. best folds both rows;
// every max8 output is ≤ 127, so it needs no guard strip. Lanes whose
// guard bit is set in sat are unreliable and must be retried wider.
//
// Four of these passes are the specification of the eight-row rowOct8
// the scan runs (rowOct8Go).
func rowPair8Go(row, codes []uint64, qa, qb, match, miss, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	_ = codes[n-1]    // len, not cap: the words past a group's are another's
	codes = codes[:n] // bounds hint for the loop body
	// Word 0 of row i: the borders are zero, so the diagonal term is
	// plus alone (≤ 127) and the left term vanishes.
	plus := match & eqMask8(codes[0], qa)
	a1 := max8(plus, SubClamp8(row[0], gapV)) // a[j-1]
	a2 := uint64(0)                           // a[j-2]: the zero border
	b := uint64(0)                            // b[j-2]: the zero border
	best = max8(a1, best)
	sat |= plus
	for j := 1; j < n; j++ {
		ea, eb := eqMask8(codes[j], qa), eqMask8(codes[j-1], qb)
		ag := SubClamp8(a1, gapV)
		da := SubClamp8(row[j-1], miss&^ea) + match&ea
		db := SubClamp8(a2, miss&^eb) + match&eb
		sat |= da | db
		a := max8(max8(da, SubClamp8(row[j], gapV)), ag)
		b = max8(max8(db, ag), SubClamp8(b, gapV))
		row[j-1] = b // row i-1's word, read just above as a's diagonal
		best = max8(max8(a, b), best)
		a2, a1 = a1, a
	}
	// Last word of row i+1.
	eb := eqMask8(codes[n-1], qb)
	db := SubClamp8(a2, miss&^eb) + match&eb
	sat |= db
	b = max8(max8(db, SubClamp8(a1, gapV)), SubClamp8(b, gapV))
	row[n-1] = b
	return max8(b, best), sat
}

// rowPair16Go is rowPair8Go for 4 uint16 lanes. The two stay specialised
// copies: one kernel taking the guard mask and lane shift as arguments
// measured 23 % slower (variable shifts, two more live registers).
func rowPair16Go(row, codes []uint64, qa, qb, match, miss, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	_ = codes[n-1]
	codes = codes[:n]
	plus := match & eqMask16(codes[0], qa)
	a1 := max16(plus, SubClamp16(row[0], gapV))
	a2 := uint64(0)
	b := uint64(0)
	best = max16(a1, best)
	sat |= plus
	for j := 1; j < n; j++ {
		ea, eb := eqMask16(codes[j], qa), eqMask16(codes[j-1], qb)
		ag := SubClamp16(a1, gapV)
		da := SubClamp16(row[j-1], miss&^ea) + match&ea
		db := SubClamp16(a2, miss&^eb) + match&eb
		sat |= da | db
		a := max16(max16(da, SubClamp16(row[j], gapV)), ag)
		b = max16(max16(db, ag), SubClamp16(b, gapV))
		row[j-1] = b // row i-1's word, read just above as a's diagonal
		best = max16(max16(a, b), best)
		a2, a1 = a1, a
	}
	eb := eqMask16(codes[n-1], qb)
	db := SubClamp16(a2, miss&^eb) + match&eb
	sat |= db
	b = max16(max16(db, SubClamp16(a1, gapV)), SubClamp16(b, gapV))
	row[n-1] = b
	return max16(b, best), sat
}

// octCodes is what an eight-row pass reads besides the row and the
// group's code words: the query codes of its rows, each in every lane of
// a word — rows i, i+2, i+4, i+6 in x and i+1, i+3, i+5, i+7 in y, the
// qword order of the AVX2 kernels' X and Y registers — and the scoring's
// Match and |Mismatch| in every lane, four copies each for one YMM load.
// The assembly reads it at fixed offsets: keep the field order.
type octCodes struct {
	x, y        [4]uint64
	match, miss [4]uint64
}

// noMatch is the query code of a row that matches nothing: an 'N' (or
// any byte outside ACGT) and the phantom rows that pad a query's last
// pass. No code word holds it — they hold codes ≤ bio.PadCode, and the
// AVX2 kernels' pad qwords all-ones — so the 'N' wildcard rule needs no
// case of its own, and a target 'N', whose code is bio.PadCode, matches
// no query row either.
const noMatch = 0x7F

// queryCodes returns each query byte's code — its bio.BaseCode, or
// noMatch — times ones, which puts it in every lane of a word whose
// lanes' low bits ones sets.
func queryCodes(ones uint64) *[256]uint64 {
	var t [256]uint64
	for c := range t {
		code := uint64(bio.BaseCode(byte(c)))
		if code == bio.PadCode {
			code = noMatch
		}
		t[c] = code * ones
	}
	return &t
}

// newOctCodes returns the octCodes of a pass at width w under sc, its
// query codes unset.
func newOctCodes(w width, sc bio.Scoring) octCodes {
	var o octCodes
	for k := range o.match {
		o.match[k], o.miss[k] = w.broadcast(sc.Match), w.broadcast(-sc.Mismatch)
	}
	return o
}

// setRows sets o's query codes to those of rows i…i+7 of q at width w;
// rows at hi or past it are phantom rows, of code noMatch.
func (o *octCodes) setRows(q bio.Sequence, i, hi int, w width) {
	for k := range o.x {
		o.x[k], o.y[k] = w.query['N'], w.query['N']
		if i+2*k < hi {
			o.x[k] = w.query[q[i+2*k]]
		}
		if i+2*k+1 < hi {
			o.y[k] = w.query[q[i+2*k+1]]
		}
	}
}

// rowOct8Go advances eight packed rows, i…i+7: four rowPair8Go passes,
// with row holding row i-1 on entry and row i+7 on return. It is the
// specification of rowOct8, which on an AVX2 host computes the same
// words in one pass (rowoct_amd64.go), and what every other host runs.
func rowOct8Go(row, codes []uint64, c *octCodes, gapV, best, sat uint64) (uint64, uint64) {
	for k := range c.x {
		best, sat = rowPair8Go(row, codes, c.x[k], c.y[k], c.match[0], c.miss[0], gapV, best, sat)
	}
	return best, sat
}

// rowOct16Go is rowOct8Go for 4 uint16 lanes.
func rowOct16Go(row, codes []uint64, c *octCodes, gapV, best, sat uint64) (uint64, uint64) {
	for k := range c.x {
		best, sat = rowPair16Go(row, codes, c.x[k], c.y[k], c.match[0], c.miss[0], gapV, best, sat)
	}
	return best, sat
}

// width is the lane geometry of one packed width.
type width struct {
	lanes int          // lanes per word
	shift uint         // bits per lane
	cap   int          // the clean cap: a lane's top bit is its guard bit
	query *[256]uint64 // each query byte's code in every lane
}

var (
	int8Lanes  = width{bio.PackedLanes8, 8, bio.PackedCap8, queryCodes(0x0101010101010101)}
	int16Lanes = width{bio.PackedLanes16, 16, bio.PackedCap16, queryCodes(0x0001000100010001)}
)

// lane extracts lane l of a packed word.
func (w width) lane(word uint64, l int) int {
	return int(word >> (uint(l) * w.shift) & (1<<w.shift - 1))
}

// broadcast replicates the magnitude v into every lane of a word.
func (w width) broadcast(v int) uint64 {
	word := uint64(0)
	for l := 0; l < w.lanes; l++ {
		word |= uint64(v) << (uint(l) * w.shift)
	}
	return word
}

// fits reports whether sc's Match, |Mismatch| and |Gap| fit the clean
// lane range; a width that does not fit refuses the scan.
func (w width) fits(sc bio.Scoring) bool {
	return sc.Match >= 0 && sc.Match <= w.cap && sc.Mismatch <= 0 && -sc.Mismatch <= w.cap && -sc.Gap <= w.cap
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
	// Seeded is the bitmask of unsaturated lanes with a positive score
	// whose border row — the H row entering EndBlock[l] — the scan saved
	// for LocateEnd (see scanPacked). Under a Bound those are the lanes
	// scoring ≥ Below only.
	Seeded uint8
	// Padded counts the cells the scan computed: lane width × the words
	// of each block it ran × that block's rows. That is the group's
	// code words × Rows, except for the ladder's int8 pass, which narrows once
	// lanes are flagged, and a resumed retry, whose rows start at the
	// resume row (see pass).
	Padded int64
	// Lanes is the number of live lanes (= number of targets scanned).
	Lanes int
	// Rows is the number of query rows the scan consumed: the full query
	// length for a completed scan, fewer when a Bound abandoned it — or,
	// without pruning, when the ladder's int8 pass stopped early because
	// no clean lane was left (see pass).
	Rows int
	// Pruned reports that a bounded scan was abandoned mid-matrix: every
	// lane's exact score is provably below the bound's Below threshold.
	// Scores are then meaningless and Saturated is always zero (saturated
	// lanes are never used as abandon evidence).
	Pruned bool
}

// Aligner carries the reusable row buffers of one worker. The zero
// value is ready to use; an Aligner must not be shared between
// goroutines.
type Aligner struct {
	row []uint64 // inter-sequence packed row (Scan8/Scan16)
	// codes holds the code words a scan interleaves itself: Scan8's and
	// Scan16's, and a Ladder call's when no Codes source provides them.
	codes []uint64
	// borders are the copies of row as it entered a block (scanPacked):
	// the current block's, and the ones lanes' seeds are still cut from.
	// Between Ladder calls row, borders[0] and borders[1] are idle, and
	// a locate pass borrows them (locateRows).
	borders [borderBufs][]uint64
	// resume and marks are the resume point of the ladder's last int8
	// pass (pass.lens): the row entering the block of its first guard bit
	// and the folded maximum at each block end before it.
	resume, marks []uint64
	sprev, scur   []uint64 // striped rows (StripedScan8/StripedScan16)
	schg          []uint64 // striped correction-loop change mask
	iprev, icur   []int32  // scalar rows (ScalarPair, LocateEnd)
	iprof         bio.Profile
	locate        locateScratch // LocateLanes's passes
	// laneSeed[l] is the saved border row of lane l of the last packed
	// scan; seed[i] that of target i of the last Ladder call, whichever
	// packed pass resolved it (Seed).
	laneSeed, seed [bio.PackedLanes8][]uint16
}

// borderBufs is the number of border-row buffers scanPacked needs: one
// per lane whose seed a past block's copy holds, and the current block's.
const borderBufs = bio.PackedLanes8 + 1

// zeroRow returns the inter-sequence row buffer, one word per target
// position, cleared: the zero top border. The kernels carry the zero
// border column in registers, so the row has no border cell.
func (a *Aligner) zeroRow(words int) []uint64 {
	if cap(a.row) < words {
		a.row = make([]uint64, words)
	}
	a.row = a.row[:words]
	clear(a.row)
	return a.row
}

// scanPacked runs the packed recurrence of q under sc against the lane
// group whose code words at width w are codes, and returns the folded
// guard-stripped per-lane maximum, the saturation word and
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
//
// The same stop saves what LocateEnd needs to turn the block into the
// end cell — the paper's §5 border row. Every block past the first
// starts by copying the row buffer, the H row entering the block, and a
// lane that moved points keep[l] at that copy, which then stays for as
// long as a lane points at it: a later move repoints the lane, so what
// it points at after the last block is the row entering its end block
// (none for block 0, whose border row is zero), and only then is its
// column unpacked into laneSeed[l]. A lane moves in nearly every block
// of a homolog, so unpacking at every move would cut |q|/BlockRows
// columns for the one the seed keeps. The lanes point at no more than
// len(keep) copies, so borderBufs buffers always leave one free for the
// next block. A lane is skipped while its maximum is below the Bound's
// threshold — its final score, if it stays there, cannot enter a result
// (the floor contract of the search layer's prune.go) — and once it is
// flagged saturated, when the wider retry saves its own. For every
// other lane the seed is bit-equal to the scalar recurrence, by the
// argument that makes the maximum exact: up to a lane's first guard bit
// every cell it stores is.
//
// p says where the pass starts and whether it narrows (see pass); rows
// counts from the origin whatever p.from is, and steps counts the
// word-rows the pass ran: Σ words × rows over its blocks.
func (a *Aligner) scanPacked(q bio.Sequence, codes []uint64, w width, sc bio.Scoring, ab *Bound, p pass) (best, sat uint64, blocks [bio.PackedLanes8]int, rows int, steps int64, pruned bool) {
	for l := range a.laneSeed {
		a.laneSeed[l] = a.laneSeed[l][:0]
	}
	if p.lens != nil {
		a.marks = a.marks[:0]
	}
	words := len(codes)
	if words == 0 || len(q) == 0 {
		return 0, 0, blocks, len(q), 0, false
	}
	row := a.row
	if p.from == 0 {
		row = a.zeroRow(words)
	}
	// kept[k] is buffer k's copy at the width of the block it entered;
	// keep[l] is the buffer holding lane l's seed row, -1 for none.
	var kept [borderBufs][]uint64
	keep := [bio.PackedLanes8]int{-1, -1, -1, -1, -1, -1, -1, -1}
	cur := 0 // the buffer the current block's border row is copied into
	border := a.borderBuf(cur, words)
	gapV := w.broadcast(-sc.Gap)
	wide := w == int16Lanes
	oct := newOctCodes(w, sc)
	satMask := uint64(hi8)
	if wide {
		satMask = hi16
	}
	guard := 1 << (w.shift - 1)
	bounded := ab.cadence() != 0
	below := ab.floor()
	best = p.best
	snap := best // best at the previous block boundary
	for lo := p.from; lo < len(q); lo += BlockRows {
		hi := min(lo+BlockRows, len(q))
		if lo > 0 {
			copy(border, row)
		}
		// Eight rows per pass. BlockRows is a multiple of eight, so a pass
		// never straddles a block boundary; only the query's last one to
		// seven rows can be left short of a pass, which phantom rows of
		// the noMatch code pad: every cell of such a row is at most one of
		// its neighbours (its diagonal term adds no match reward), so it
		// can neither raise a lane's maximum nor set a guard bit.
		for i := lo; i < hi; i += 8 {
			oct.setRows(q, i, hi, w)
			if wide {
				best, sat = rowOct16(row, codes, &oct, gapV, best, sat)
			} else {
				best, sat = rowOct8(row, codes, &oct, gapV, best, sat)
			}
		}
		steps += int64(len(row)) * int64(hi-lo)
		saved := false
		if moved := best ^ snap; moved != 0 {
			for l := 0; l < w.lanes; l++ {
				if w.lane(moved, l) == 0 {
					continue
				}
				blocks[l] = lo / BlockRows
				if lo > 0 && w.lane(best, l) >= below && w.lane(sat, l)&guard == 0 {
					keep[l], saved = cur, true
				}
			}
			snap = best
		}
		if saved {
			kept[cur] = border
		}
		if p.lens != nil {
			if sat&satMask == 0 {
				a.marks = append(a.marks, best)
			} else {
				if len(a.marks) == lo/BlockRows && lo > 0 {
					// The first guard bit, in this block: every lane was
					// clean on the row that entered it.
					a.resume = append(a.resume[:0], border...)
				}
				// Only the clean lanes' columns are still needed.
				cols := 0
				for l, n := range p.lens {
					if w.lane(sat, l)&guard == 0 {
						cols = max(cols, n)
					}
				}
				if cols == 0 {
					a.unpackSeeds(&kept, &keep, w)
					return best, sat, blocks, hi, steps, false
				}
				row, border = row[:cols], border[:cols]
			}
		}
		if saved {
			// Copy the next block's border row into a buffer no lane keeps.
			var used uint
			for _, k := range keep {
				if k >= 0 {
					used |= 1 << uint(k)
				}
			}
			cur = bits.TrailingZeros(^used)
			border = a.borderBuf(cur, words)[:len(border)]
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
				return best, sat, blocks, hi, steps, true
			}
		}
	}
	a.unpackSeeds(&kept, &keep, w)
	return best, sat, blocks, len(q), steps, false
}

// borderBuf returns border buffer k with room for words words.
func (a *Aligner) borderBuf(k, words int) []uint64 {
	if cap(a.borders[k]) < words {
		a.borders[k] = make([]uint64, words)
	}
	return a.borders[k][:words]
}

// unpackSeeds cuts each lane's seed, its column of the border copy
// keep names, into laneSeed.
func (a *Aligner) unpackSeeds(kept *[borderBufs][]uint64, keep *[bio.PackedLanes8]int, w width) {
	mask := uint64(1)<<w.shift - 1
	for l, k := range keep {
		if k >= 0 {
			a.laneSeed[l] = unpackLane(a.laneSeed[l], kept[k], uint(l)*w.shift, mask)
		}
	}
}

// pass is where a packed pass starts and whether it narrows. The zero
// value scans every column of every row from the zero top border.
type pass struct {
	// from is the first query row, a multiple of BlockRows. Past 0 the
	// caller has loaded the row buffer with H row from and best with each
	// lane's maximum over the rows above it (Aligner.widen).
	from int
	best uint64
	// lens, when non-nil, holds the target length of each live lane; only
	// the ladder's int8 pass sets it, Scan8 and Scan16 run in full. From
	// the first block end with a flagged lane on, the pass computes only
	// the columns of the lanes still clean: a column depends only on the
	// ones left of it, so theirs stay exact, and the flagged lanes' values
	// are retried wider anyway. It ends once no clean lane has a column
	// left. It also keeps a resume point for that retry: Aligner.marks,
	// the folded maximum at every block end before the block b of the
	// first guard bit, and Aligner.resume, the row entering b, taken
	// before any narrowing. Both are exact in every lane: no lane had set
	// a guard bit yet.
	lens []int
}

// widen loads the row buffer for an int16 pass over the int8 lanes sub
// of the ladder's last int8 pass, resumed at that pass's resume point:
// each lane's column of the resume row and its maximum there move, value
// for value, to the lane's int16 position. It returns the widened maxima.
// The int8 columns past the int16 group's code words are padding only that
// wider group saw; the ones before them equal a from-scratch int16 pass's
// row, because a column depends only on the target bases left of it.
func (a *Aligner) widen(sub []int, words int) uint64 {
	row := a.zeroRow(words)
	snap := a.marks[len(a.marks)-1]
	var best uint64
	for l16, l8 := range sub {
		from, to := uint(l8)*8, uint(l16)*16
		for j := range row {
			row[j] |= a.resume[j] >> from & 0xFF << to
		}
		best |= snap >> from & 0xFF << to
	}
	return best
}

// abandoned replays, for an int16 pass over the int8 lanes sub resumed
// at block len(a.marks), the abandon test a from-scratch pass would have
// made at each block end before it, on the int8 pass's maxima there —
// the int16 pass's own, bit for bit, since every lane was clean. It
// returns the rows after which that pass gives up, or 0.
func (a *Aligner) abandoned(sub []int, ab *Bound) int {
	if ab.cadence() == 0 {
		return 0
	}
	for k, m := range a.marks {
		top := 0
		for _, l := range sub {
			top = max(top, int(m>>(uint(l)*8)&0xFF))
		}
		if hi := (k + 1) * BlockRows; top+ab.Query.SuffixBound(hi) < ab.Below {
			return hi
		}
	}
	return 0
}

// unpackLane returns dst resized to len(row) and filled with one lane
// of row: the bits mask selects after a right shift by off.
func unpackLane(dst []uint16, row []uint64, off uint, mask uint64) []uint16 {
	if cap(dst) < len(row) {
		dst = make([]uint16, len(row))
	}
	dst = dst[:len(row)]
	for j, w := range row {
		dst[j] = uint16(w >> off & mask)
	}
	return dst
}

// Scan8 scores q against up to 8 targets in int8 lanes. ok is false
// when the scoring magnitudes do not fit the 7-bit clean lane range
// (callers then use Scan16 or the scalar path) or more than 8 targets
// are given; lanes that overflow it are flagged Saturated in the result.
func (a *Aligner) Scan8(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) (LaneScores, bool) {
	if len(targets) > bio.PackedLanes8 {
		return LaneScores{}, false
	}
	a.codes = bio.InterleaveWords8(a.codes[:0], targets)
	return a.scan(q, a.codes, int8Lanes, sc, len(targets), nil, pass{})
}

// Scan16 scores q against up to 4 targets in int16 lanes.
func (a *Aligner) Scan16(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) (LaneScores, bool) {
	if len(targets) > bio.PackedLanes16 {
		return LaneScores{}, false
	}
	a.codes = bio.InterleaveWords16(a.codes[:0], targets)
	return a.scan(q, a.codes, int16Lanes, sc, len(targets), nil, pass{})
}

// scan is the one packed rung: it scores q against the lanes live
// targets of a group whose code words at width w are codes, under an
// optional Bound (nil = scan the full matrix). The words may be
// interleaved per call or the pack-v2 lane layout's, shared by the
// queries of a batch; either way they must describe exactly the group
// being scanned, and scan only reads them. ok is false when sc's
// magnitudes do not fit the lane (width.fits); callers then fall to the
// next rung. An abandoned scan returns Pruned with Rows set to the rows
// consumed. p is the pass's start and narrowing (see pass).
func (a *Aligner) scan(q bio.Sequence, codes []uint64, w width, sc bio.Scoring, lanes int, ab *Bound, p pass) (LaneScores, bool) {
	if !w.fits(sc) {
		return LaneScores{}, false
	}
	best, sat, blocks, rows, steps, pruned := a.scanPacked(q, codes, w, sc, ab, p)
	res := LaneScores{Lanes: lanes, Rows: rows, Pruned: pruned, Padded: int64(w.lanes) * steps}
	if pruned {
		return res, true
	}
	res.EndBlock = blocks // lanes past the live ones never left zero
	guard := 1 << (w.shift - 1)
	below := ab.floor()
	for l := 0; l < lanes; l++ {
		res.Scores[l] = w.lane(best, l)
		if w.lane(sat, l)&guard != 0 {
			res.Saturated |= 1 << uint(l)
		} else if res.Scores[l] >= below {
			res.Seeded |= 1 << uint(l)
		}
	}
	return res, true
}
