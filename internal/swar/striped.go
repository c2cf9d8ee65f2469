package swar

import (
	"math/bits"

	"genomedsm/internal/bio"
)

// This file holds the *intra*-sequence striped kernels: where swar.go
// packs 8 different targets into the lanes of a word (inter-sequence,
// DSA-style), the striped kernels vectorize ONE pairwise alignment by
// interleaving the positions of a single sequence across lanes in
// Farrar's striped layout (bio.StripedProfile; SWAPHI applies the same
// idea on wide-vector CPUs). One outer step advances a full row of the
// DP matrix over all striped positions:
//
//   - the *diagonal* dependency H(i-1, p-1) is the previous step's word
//     v-1 (consecutive words are consecutive in-lane positions), except
//     at word 0 where it is the previous step's LAST word shifted up by
//     one lane, with the caller's border value inserted into lane 0;
//   - the *up* dependency H(i-1, p) is the previous step's same word —
//     purely elementwise;
//   - the *in-stripe* dependency H(i, p-1) + gap (the gap chain along
//     the striped sequence) is carried word-to-word as vF inside the
//     pass, which handles every chain EXCEPT those crossing a segment
//     boundary (word segLen-1 lane l → word 0 lane l+1). Those are
//     fixed afterwards by the lazy wrap-around correction loop: shift
//     vF up one lane and keep re-applying it until a whole word is left
//     unimproved, at which point every downstream value was already
//     computed with exactly that chain (Farrar 2007's argument carries
//     over unchanged to the clamped guard-bit arithmetic).
//
// Every iteration of the correction loop either strictly increases some
// lane (values are bounded by the lane range) or terminates, so it
// provably stops; a defensive iteration cap forces the saturation flag
// if that invariant is ever broken by a bug, which sends callers down
// the exact scalar fallback instead of returning silent garbage.

// Pair is the outcome of one striped pairwise scan: the best
// local-alignment score and its 1-based end coordinates, bit-exact
// against align.Scan (same strict-improvement tie-breaking).
type Pair struct {
	Score int
	I, J  int
}

// stepStriped8 advances one outer step (one row of the DP matrix) over
// the striped words. diagIn is the border diagonal value for lane 0 of
// word 0 (clean, ≤ 127); fIn is the border gap-chain word (lane 0 only,
// clean). value masks real lanes with guard bits stripped (the
// profile's ValueMask). changed is caller scratch of ⌈n/64⌉ words,
// all-zero on entry and restored to all-zero on return. Returns the
// updated best fold and saturation accumulator; cur holds the finished
// row.
//
// The correction loop carries neither the saturation OR nor the best
// fold of the main pass:
//
//   - sat needs no update because the loop cannot create a guard bit
//     the main pass did not already record: MaxClamped8(cur[v], vF)
//     copies every result lane verbatim from either cur[v] (whose guard
//     bit is already in sat) or vF, which is a SubClamp8 output and
//     therefore clean. Dirty lanes always win the max, so they freeze.
//   - best is folded once per *changed* word after the loop settles
//     (the column-sparse change mask): corrected values only ever
//     increase, so intermediate values are dominated by the final one
//     and folding only the final value of each touched word is exact.
func stepStriped8(prev, cur, plus, minus, value, changed []uint64, gapV, diagIn, fIn, best, sat uint64) (uint64, uint64) {
	n := len(plus)
	d := prev[n-1]<<8 | diagIn
	vF := fIn
	_ = cur[n-1] // bounds hints for the loop body
	_ = minus[n-1]
	_ = value[n-1]
	for v := 0; v < n; v++ {
		h := SubClamp8(d, minus[v]) + plus[v]
		d = prev[v]
		h = MaxClamped8(h, SubClamp8(d, gapV))
		h = MaxClamped8(h, vF)
		cur[v] = h
		sat |= h
		best = MaxClamped8(best, h&value[v])
		vF = SubClamp8(h, gapV)
	}
	// Lazy wrap-around correction: propagate gap chains that cross
	// segment boundaries until a whole word is left unimproved.
	vF = SubClamp8(cur[n-1], gapV) << 8
	v := 0
	for limit := (bio.PackedCap8 + 2) * n * bio.PackedLanes8; limit > 0; limit-- {
		h := MaxClamped8(cur[v], vF)
		if h == cur[v] {
			return foldChanged8(cur, value, changed, best), sat
		}
		cur[v] = h
		changed[v>>6] |= 1 << (v & 63)
		vF = SubClamp8(h, gapV)
		if v++; v == n {
			v, vF = 0, vF<<8
		}
	}
	return foldChanged8(cur, value, changed, best), sat | hi8 // unreachable: force the fallback ladder
}

// foldChanged8 folds the final value of every word the correction loop
// touched into best and clears the mask for the next row.
func foldChanged8(cur, value, changed []uint64, best uint64) uint64 {
	for w, m := range changed {
		if m == 0 {
			continue
		}
		changed[w] = 0
		base := w << 6
		for m != 0 {
			v := base + bits.TrailingZeros64(m)
			m &= m - 1
			best = MaxClamped8(best, cur[v]&value[v])
		}
	}
	return best
}

// stepStriped16 is stepStriped8 for 4 uint16 lanes, with the same
// change-mask correction loop and the same exactness argument.
func stepStriped16(prev, cur, plus, minus, value, changed []uint64, gapV, diagIn, fIn, best, sat uint64) (uint64, uint64) {
	n := len(plus)
	d := prev[n-1]<<16 | diagIn
	vF := fIn
	_ = cur[n-1]
	_ = minus[n-1]
	_ = value[n-1]
	for v := 0; v < n; v++ {
		h := SubClamp16(d, minus[v]) + plus[v]
		d = prev[v]
		h = MaxClamped16(h, SubClamp16(d, gapV))
		h = MaxClamped16(h, vF)
		cur[v] = h
		sat |= h
		best = MaxClamped16(best, h&value[v])
		vF = SubClamp16(h, gapV)
	}
	vF = SubClamp16(cur[n-1], gapV) << 16
	v := 0
	for limit := (bio.PackedCap16 + 2) * n * bio.PackedLanes16; limit > 0; limit-- {
		h := MaxClamped16(cur[v], vF)
		if h == cur[v] {
			return foldChanged16(cur, value, changed, best), sat
		}
		cur[v] = h
		changed[v>>6] |= 1 << (v & 63)
		vF = SubClamp16(h, gapV)
		if v++; v == n {
			v, vF = 0, vF<<16
		}
	}
	return foldChanged16(cur, value, changed, best), sat | hi16
}

// foldChanged16 is foldChanged8 for 4 uint16 lanes.
func foldChanged16(cur, value, changed []uint64, best uint64) uint64 {
	for w, m := range changed {
		if m == 0 {
			continue
		}
		changed[w] = 0
		base := w << 6
		for m != 0 {
			v := base + bits.TrailingZeros64(m)
			m &= m - 1
			best = MaxClamped16(best, cur[v]&value[v])
		}
	}
	return best
}

// reduce8 folds a clean (guard-stripped) packed word into its scalar
// per-lane maximum.
func reduce8(w uint64) int {
	w = MaxClamped8(w, w>>32)
	w = MaxClamped8(w, w>>16)
	w = MaxClamped8(w, w>>8)
	return int(w & 0xFF)
}

// reduce16 is reduce8 for 4 uint16 lanes.
func reduce16(w uint64) int {
	w = MaxClamped16(w, w>>32)
	w = MaxClamped16(w, w>>16)
	return int(w & 0xFFFF)
}

// stripedFind returns the 1-based striped position of the first (in
// sequence order) real lane of cur whose clean value equals want.
// Sequence order is lane-major: lane l covers positions l·segLen …
// (l+1)·segLen−1, so the scan runs lanes outer, words inner.
func stripedFind(prof *bio.StripedProfile, cur []uint64, want int) int {
	value := prof.ValueMask()
	segLen := prof.SegLen()
	for l := 0; l < prof.Lanes(); l++ {
		for v := 0; v < segLen; v++ {
			p := v + l*segLen
			if p >= prof.Len() {
				break
			}
			if prof.Lane(cur[v]&value[v], l) == want {
				return p + 1
			}
		}
	}
	return 0
}

// stripedRows returns the two striped row buffers of length segLen with
// prev cleared (the zero top border), plus the all-zero change-mask
// scratch for the correction loop.
func (a *Aligner) stripedRows(segLen int) ([]uint64, []uint64, []uint64) {
	if cap(a.sprev) < segLen {
		a.sprev = make([]uint64, segLen)
		a.scur = make([]uint64, segLen)
	}
	a.sprev = a.sprev[:segLen]
	a.scur = a.scur[:segLen]
	clear(a.sprev)
	chgWords := (segLen + 63) / 64
	if cap(a.schg) < chgWords {
		a.schg = make([]uint64, chgWords)
	}
	a.schg = a.schg[:chgWords]
	clear(a.schg)
	return a.sprev, a.scur, a.schg
}

// StripedScan8 computes the best local alignment of s against t with
// the 8-lane striped int8 kernel. ok is false when the scoring scheme
// does not fit the clean int8 lane range or any cell saturates it;
// callers then retry with StripedScan16 and finally the scalar kernel.
// When ok is true the result is bit-exact against align.Scan, including
// the BestI/BestJ strict-improvement tie-breaking.
func (a *Aligner) StripedScan8(s, t bio.Sequence, sc bio.Scoring) (Pair, bool) {
	if -sc.Gap > bio.PackedCap8 {
		return Pair{}, false
	}
	prof := bio.NewStripedProfile8(t, sc)
	if prof == nil {
		return Pair{}, false
	}
	return a.stripedScan(s, prof, -sc.Gap)
}

// StripedScan16 is StripedScan8 with 4 int16 lanes: half the
// parallelism, 256× the score headroom.
func (a *Aligner) StripedScan16(s, t bio.Sequence, sc bio.Scoring) (Pair, bool) {
	if -sc.Gap > bio.PackedCap16 {
		return Pair{}, false
	}
	prof := bio.NewStripedProfile16(t, sc)
	if prof == nil {
		return Pair{}, false
	}
	return a.stripedScan(s, prof, -sc.Gap)
}

// stripedScan streams s over the striped profile; ok is false once any
// cell saturates the lanes, and the caller moves to the wider rung.
func (a *Aligner) stripedScan(s bio.Sequence, prof *bio.StripedProfile, gap int) (Pair, bool) {
	if len(s) == 0 || prof.SegLen() == 0 {
		return Pair{}, true
	}
	prev, cur, changed := a.stripedRows(prof.SegLen())
	gapV := prof.Broadcast(gap)
	value := prof.ValueMask()
	wide := prof.Lanes() == bio.PackedLanes16
	satMask := uint64(hi8)
	if wide {
		satMask = hi16
	}
	var best, sat uint64
	var res Pair
	for i := 1; i <= len(s); i++ {
		c := s[i-1]
		var nb uint64
		if wide {
			nb, sat = stepStriped16(prev, cur, prof.PlusRow(c), prof.MinusRow(c), value, changed, gapV, 0, 0, best, sat)
		} else {
			nb, sat = stepStriped8(prev, cur, prof.PlusRow(c), prof.MinusRow(c), value, changed, gapV, 0, 0, best, sat)
		}
		if sat&satMask != 0 {
			return Pair{}, false
		}
		if nb != best {
			// Some lane's running maximum grew this row; only a strict
			// improvement of the global best updates the coordinates
			// (align.Scan's row-major tie-break: earliest row, then
			// earliest column of that row's maximum).
			best = nb
			var m int
			if wide {
				m = reduce16(best)
			} else {
				m = reduce8(best)
			}
			if m > res.Score {
				res.Score, res.I, res.J = m, i, stripedFind(prof, cur, m)
			}
		}
		prev, cur = cur, prev
	}
	a.sprev, a.scur = prev, cur
	return res, true
}
