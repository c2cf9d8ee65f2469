package bio

// This file adds the *striped* (intra-sequence) counterpart of the
// inter-sequence lanes of packed.go: instead of eight different
// target sequences sharing a word, the lanes of a StripedProfile word
// hold eight positions of ONE sequence, interleaved Farrar-style
// (Farrar 2007; SWAPHI, Liu & Schmidt, arXiv:1404.4152 apply the same
// layout on wide-vector CPUs). With segment length L = ceil(n/lanes),
// word v lane l holds position v + l·L, so *consecutive word indices
// are consecutive positions within every lane's segment*. That is the
// property the striped kernels in internal/swar exploit: the
// along-stripe DP dependency (the gap chain) flows word-to-word inside
// the column pass, and only chains that cross a segment boundary need
// the lazy wrap-around correction loop.
//
// Scores use the same guard-bit split as the inter-sequence lanes —
// non-negative plus/minus magnitudes per lane, top bit kept free — so
// the striped kernels reuse SubClamp8/16 and MaxClamped8/16 unchanged. Positions
// past the true length n (the tail of the last lane) are padded with
// all-mismatch columns; padded values only ever decay from real ones,
// and ValueMask additionally zeroes padded lanes so they can never
// surface in a maximum or a hit count.

// StripedProfile is the striped query profile of one sequence t: for
// each residue code a, PlusRow(a)[v] / MinusRow(a)[v] hold the split
// substitution magnitudes of a against the lane positions of word v.
// Build once per comparison; read-only and safe for concurrent use
// afterwards.
type StripedProfile struct {
	lanes  int  // PackedLanes8 or PackedLanes16
	shift  uint // bits per lane (8 or 16)
	cap    int  // per-lane clean cap (guard bit excluded)
	segLen int  // words per row = ceil(n/lanes)
	n      int  // true sequence length
	plus   [AlphabetSize][]uint64
	minus  [AlphabetSize][]uint64
	// vmask[v] has the full lane mask (all bits) of every lane whose
	// position v + l·segLen is real (< n); value[v] is the same mask
	// with the guard bits stripped (lane caps), ready to both strip
	// and pad-mask a score word in one AND.
	vmask []uint64
	value []uint64
}

// NewStripedProfile8 builds the 8-lane int8 striped profile of t under
// sc, or nil when the scoring magnitudes do not fit the 7-bit clean
// lane range (callers then fall back to a wider layout).
func NewStripedProfile8(t Sequence, sc Scoring) *StripedProfile {
	return newStripedProfile(t, sc, PackedLanes8, 8, PackedCap8)
}

// NewStripedProfile16 builds the 4-lane int16 striped profile of t.
func NewStripedProfile16(t Sequence, sc Scoring) *StripedProfile {
	return newStripedProfile(t, sc, PackedLanes16, 16, PackedCap16)
}

func newStripedProfile(t Sequence, sc Scoring, lanes int, shift uint, capVal int) *StripedProfile {
	match, mismatch := sc.Match, -sc.Mismatch
	if match < 0 || match > capVal || mismatch < 0 || mismatch > capVal {
		return nil
	}
	n := len(t)
	segLen := (n + lanes - 1) / lanes
	p := &StripedProfile{lanes: lanes, shift: shift, cap: capVal, segLen: segLen, n: n}
	if segLen == 0 {
		return p
	}
	backing := make([]uint64, (2*AlphabetSize+2)*segLen)
	for c := 0; c < AlphabetSize; c++ {
		p.plus[c] = backing[2*c*segLen : (2*c+1)*segLen : (2*c+1)*segLen]
		p.minus[c] = backing[(2*c+1)*segLen : (2*c+2)*segLen : (2*c+2)*segLen]
	}
	p.vmask = backing[2*AlphabetSize*segLen : (2*AlphabetSize+1)*segLen]
	p.value = backing[(2*AlphabetSize+1)*segLen : (2*AlphabetSize+2)*segLen]
	mm := uint64(mismatch)
	mv := uint64(match)
	laneMask := uint64(1)<<shift - 1
	guard := uint64(1) << (shift - 1)
	for v := 0; v < segLen; v++ {
		for l := 0; l < lanes; l++ {
			pos := v + l*segLen
			off := uint(l) * shift
			// Padded lanes (pos >= n) keep the all-mismatch column so
			// their values only ever decay from real ones; the unknown
			// row (c == 4: 'N' and invalid bytes) matches nothing —
			// the Substitution wildcard rule.
			for c := 0; c < AlphabetSize; c++ {
				if pos < n && c != codeUnknown && baseCode[t[pos]] == byte(c) {
					p.plus[c][v] |= mv << off
				} else {
					p.minus[c][v] |= mm << off
				}
			}
			if pos < n {
				p.vmask[v] |= laneMask << off
				p.value[v] |= (laneMask &^ guard) << off
			}
		}
	}
	return p
}

// Lanes returns the number of lanes per word (8 for int8, 4 for int16).
func (p *StripedProfile) Lanes() int { return p.lanes }

// Shift returns the number of bits per lane (8 or 16).
func (p *StripedProfile) Shift() uint { return p.shift }

// Cap returns the per-lane clean cap (127 or 32767).
func (p *StripedProfile) Cap() int { return p.cap }

// SegLen returns the segment length: the number of words per row.
func (p *StripedProfile) SegLen() int { return p.segLen }

// Len returns the true (unpadded) sequence length.
func (p *StripedProfile) Len() int { return p.n }

// PlusRow returns the striped match-magnitude row for query residue a.
// The slice is shared and must not be modified.
func (p *StripedProfile) PlusRow(a byte) []uint64 { return p.plus[baseCode[a]] }

// MinusRow returns the striped mismatch-magnitude row for residue a.
func (p *StripedProfile) MinusRow(a byte) []uint64 { return p.minus[baseCode[a]] }

// ValueMask returns, per word, the mask that both strips the guard
// bits and zeroes padded lanes: w & ValueMask()[v] is the clean score
// payload of word v. The slice is shared and must not be modified.
func (p *StripedProfile) ValueMask() []uint64 { return p.value }

// GuardMask returns the guard-bit positions of the real (unpadded)
// lanes of word v, for saturation and threshold tests.
func (p *StripedProfile) GuardMask(v int) uint64 {
	guard := uint64(1) << (p.shift - 1)
	return p.vmask[v] & (guard * stripedOnes(p.shift, p.lanes))
}

// stripedOnes returns a word with bit 0 of every lane set.
func stripedOnes(shift uint, lanes int) uint64 {
	var w uint64
	for l := 0; l < lanes; l++ {
		w |= 1 << (uint(l) * shift)
	}
	return w
}

// Lane extracts lane l of a packed word as an int.
func (p *StripedProfile) Lane(word uint64, l int) int {
	mask := uint64(1)<<p.shift - 1
	return int(word >> (uint(l) * p.shift) & mask)
}

// Broadcast replicates the magnitude v (which must fit a lane) into
// every lane of a word — used for the gap penalty and the threshold.
func (p *StripedProfile) Broadcast(v int) uint64 {
	w := uint64(0)
	for l := 0; l < p.lanes; l++ {
		w |= uint64(v) << (uint(l) * p.shift)
	}
	return w
}
