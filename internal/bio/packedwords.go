package bio

// This file defines the lane-interleaved *code word* layout behind the
// pack-v2 precomputed lane groups (internal/dbpack, DESIGN.md §12): one
// uint64 word per target position j, whose byte l is the residue code
// (BaseCode) of target lane l at j, with lanes past a target's end — and
// lanes with no target at all — holding PadCode. The layout is exactly
// the shape the inter-sequence SWAR kernels consume: building a
// PackedProfile from it (NewPackedProfile8FromWords) replaces the
// per-lane byte gather of NewPackedProfile8 with five word-wide
// compares per position, and the words themselves are query- and
// scoring-independent, so `genomedsm index` computes them once and a
// loaded pack maps them straight into the scan.
//
// PadCode is codeUnknown on purpose: a pad column must decay every
// padded lane to zero, and codeUnknown already encodes "matches
// nothing" — a real 'N' target residue and padding are
// indistinguishable to the recurrence, which is what makes the
// from-words profile bit-identical to the from-targets one.

// PadCode is the code byte of a padded (absent or past-the-end) lane in
// an interleaved code word.
const PadCode = codeUnknown

// InterleaveWords8 appends the 8-lane interleaved code words of up to 8
// targets to dst and returns the extended slice: max(len(targets[l]))
// words, one per position, byte l = BaseCode of lane l (PadCode when
// the lane is short or absent). It panics when more than 8 targets are
// given — callers cut lane groups before interleaving.
func InterleaveWords8(dst []uint64, targets []Sequence) []uint64 {
	if len(targets) > PackedLanes8 {
		panic("bio: InterleaveWords8 given more than 8 targets")
	}
	words := 0
	for _, t := range targets {
		if len(t) > words {
			words = len(t)
		}
	}
	const allPad = uint64(PadCode) * 0x0101010101010101
	for j := 0; j < words; j++ {
		w := allPad
		for l, t := range targets {
			if j < len(t) {
				w &^= uint64(0xFF) << (uint(l) * 8)
				w |= uint64(baseCode[t[j]]) << (uint(l) * 8)
			}
		}
		dst = append(dst, w)
	}
	return dst
}

// eqMask8 returns, per byte, 0xFF where the byte of w equals the byte
// of pattern and 0x00 elsewhere. Exact only for byte values ≤ 0x7F —
// residue codes are ≤ 4, so x = w^pattern stays ≤ 7 per byte. Adding
// 0x7F to such a byte sets its top bit iff the byte is nonzero and can
// never carry into the next byte (unlike the classic subtract-borrow
// zero test, whose borrows cross byte boundaries); the ×0xFF spread is
// exact because the 0x80 marker bits are isolated per byte.
func eqMask8(w, pattern uint64) uint64 {
	x := w ^ pattern
	m := ^((x + 0x7f7f7f7f7f7f7f7f) | x) & hiBits8
	return (m >> 7) * 0xFF
}

const hiBits8 = 0x8080808080808080

// NewPackedProfile8FromWords builds the 8-lane int8 packed profile of a
// lane group from its interleaved code words instead of the target
// bytes. lens holds the true length of each live lane (≤ 8 lanes); the
// words must be the group's InterleaveWords8 output, i.e. max(lens)
// words with PadCode in every padded byte. The result is bit-identical
// — every plus and minus row — to NewPackedProfile8 over the same
// targets and scoring (pinned by TestPackedProfileFromWords), and nil
// under exactly the same conditions: more than 8 lanes, or scoring
// magnitudes outside the clean 7-bit lane range.
func NewPackedProfile8FromWords(words []uint64, lens []int, sc Scoring) *PackedProfile {
	return new(PackedProfile).Build8FromWords(words, lens, sc)
}

// Build8FromWords rebuilds p in place as the profile
// NewPackedProfile8FromWords builds, as Build8 does for
// NewPackedProfile8.
func (p *PackedProfile) Build8FromWords(words []uint64, lens []int, sc Scoring) *PackedProfile {
	if len(lens) > PackedLanes8 {
		return nil
	}
	match, mismatch := sc.Match, -sc.Mismatch
	if match < 0 || match > PackedCap8 || mismatch < 0 || mismatch > PackedCap8 {
		return nil
	}
	n := 0
	for _, l := range lens {
		if l > n {
			n = l
		}
	}
	if n != len(words) {
		// The words do not cover the group they claim to describe — a
		// corrupt layout must never produce a silently wrong profile.
		return nil
	}
	p.shape(PackedLanes8, 8, PackedCap8, n)
	mv := uint64(match) * 0x0101010101010101
	allMiss := uint64(mismatch) * 0x0101010101010101
	for c := 0; c < AlphabetSize; c++ {
		plus, minus := p.plus[c], p.minus[c]
		if c == codeUnknown {
			// The unknown query row matches nothing — including a target
			// 'N' whose code equals codeUnknown — so equality must not
			// apply; the whole row is the all-mismatch column.
			clear(plus)
			for j := range minus {
				minus[j] = allMiss
			}
			continue
		}
		pattern := uint64(c) * 0x0101010101010101
		for j, w := range words {
			eq := eqMask8(w, pattern)
			plus[j] = mv & eq
			minus[j] = allMiss &^ eq
		}
	}
	return p
}
