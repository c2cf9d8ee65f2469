package bio

// This file defines the lane-interleaved *code word* layout behind the
// pack-v2 precomputed lane groups (internal/dbpack, DESIGN.md §12): one
// uint64 word per target position j, whose byte l is the residue code
// (BaseCode) of target lane l at j, with lanes past a target's end — and
// lanes with no target at all — holding PadCode. The words are exactly
// the operand the inter-sequence SWAR kernels read: each pass compares
// them with its query residues' codes, in register, to get the
// substitution terms. They are query- and scoring-independent, so
// `genomedsm index` computes them once and a loaded pack maps them
// straight into the scan. InterleaveWords16 is the 4-lane 16-bit form
// the kernels' int16 retries read.
//
// PadCode is codeUnknown on purpose: a pad column must decay every
// padded lane to zero, and codeUnknown already encodes "matches
// nothing" — the kernels give a query 'N' a code no word holds, so a
// real 'N' target residue and padding are indistinguishable to the
// recurrence.

// PadCode is the code byte of a padded (absent or past-the-end) lane in
// an interleaved code word.
const PadCode = codeUnknown

// InterleaveWords8 appends the 8-lane interleaved code words of up to 8
// targets to dst and returns the extended slice: max(len(targets[l]))
// words, one per position, byte l = BaseCode of lane l (PadCode when
// the lane is short or absent). It panics when more than 8 targets are
// given — callers cut lane groups before interleaving.
func InterleaveWords8(dst []uint64, targets []Sequence) []uint64 {
	return interleave(dst, targets, PackedLanes8, 8)
}

// InterleaveWords16 is InterleaveWords8 for the 4-lane 16-bit words of
// up to 4 targets: bits 16l…16l+15 of word j hold BaseCode of lane l at
// j, or PadCode. It panics when more than 4 targets are given.
func InterleaveWords16(dst []uint64, targets []Sequence) []uint64 {
	return interleave(dst, targets, PackedLanes16, 16)
}

func interleave(dst []uint64, targets []Sequence, lanes int, shift uint) []uint64 {
	if len(targets) > lanes {
		panic("bio: more targets than lanes to interleave")
	}
	words := 0
	for _, t := range targets {
		if len(t) > words {
			words = len(t)
		}
	}
	allPad := uint64(0)
	for l := 0; l < lanes; l++ {
		allPad |= uint64(PadCode) << (uint(l) * shift)
	}
	for j := 0; j < words; j++ {
		w := allPad
		for l, t := range targets {
			if j < len(t) {
				w ^= uint64(baseCode[t[j]]^PadCode) << (uint(l) * shift) // PadCode → the lane's code
			}
		}
		dst = append(dst, w)
	}
	return dst
}
