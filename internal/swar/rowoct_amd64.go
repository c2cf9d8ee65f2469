//go:build amd64 && !purego

package swar

// hasAVX2 routes the eight-row passes: true when the CPU runs AVX2 and
// the OS saves the YMM registers, detected once at start-up. Only the
// tests' route switch (export_test.go) writes it afterwards.
var hasAVX2 = detectAVX2()

// asmKernels reports whether the build holds the AVX2 assembly: not
// under the purego tag (rowoct_other.go).
const asmKernels = true

// detectAVX2 reads CPUID leaf 7's AVX2 bit, after leaf 1's OSXSAVE and
// AVX bits and XGETBV's XMM and YMM state bits.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx, xmmYmm, avx2 = 1 << 27, 1 << 28, 6, 1 << 5
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// rowOct8 is rowOct8Go on AVX2's byte compare and saturating byte ops
// (rowoct_amd64.s): the same words in and out, and on every clean lane
// the same cells, maximum and guard bits (DESIGN §5.6). The bounds check
// the assembly leaves out happens here: codes must hold a word for every
// word of the row, and the assembly reads no more than that. A row
// under 8 words, on which the skew's prologue and epilogue would
// overlap, and a host without AVX2 take the portable passes — a row
// narrowed below 8 words mid-scan (pass.lens) with the maximum the AVX2
// passes left, in which a flagged lane may exceed the cap that max8's
// second operand must keep to; its guard bit is cleared, leaving garbage
// ≤ cap in a lane nothing reads.
func rowOct8(row, codes []uint64, c *octCodes, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	if n < 8 || !hasAVX2 {
		return rowOct8Go(row, codes, c, gapV, best&^hi8, sat)
	}
	_ = codes[n-1]
	return rowOct8AVX2(&row[0], &codes[0], c, n, gapV, best, sat)
}

// rowOct16 is rowOct16Go on AVX2's word compare and saturating word ops.
func rowOct16(row, codes []uint64, c *octCodes, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	if n < 8 || !hasAVX2 {
		return rowOct16Go(row, codes, c, gapV, best&^hi16, sat)
	}
	_ = codes[n-1]
	return rowOct16AVX2(&row[0], &codes[0], c, n, gapV, best, sat)
}

//go:noescape
func rowOct8AVX2(row, codes *uint64, c *octCodes, n int, gapV, best, sat uint64) (newBest, newSat uint64)

//go:noescape
func rowOct16AVX2(row, codes *uint64, c *octCodes, n int, gapV, best, sat uint64) (newBest, newSat uint64)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32

func beginRow(prev, cur, codes []uint64, r *LaneRow, lo, mid, qmax int) (int, uint32, uint32) {
	return beginRow16AVX2(&prev[0], &cur[0], &codes[0], r, lo, mid, qmax)
}

//go:noescape
func beginRow16AVX2(prev, cur, codes *uint64, r *LaneRow, lo, mid, qmax int) (end int, reach, over uint32)

// fillLanes is the AVX fill of columns from+1…from+n of word g of a
// locate pass (locateScratch.fill, locate_amd64.s), n a multiple of 8,
// from the bases and seeds t and s point at, column from+1's: each
// column's four target codes into codes and seeds into prev, masked to
// the live lanes, and the seed words ORed.
func fillLanes(codes, prev []uint64, g, from int, t *[4]*byte, s *[4]*uint16, n int, live, dead uint64) uint64 {
	_, _ = codes[4*(from+n)+g], prev[4*(from+n)+g]
	return laneFill(&codes[4*(from+1)+g], &prev[4*(from+1)+g], t, s, n, live, dead)
}

//go:noescape
func laneFill(codes, prev *uint64, t *[4]*byte, s *[4]*uint16, n int, live, dead uint64) (or uint64)
