package swar

import "unsafe"

// hasAVX2 routes the eight-row passes: true when the CPU runs AVX2 and
// the OS saves the YMM registers, detected once at start-up. Only the
// tests' route switch (export_test.go) writes it afterwards.
var hasAVX2 = detectAVX2()

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

// rowOct8 is rowOct8Go on AVX2's saturating byte ops
// (rowoct_amd64.s): the same words in and out, and on every clean lane
// the same cells, maximum and guard bits (DESIGN §5.6). The checks the
// assembly leaves out happen here (octProfile.stride). A row under 8
// words, on which the skew's prologue and epilogue would overlap, and a
// host without AVX2 take the portable passes — a row narrowed below 8
// words mid-scan (pass.lens) with the maximum the AVX2 passes left, in
// which a flagged lane may exceed the cap that max8's second operand
// must keep to; its guard bit is cleared, leaving garbage ≤ cap in a
// lane nothing reads.
func rowOct8(row []uint64, p *octProfile, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	if n < 8 || !hasAVX2 {
		return rowOct8Go(row, p, gapV, best&^hi8, sat)
	}
	return rowOct8AVX2(&row[0], &p.plus[0][0], &p.plus[1][0], &p.plus[2][0], &p.plus[3][0],
		&p.plus[4][0], &p.plus[5][0], &p.plus[6][0], &p.plus[7][0], p.stride(n), n, gapV, best, sat)
}

// rowOct16 is rowOct16Go on AVX2's saturating word ops.
func rowOct16(row []uint64, p *octProfile, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	if n < 8 || !hasAVX2 {
		return rowOct16Go(row, p, gapV, best&^hi16, sat)
	}
	return rowOct16AVX2(&row[0], &p.plus[0][0], &p.plus[1][0], &p.plus[2][0], &p.plus[3][0],
		&p.plus[4][0], &p.plus[5][0], &p.plus[6][0], &p.plus[7][0], p.stride(n), n, gapV, best, sat)
}

// stride returns how many words after each plus row its minus row
// starts, the one offset the assembly reads minus rows at — as both
// bio profile builders lay them out. It panics, as the portable
// kernels' bounds checks do, unless every profile row holds at least n
// words and every minus row sits at the same offset from its plus row.
func (p *octProfile) stride(n int) int {
	addr := func(row []uint64) int { return int(uintptr(unsafe.Pointer(unsafe.SliceData(row)))) }
	d := addr(p.minus[0]) - addr(p.plus[0])
	for k := range p.plus {
		_, _ = p.plus[k][n-1], p.minus[k][n-1]
		if addr(p.minus[k])-addr(p.plus[k]) != d {
			panic("swar: profile rows of one pass at different plus-to-minus offsets")
		}
	}
	return d / 8
}

//go:noescape
func rowOct8AVX2(row, p0, p1, p2, p3, p4, p5, p6, p7 *uint64, stride, n int, gapV, best, sat uint64) (newBest, newSat uint64)

//go:noescape
func rowOct16AVX2(row, p0, p1, p2, p3, p4, p5, p6, p7 *uint64, stride, n int, gapV, best, sat uint64) (newBest, newSat uint64)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32
