//go:build !amd64 || purego

package swar

// Off amd64, and on amd64 under the purego tag (Go's convention for a
// build without assembly), the eight-row passes are the portable ones
// and there is no lane kernel: hasAVX2 exists for the tests' route
// switch (export_test.go) and stays false, so every route the tests
// offer is the portable one, and LocateLanes and align's BeginLanes run
// LocateEnd and Begin, the scalar fallbacks they are pinned to.
var hasAVX2 = false

// asmKernels reports whether the build holds the AVX2 assembly.
const asmKernels = false

func rowOct8(row, codes []uint64, c *octCodes, gapV, best, sat uint64) (uint64, uint64) {
	return rowOct8Go(row, codes, c, gapV, best, sat)
}

func rowOct16(row, codes []uint64, c *octCodes, gapV, best, sat uint64) (uint64, uint64) {
	return rowOct16Go(row, codes, c, gapV, best, sat)
}

// beginRow is never reached: BeginRow refuses a host without AVX2.
func beginRow(prev, cur, codes []uint64, r *LaneRow, lo, mid, qmax int) (int, uint32, uint32) {
	panic("swar: BeginRow needs AVX2")
}

// fillLanes is never reached: only a host with the lane kernel runs a
// locate pass.
func fillLanes(codes, prev []uint64, g, from int, t *[4]*byte, s *[4]*uint16, n int, live, dead uint64) uint64 {
	panic("swar: fillLanes needs AVX2")
}
