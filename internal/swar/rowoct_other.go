//go:build !amd64

package swar

// Off amd64 the eight-row passes are the portable ones; hasAVX2 exists
// for the tests' route switch (export_test.go) and stays false.
var hasAVX2 = false

func rowOct8(row, codes []uint64, c *octCodes, gapV, best, sat uint64) (uint64, uint64) {
	return rowOct8Go(row, codes, c, gapV, best, sat)
}

func rowOct16(row, codes []uint64, c *octCodes, gapV, best, sat uint64) (uint64, uint64) {
	return rowOct16Go(row, codes, c, gapV, best, sat)
}

// beginRow is never reached: BeginRow refuses a host without AVX2.
func beginRow(prev, cur, codes []uint64, r *LaneRow, lo, mid, qmax int) (int, uint32) {
	panic("swar: BeginRow needs AVX2")
}
