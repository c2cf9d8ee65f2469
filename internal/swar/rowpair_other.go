//go:build !amd64

package swar

// Without SSE2 the two-row kernels are the portable ones.

func rowPair8(row, plusA, minusA, plusB, minusB []uint64, gapV, best, sat uint64) (uint64, uint64) {
	return rowPair8Go(row, plusA, minusA, plusB, minusB, gapV, best, sat)
}

func rowPair16(row, plusA, minusA, plusB, minusB []uint64, gapV, best, sat uint64) (uint64, uint64) {
	return rowPair16Go(row, plusA, minusA, plusB, minusB, gapV, best, sat)
}
