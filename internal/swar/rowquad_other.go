//go:build !amd64

package swar

// Without SSE2 the four-row kernels are the portable ones.

func rowQuad8(row []uint64, p *quadProfile, gapV, best, sat uint64) (uint64, uint64) {
	return rowQuad8Go(row, p, gapV, best, sat)
}

func rowQuad16(row []uint64, p *quadProfile, gapV, best, sat uint64) (uint64, uint64) {
	return rowQuad16Go(row, p, gapV, best, sat)
}
