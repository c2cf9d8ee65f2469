package swar

// rowQuad8 is rowQuad8Go on SSE2's saturating byte ops
// (rowquad_amd64.s): the same words in and out, and on every clean lane
// the same cells, maximum and guard bits (DESIGN §5.6). SSE2 is part of
// every amd64 CPU, so there is nothing to detect. The checks the
// assembly leaves out happen here: every profile row holds n words, and
// n ≥ 4 — a shorter row, on which the skew's prologue and epilogue would
// overlap, takes the portable passes. A row narrowed below 4 words
// mid-scan (pass.lens) reaches them with the maximum the SSE2 passes
// left, in which a flagged lane may exceed the cap that max8's second
// operand must keep to; its guard bit is cleared, leaving garbage ≤ cap
// in a lane nothing reads.
func rowQuad8(row []uint64, p *quadProfile, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	if n < 4 {
		return rowQuad8Go(row, p, gapV, best&^hi8, sat)
	}
	p.check(n)
	return rowQuad8SSE2(&row[0], &p.plus[0][0], &p.minus[0][0], &p.plus[1][0], &p.minus[1][0],
		&p.plus[2][0], &p.minus[2][0], &p.plus[3][0], &p.minus[3][0], n, gapV, best, sat)
}

// rowQuad16 is rowQuad16Go on SSE2's saturating word ops.
func rowQuad16(row []uint64, p *quadProfile, gapV, best, sat uint64) (uint64, uint64) {
	n := len(row)
	if n < 4 {
		return rowQuad16Go(row, p, gapV, best&^hi16, sat)
	}
	p.check(n)
	return rowQuad16SSE2(&row[0], &p.plus[0][0], &p.minus[0][0], &p.plus[1][0], &p.minus[1][0],
		&p.plus[2][0], &p.minus[2][0], &p.plus[3][0], &p.minus[3][0], n, gapV, best, sat)
}

// check panics, as the portable kernels' bounds checks do, unless every
// profile row holds at least n words.
func (p *quadProfile) check(n int) {
	for k := range p.plus {
		_, _ = p.plus[k][n-1], p.minus[k][n-1]
	}
}

//go:noescape
func rowQuad8SSE2(row, plusA, minusA, plusB, minusB, plusC, minusC, plusD, minusD *uint64, n int, gapV, best, sat uint64) (newBest, newSat uint64)

//go:noescape
func rowQuad16SSE2(row, plusA, minusA, plusB, minusB, plusC, minusC, plusD, minusD *uint64, n int, gapV, best, sat uint64) (newBest, newSat uint64)
