package swar

import "genomedsm/internal/bio"

// This file holds the exact scalar rung at the bottom of both fallback
// ladders — lanes that overflow even the int16 clean range land here —
// and LocateEnd, which replays the same row kernel over one block from
// a saved border row. It is the profile-driven int32 row kernel of
// align.Scan (differential tests in swar_test pin the two against each
// other), kept in this package so align can itself import swar for the
// striped fast path without an import cycle.

// scalarRow advances one row of the zero-clamped local recurrence: prev
// and cur are rows of len(sub)+1 cells whose cell 0 is the zero border
// column, sub the profile row of this row's query residue, gap ≤ 0. It
// returns the row's maximum, 0 for an all-zero row; a caller that needs
// the column scans cur for it (firstCol), which only the rows that move
// a running maximum pay.
//
// The leaf form of align's rowValues: x = max(diagonal, north, 0) of
// each cell reads only prev, so it is off the west chain, which is left
// one add and one max per cell — v = max(x, west+gap) is the clamped
// recurrence because x ≥ 0. Four cells per pass.
func scalarRow(prev, cur, sub []int32, gap int32) int32 {
	north, out := prev[1:], cur[1:]
	n := len(north)
	sub, out = sub[:n], out[:n] // bounds hints for the loop body
	d, w, top := prev[0], int32(0), int32(0)
	j := 0
	for ; j < n-3; j += 4 {
		n0, n1, n2, n3 := north[j], north[j+1], north[j+2], north[j+3]
		x0 := max(d+sub[j], n0+gap, 0)
		x1 := max(n0+sub[j+1], n1+gap, 0)
		x2 := max(n1+sub[j+2], n2+gap, 0)
		x3 := max(n2+sub[j+3], n3+gap, 0)
		v0 := max(x0, w+gap)
		v1 := max(x1, v0+gap)
		v2 := max(x2, v1+gap)
		v3 := max(x3, v2+gap)
		out[j], out[j+1], out[j+2], out[j+3] = v0, v1, v2, v3
		top = max(top, v0, v1, v2, v3)
		w, d = v3, n3
	}
	for ; j < n; j++ {
		nv := north[j]
		v := max(d+sub[j], nv+gap, 0, w+gap)
		out[j] = v
		top = max(top, v)
		w, d = v, nv
	}
	return top
}

// firstCol returns the first column (1-based) of row that holds v.
func firstCol(row []int32, v int32) int {
	for j, x := range row[1:] {
		if x == v {
			return j + 1
		}
	}
	return 0
}

// scalarRows returns the Aligner's two scalar rows of n+1 cells: prev
// all zero (the top border), cur with its border cell zero.
func (a *Aligner) scalarRows(n int) (prev, cur []int32) {
	if cap(a.iprev) < n+1 {
		a.iprev, a.icur = make([]int32, n+1), make([]int32, n+1)
	}
	prev, cur = a.iprev[:n+1], a.icur[:n+1]
	clear(prev)
	cur[0] = 0
	return prev, cur
}

// ScalarPair is the exact scalar rung: the best local-alignment score
// of s against t with align.Scan's end cell — the first cell, row-major,
// at which the running maximum reaches its final value; zero for a zero
// score. pruned reports that the exact score is provably < ab.Below
// (the Pair is then zero); rows is the number of rows of s consumed.
// With a nil or disabled bound it always scans the full matrix.
func (a *Aligner) ScalarPair(s, t bio.Sequence, sc bio.Scoring, ab *Bound) (p Pair, rows int, pruned bool) {
	m, n := s.Len(), t.Len()
	if m == 0 || n == 0 {
		return Pair{}, m, false
	}
	every := ab.cadence()
	next := every
	a.iprof.Reset(t, sc.Match, sc.Mismatch)
	gap := int32(sc.Gap)
	prev, cur := a.scalarRows(n)
	for i := 1; i <= m; i++ {
		// Only a row that beats the running best looks for its column: the
		// first one holding its maximum, align.Scan's tie-break.
		if rowBest := scalarRow(prev, cur, a.iprof.Row(s[i-1]), gap); int(rowBest) > p.Score {
			p = Pair{Score: int(rowBest), I: i, J: firstCol(cur, rowBest)}
		}
		prev, cur = cur, prev
		if next != 0 && i == next {
			next += every
			if p.Score+ab.Query.SuffixBound(i) < ab.Below {
				return Pair{}, i, true
			}
		}
	}
	return p, m, false
}

// LocateEnd finds the end cell of a score the packed rungs report by
// block only. seed is the H row entering block — row block·BlockRows of
// the matrix of q against t, one value per base of t, as Seed hands it
// out; empty for block 0, whose border row is zero. The block's rows
// are replayed with the scalar row kernel until a row's maximum equals
// score; that row and the first column attaining the maximum are the
// cell align.Scan reports as (BestI, BestJ), because every row above
// the block holds less than score (that is what makes it the end block)
// and so does every earlier row inside it. ok is false when the replay
// contradicts the claim — a row exceeds score before any equals it, no
// row of the block reaches it, or block and seed do not fit q and t —
// which only a wrong score, block or seed can cause.
func (a *Aligner) LocateEnd(q, t bio.Sequence, sc bio.Scoring, block int, seed []uint16, score int) (endI, endJ int, ok bool) {
	top := block * BlockRows
	n := t.Len()
	if block < 0 || top >= q.Len() || n == 0 || score <= 0 || len(seed) != min(block, 1)*n {
		return 0, 0, false
	}
	a.iprof.Reset(t, sc.Match, sc.Mismatch)
	gap := int32(sc.Gap)
	prev, cur := a.scalarRows(n)
	for j, v := range seed {
		prev[j+1] = int32(v)
	}
	for i := top + 1; i <= min(top+BlockRows, q.Len()); i++ {
		rowBest := int(scalarRow(prev, cur, a.iprof.Row(q[i-1]), gap))
		if rowBest > score {
			break
		}
		if rowBest == score {
			return i, firstCol(cur, int32(score)), true
		}
		prev, cur = cur, prev
	}
	return 0, 0, false
}
