package swar

import "genomedsm/internal/bio"

// ScalarScoreBounded is the score-only scalar Smith–Waterman rung at
// the bottom of the fallback ladder: lanes that overflow even the int16
// clean range land here. It is the same profile-driven int32 row kernel
// as align.Scan (differential tests in swar_test pin the two against
// each other), kept in this package so align can itself import swar for
// the striped fast path without an import cycle, and exported for the
// search layer's pruned scalar reference scorer. endI is the 1-based
// row at which the running maximum first reached score — align.Scan's
// BestI, 0 for a zero score. pruned reports that the exact score is
// provably < ab.Below (score and endI are then 0); rows is the number
// of query rows consumed. With a nil or disabled bound it always scans
// the full matrix and returns the exact score.
func ScalarScoreBounded(s, t bio.Sequence, sc bio.Scoring, ab *Bound) (score, endI, rows int, pruned bool) {
	m, n := s.Len(), t.Len()
	if m == 0 || n == 0 {
		return 0, 0, m, false
	}
	every := ab.cadence()
	next := every
	prof := bio.NewProfile(t, sc)
	gap := int32(sc.Gap)
	prev := make([]int32, n+1)
	cur := make([]int32, n+1)
	var best int32
	for i := 1; i <= m; i++ {
		sub := prof.Row(s[i-1])
		above := best
		d := prev[0]
		w := int32(0)
		pr := prev[1:]
		out := cur[1:]
		_ = pr[n-1]
		_ = out[n-1]
		for j := 0; j < n; j++ {
			v := d + sub[j]
			v = bio.Max32(v, w+gap)
			d = pr[j]
			v = bio.Max32(v, d+gap)
			v = bio.Clamp0(v)
			out[j] = v
			w = v
			best = bio.Max32(best, v)
		}
		if best > above {
			endI = i
		}
		prev, cur = cur, prev
		if next != 0 && i == next {
			next += every
			if int(best)+ab.Query.SuffixBound(i) < ab.Below {
				return 0, 0, i, true
			}
		}
	}
	return int(best), endI, m, false
}
