package align

import (
	"fmt"
	"testing"

	"genomedsm/internal/bio"
)

// This file pins ReverseRetrieve's begin coordinates and RetrieveStats
// against a reference that shares no code with the sparse sweep: a
// dense, full-row evaluation of the anchored reverse recurrence.

// refAnchoredBegin evaluates the anchored reverse DP of §6 densely: cell
// (p, q) over the reversed prefixes s[1..endI], t[1..endJ] is alive only
// when it is reachable from the (0,0) origin through cells of positive
// value (Theorem 6.2), dead cells hold −∞. It returns the cell reaching
// k with the smallest p+q, the first in row-major order on ties;
// ok=false when no anchored path reaches k (the dense-fallback case).
func refAnchoredBegin(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int) (bestP, bestQ int, ok bool) {
	const dead = -1 << 40
	rows := make([][]int, endI+1)
	for p := range rows {
		rows[p] = make([]int, endJ+1)
		for q := range rows[p] {
			rows[p][q] = dead
		}
	}
	rows[0][0] = 0
	bestSum := 1 << 30
	for p := 1; p <= endI; p++ {
		for q := 1; q <= endJ; q++ {
			v := rows[p-1][q-1] + sc.Pair(s[endI-p], t[endJ-q])
			if w := rows[p][q-1] + sc.Gap; w > v {
				v = w
			}
			if n := rows[p-1][q] + sc.Gap; n > v {
				v = n
			}
			if v <= 0 {
				continue
			}
			rows[p][q] = v
			if v >= k && p+q < bestSum {
				bestP, bestQ, bestSum, ok = p, q, p+q, true
			}
		}
	}
	return bestP, bestQ, ok
}

// checkAgainstAnchoredRef retrieves the alignment ending at (endI, endJ)
// with score k and compares it with the dense reference.
func checkAgainstAnchoredRef(s, t bio.Sequence, endI, endJ, k int) (RetrieveStats, error) {
	al, st, err := ReverseRetrieve(s, t, sc, endI, endJ, k)
	if err != nil {
		return st, fmt.Errorf("retrieve (%d,%d,%d): %v", endI, endJ, k, err)
	}
	if err := al.Validate(s, t, sc); err != nil {
		return st, fmt.Errorf("retrieve (%d,%d,%d): %v", endI, endJ, k, err)
	}
	p, q, ok := refAnchoredBegin(s, t, sc, endI, endJ, k)
	if !ok {
		// No anchored path: the dense fallback may relocate the end, so
		// only the score floor is pinned here.
		if al.Score < k {
			return st, fmt.Errorf("fallback (%d,%d,%d): score %d < k", endI, endJ, k, al.Score)
		}
		return st, nil
	}
	want := [5]int{endI - p + 1, endI, endJ - q + 1, endJ, k}
	got := [5]int{al.SBegin, al.SEnd, al.TBegin, al.TEnd, al.Score}
	if got != want {
		return st, fmt.Errorf("retrieve (%d,%d,%d): (SBegin SEnd TBegin TEnd Score) = %v, reference %v", endI, endJ, k, got, want)
	}
	return st, nil
}

// checkBeginAgainstAnchoredRef runs Begin from (endI, endJ) with score k
// and compares it with the dense reference: the same begin cell where an
// anchored path reaches k, ok=false exactly where none does. The stats
// it returns are Begin's plus, on ok=false, those of the dense pass that
// ReverseRetrieve falls back to and Begin does not run — so summed over
// endpoints they compare with ReverseRetrieve's.
func checkBeginAgainstAnchoredRef(rt *Retriever, s, t bio.Sequence, endI, endJ, k int) (RetrieveStats, error) {
	sBegin, tBegin, st, ok := rt.Begin(s, t, sc, endI, endJ, k)
	p, q, refOK := refAnchoredBegin(s, t, sc, endI, endJ, k)
	if ok != refOK {
		return st, fmt.Errorf("begin (%d,%d,%d): ok=%v, reference ok=%v", endI, endJ, k, ok, refOK)
	}
	if !ok {
		_, st, err := reverseRetrieveDense(s, t, sc, endI, endJ, k, st)
		if err != nil {
			err = fmt.Errorf("begin (%d,%d,%d): dense pass: %v", endI, endJ, k, err)
		}
		return st, err
	}
	if got, want := [2]int{sBegin, tBegin}, [2]int{endI - p + 1, endJ - q + 1}; got != want {
		return st, fmt.Errorf("begin (%d,%d,%d): (SBegin TBegin) = %v, reference %v", endI, endJ, k, got, want)
	}
	return st, nil
}

// refPair builds the seed's test pair of one shape: unrelated random
// sequences, a mutated copy planted between random flanks, or a
// two-letter alphabet (ties on almost every cell).
func refPair(shape string, seed int64) (s, t bio.Sequence) {
	g := bio.NewGenerator(seed)
	switch shape {
	case "random":
		return g.Random(150 + int(seed%7)*20), g.Random(200 + int(seed%5)*30)
	case "homolog":
		s = g.Random(260)
		t = append(t, g.Random(40+int(seed%3)*25)...)
		t = append(t, g.MutatedCopy(s[30:230], bio.DefaultMutationModel())...)
		t = append(t, g.Random(50)...)
		return s, t
	default: // "twoletter"
		two := func(x bio.Sequence) bio.Sequence {
			for i, b := range x {
				if b == 'G' {
					x[i] = 'A'
				} else if b == 'T' {
					x[i] = 'C'
				}
			}
			return x
		}
		return two(g.Random(90 + int(seed%4)*10)), two(g.Random(110))
	}
}

// TestReverseRetrieveMatchesAnchoredReference compares every endpoint of
// every pair with the dense reference, and the summed RetrieveStats with
// the values the pre-kernel (closure + value-arena) implementation
// produced for the same seeds: the §6 experiment and the Eq. (3) bound
// read these counters, so the tight sweep must count exactly as before.
// Begin, the arrow-free form of the same sweep, is held to the same
// reference and — with the dense pass it leaves out added back on its
// ok=false endpoints — to sums of its own, recorded when its score-to-go
// floor went in, which must not exceed ReverseRetrieve's: the floor
// computes fewer cells by design.
func TestReverseRetrieveMatchesAnchoredReference(t *testing.T) {
	type sums struct {
		cells, full int64
		rows, n     int
	}
	want := map[string]sums{ // recorded at the parent of the tight-sweep change
		"random":    {cells: 715325, full: 946700, rows: 2344, n: 300},
		"homolog":   {cells: 3092813, full: 3860283, rows: 4621, n: 300},
		"twoletter": {cells: 626453, full: 1043658, rows: 7853, n: 300},
	}
	wantBegin := map[string]sums{ // recorded with Begin's score-to-go floor
		"random":    {cells: 715025, full: 946110, rows: 2339, n: 300},
		"homolog":   {cells: 2970009, full: 3846460, rows: 4568, n: 300},
		"twoletter": {cells: 602974, full: 1033640, rows: 7677, n: 300},
	}
	var rt Retriever
	for _, shape := range []string{"random", "homolog", "twoletter"} {
		var got, gotBegin sums
		add := func(to *sums, st RetrieveStats) {
			to.cells += st.CellsComputed
			to.full += st.FullCells
			to.rows += st.RowsComputed
			to.n++
		}
		for seed := int64(1); seed <= 12; seed++ {
			s, tt := refPair(shape, seed)
			r, err := Scan(s, tt, sc, ScanOptions{ForceScalar: true, EndpointMinScore: 4})
			if err != nil {
				t.Fatal(err)
			}
			// The best cell plus an even stride of at most ~24 weaker
			// endpoints: enough shapes (including dense-fallback ones)
			// without a quadratic reference run per endpoint of the pair.
			eps := []Endpoint{{I: r.BestI, J: r.BestJ, Score: r.BestScore}}
			for i := 0; i < len(r.Endpoints); i += len(r.Endpoints)/24 + 1 {
				eps = append(eps, r.Endpoints[i])
			}
			for _, ep := range eps {
				st, err := checkAgainstAnchoredRef(s, tt, ep.I, ep.J, ep.Score)
				if err != nil {
					t.Fatalf("%s seed %d: %v", shape, seed, err)
				}
				add(&got, st)
				if st, err = checkBeginAgainstAnchoredRef(&rt, s, tt, ep.I, ep.J, ep.Score); err != nil {
					t.Fatalf("%s seed %d: %v", shape, seed, err)
				}
				add(&gotBegin, st)
			}
		}
		if w := want[shape]; got != w {
			t.Errorf("%s: stats %+v, recorded %+v", shape, got, w)
		}
		if w := wantBegin[shape]; gotBegin != w {
			t.Errorf("%s: Begin stats %+v, recorded %+v", shape, gotBegin, w)
		}
		if gotBegin.cells > got.cells || gotBegin.full > got.full || gotBegin.rows > got.rows {
			t.Errorf("%s: Begin stats %+v above ReverseRetrieve's %+v", shape, gotBegin, got)
		}
	}
}
