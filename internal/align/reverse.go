package align

import (
	"fmt"
	"slices"

	"genomedsm/internal/bio"
)

// RetrieveStats instruments the Section 6 retrieval so the Eq. (3) claim
// (only ≈30% of the n'×n' matrix is necessary in the worst case) can be
// measured.
type RetrieveStats struct {
	CellsComputed int64 // interior cells evaluated inside the useful area
	FullCells     int64 // (p_max+1)·(q_max+1) the naive method would compute
	RowsComputed  int   // rows of the reverse matrix that were touched
}

// UsefulFraction is CellsComputed / FullCells.
func (st RetrieveStats) UsefulFraction() float64 {
	if st.FullCells == 0 {
		return 0
	}
	return float64(st.CellsComputed) / float64(st.FullCells)
}

// ReverseRetrieve implements the second step of the paper's Algorithm 1
// (Section 6): given the end coordinates (endI, endJ) and score k of a
// local alignment between s and t — typically found by Scan — it rebuilds
// the alignment by running the dynamic programming over the *reverses* of
// the prefixes s[1..endI] and t[1..endJ] (Observation 6.1), pruning every
// computation that descends from an intermediate zero (Theorem 6.2).
//
// The returned alignment is expressed in original s/t coordinates and is
// the minimal-length alignment of score k ending at (endI, endJ). Space is
// proportional to the useful area only, O(n'²) with the Eq. (3) constant,
// instead of endI·endJ.
func ReverseRetrieve(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int) (*Alignment, RetrieveStats, error) {
	var r Retriever
	return r.ReverseRetrieve(s, t, sc, endI, endJ, k)
}

// Retriever carries the reusable storage of ReverseRetrieve. Cell values
// live only in two rolling rows (prev/cur, indexed by column); what the
// traceback needs — one arrow byte per useful cell — stacks up in one
// shared arena, each row holding only its index window into it, so a
// retrieval performs a handful of amortized arena growths and stores
// 1 B per useful cell. The zero value is ready to use; a Retriever must
// not be shared between goroutines. Steady-state reuse (one per realign
// worker, RetrieveAll) allocates only the result.
type Retriever struct {
	prev, cur []int32      // rolling value rows, qmax+2 columns each
	arrs      []byte       // arrow arena
	rows      []rrow       // per-row windows into the arena
	rev       bio.Sequence // reversed-prefix scratch for the profile
	prof      bio.Profile  // query profile over rev, rebuilt per call
	// High-water trim bookkeeping: one huge retrieval must not pin its
	// arena for the lifetime of a long-lived Retriever (a realign worker,
	// RetrieveAll loops). Every trimWindow calls the buffers are shrunk
	// back to the window's peak usage when their capacity dwarfs it; see
	// observe.
	calls  int
	hw     int // peak len(arrs) observed this window
	hwRows int // peak len(rows) observed this window
}

// Arena trim tuning: how many retrievals one observation window spans,
// the slack factor before a trim fires, and the capacity below which
// trimming is never worth it.
const (
	arenaTrimWindow = 16
	arenaTrimFactor = 2
	arenaTrimMinCap = 4096
)

// observe runs at the start of each retrieval, while the arena still
// holds the previous call's rows: it folds that usage into the window's
// high-water marks and, once per window, releases buffers whose
// capacity exceeds arenaTrimFactor × the recent peak (so alternating
// big/small workloads keep their buffers, while a one-off giant
// retrieval stops taxing every later small one).
func (rt *Retriever) observe() {
	if n := len(rt.arrs); n > rt.hw {
		rt.hw = n
	}
	if n := len(rt.rows); n > rt.hwRows {
		rt.hwRows = n
	}
	if rt.calls++; rt.calls < arenaTrimWindow {
		return
	}
	if cap(rt.arrs) > arenaTrimFactor*rt.hw && cap(rt.arrs) > arenaTrimMinCap {
		rt.arrs = make([]byte, 0, rt.hw)
		rt.prev, rt.cur, rt.rev, rt.prof = nil, nil, nil, bio.Profile{}
	}
	if cap(rt.rows) > arenaTrimFactor*rt.hwRows && cap(rt.rows) > arenaTrimMinCap {
		rt.rows = make([]rrow, 0, rt.hwRows)
	}
	rt.calls, rt.hw, rt.hwRows = 0, 0, 0
}

// rrow is one sparse row: the active column window [lo, hi] stored at
// arena offset off (so column q's arrows live at index off+q-lo).
type rrow struct {
	lo, hi, off int
}

// deadCell is the value of a pruned cell in the rolling rows: far enough
// below zero that no sum of scores lifts a candidate built on it above
// zero, far enough above the int32 minimum that adding a score cannot
// wrap.
const deadCell int32 = -1 << 29

// ReverseRetrieve is the buffer-reusing form of the package function of
// the same name; see its documentation.
func (rt *Retriever) ReverseRetrieve(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int) (*Alignment, RetrieveStats, error) {
	rt.observe()
	var st RetrieveStats
	if err := sc.Validate(); err != nil {
		return nil, st, err
	}
	if endI < 1 || endI > s.Len() || endJ < 1 || endJ > t.Len() {
		return nil, st, fmt.Errorf("align: end position (%d,%d) out of range for |s|=%d |t|=%d",
			endI, endJ, s.Len(), t.Len())
	}
	if k < 1 {
		return nil, st, fmt.Errorf("align: target score %d must be >= 1", k)
	}
	// Work over the reversed prefixes. srev[p] (1-based) is s[endI-p+1].
	srevAt := func(p int) byte { return s[endI-p] }
	trevAt := func(q int) byte { return t[endJ-q] }
	pmax, qmax := endI, endJ
	// Query profile over the reversed prefix of t: sub[q-1] is the
	// substitution score of srev[p] against trev[q], one int32 load per
	// cell in the hot loop below. The reversal scratch is reused.
	rt.rev = rt.rev[:0]
	for q := endJ - 1; q >= 0; q-- {
		rt.rev = append(rt.rev, t[q])
	}
	prof := &rt.prof
	prof.Reset(rt.rev, sc.Match, sc.Mismatch)
	gap, kk := int32(sc.Gap), int32(k)

	// A cell is active when its value is positive and it is reachable
	// from the (1,1) seed without crossing a zero — Theorem 6.2 says
	// pruning the rest cannot lose the minimal-length alignment, because
	// that alignment starts at the first character of each reversed
	// sequence. Pruned cells hold deadCell, so a candidate built on one
	// can never be positive and the recurrence needs no activity flag;
	// the origin of row 0 is the one active cell with value 0. Row p
	// keeps arrows for its active column window [lo, hi] only. Rows stack
	// up in the shared arena: the current row grows at the arena tail,
	// front shrinks just advance its offset, tail shrinks truncate the
	// arena before the next row starts.
	if cap(rt.prev) < qmax+2 {
		rt.prev, rt.cur = make([]int32, qmax+2), make([]int32, qmax+2)
	}
	prev, cur := rt.prev[:qmax+2], rt.cur[:qmax+2]
	prev[0], prev[1] = 0, deadCell
	rt.arrs = append(rt.arrs[:0], 0)
	rt.rows = append(rt.rows[:0], rrow{lo: 0, hi: 0, off: 0})

	bestP, bestQ := -1, -1
	bestSum := 1 << 30
	for p := 1; p <= pmax; p++ {
		pr := rt.rows[p-1]
		// Any cell in this row has path length ≥ p; stop once no cell can
		// beat the best minimal-length hit found so far.
		if bestP >= 0 && p+1 > bestSum {
			break
		}
		lo := max(pr.lo, 1)
		if lo > qmax {
			break
		}
		// Columns [lo, mid] can receive diagonal or north arrows from the
		// previous row, whose written cells [lo-1, mid] are all valid
		// reads (deadCell outside its window).
		mid := min(pr.hi+1, qmax)
		n := mid - lo + 1
		off := len(rt.arrs)
		rt.arrs = slices.Grow(rt.arrs, n)[:off+n]
		arr := rt.arrs[off:]
		sub := prof.Row(srevAt(p))[lo-1 : mid]
		north := prev[lo : mid+1]
		out := cur[lo : mid+1]
		cur[lo-1] = deadCell
		d, w := prev[lo-1], deadCell
		for i := range arr {
			nv := north[i]
			dc, wc, nc := d+sub[i], w+gap, nv+gap
			v := max(dc, wc, nc)
			// The arrows are every direction whose candidate attains the
			// maximum; the traceback prefers diag, west, north. Written
			// as independent selects so the compiler emits conditional
			// moves instead of three unpredictable branches.
			var ad, aw, an byte
			if dc == v {
				ad = ArrowDiag
			}
			if wc == v {
				aw = ArrowWest
			}
			if nc == v {
				an = ArrowNorth
			}
			a := ad | aw | an
			if v <= 0 {
				v, a = deadCell, 0
			} else if v >= kk && p+lo+i < bestSum {
				bestP, bestQ, bestSum = p, lo+i, p+lo+i
			}
			out[i], arr[i] = v, a
			d, w = nv, v
		}
		// Beyond mid only west chains (runs of gaps in s) can stay alive,
		// and they die as soon as a value drops to zero. The cell that
		// kills the chain was evaluated, so it counts, but is not stored.
		q := mid + 1
		for ; q <= qmax; q++ {
			v := w + gap
			if v <= 0 {
				st.CellsComputed++
				break
			}
			cur[q] = v
			rt.arrs = append(rt.arrs, ArrowWest)
			if v >= kk && p+q < bestSum {
				bestP, bestQ, bestSum = p, q, p+q
			}
			w = v
		}
		cur[q] = deadCell
		st.CellsComputed += int64(q - lo)
		// Shrink the stored window to the live cells (arrows ≠ 0).
		row := rrow{lo: lo, hi: q - 1, off: off}
		for row.lo <= row.hi && rt.arrs[row.off] == 0 {
			row.off++
			row.lo++
		}
		for row.hi >= row.lo && rt.arrs[len(rt.arrs)-1] == 0 {
			rt.arrs = rt.arrs[:len(rt.arrs)-1]
			row.hi--
		}
		rt.rows = append(rt.rows, row)
		st.RowsComputed = p
		if row.lo > row.hi {
			break // the whole row is dead
		}
		prev, cur = cur, prev
	}
	st.FullCells = int64(st.RowsComputed+1) * int64(qmax+1)
	if bestP < 0 {
		// Rare but possible: every score-k path ending exactly at
		// (endI, endJ) revisits score k at an interior point, so its
		// reverse partial sums touch zero and Theorem 6.2's pruning
		// removes it. The theorem's proof tells us what remains: dropping
		// the zero-score reverse prefix leaves an equal-score alignment at
		// a smaller extent, i.e. the alignment relocates to an earlier
		// forward end. A dense (unpruned) reverse Smith–Waterman finds the
		// relocated alignment; it costs more memory but only runs in this
		// corner case.
		return reverseRetrieveDense(s, t, sc, endI, endJ, k, st)
	}

	// Traceback inside the stored area, collecting ops of the *reverse*
	// alignment; reversing at the end yields the original-order ops.
	var revOps []Op
	p, q := bestP, bestQ
	for p > 0 || q > 0 {
		r := rt.rows[p]
		if q < r.lo || q > r.hi {
			return nil, st, fmt.Errorf("align: traceback escaped the stored area at (%d,%d)", p, q)
		}
		arrows := rt.arrs[r.off+q-r.lo]
		if arrows == 0 {
			break
		}
		switch {
		case arrows&ArrowDiag != 0:
			if bio.Matches(srevAt(p), trevAt(q)) {
				revOps = append(revOps, OpMatch)
			} else {
				revOps = append(revOps, OpMismatch)
			}
			p--
			q--
		case arrows&ArrowWest != 0:
			revOps = append(revOps, OpGapS)
			q--
		default:
			revOps = append(revOps, OpGapT)
			p--
		}
	}
	if p != 0 || q != 0 {
		return nil, st, fmt.Errorf("align: traceback stopped at (%d,%d), want origin", p, q)
	}
	// revOps is ordered end→start of the reverse alignment, which is
	// start→end of the original alignment already.
	al := &Alignment{
		SBegin: endI - bestP + 1, SEnd: endI,
		TBegin: endJ - bestQ + 1, TEnd: endJ,
		Score: k,
		Ops:   revOps,
	}
	return al, st, nil
}

// reverseRetrieveDense is the unpruned fallback for ReverseRetrieve: a
// plain Smith–Waterman over the reversed prefixes, rows stored with
// arrows, stopped at the first (minimal p+q) cell reaching score k. The
// traceback start need not be the origin — the returned alignment carries
// its true (possibly relocated) forward coordinates and its true score,
// which is >= k.
func reverseRetrieveDense(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int, st RetrieveStats) (*Alignment, RetrieveStats, error) {
	srevAt := func(p int) byte { return s[endI-p] }
	trevAt := func(q int) byte { return t[endJ-q] }
	pmax, qmax := endI, endJ
	prof := bio.NewProfile(bio.Sequence(t[:endJ]).Reverse(), sc)
	gap := int32(sc.Gap)
	vals := [][]int32{make([]int32, qmax+1)}
	arrs := [][]byte{make([]byte, qmax+1)}
	bestP, bestQ := -1, -1
	bestSum := 1 << 30
	for p := 1; p <= pmax; p++ {
		if bestP >= 0 && p+1 > bestSum {
			break
		}
		pv := vals[p-1]
		cv := make([]int32, qmax+1)
		ca := make([]byte, qmax+1)
		sub := prof.Row(srevAt(p))
		for q := 1; q <= qmax; q++ {
			v := pv[q-1] + sub[q-1]
			arrows := ArrowDiag
			if w := cv[q-1] + gap; w > v {
				v, arrows = w, ArrowWest
			}
			if n := pv[q] + gap; n > v {
				v, arrows = n, ArrowNorth
			}
			if v <= 0 {
				v, arrows = 0, 0
			}
			cv[q], ca[q] = v, arrows
			st.CellsComputed++
			if int(v) >= k && p+q < bestSum {
				bestP, bestQ, bestSum = p, q, p+q
			}
		}
		vals = append(vals, cv)
		arrs = append(arrs, ca)
	}
	st.FullCells = int64(len(vals)) * int64(qmax+1)
	if bestP < 0 {
		return nil, st, fmt.Errorf("align: no alignment of score %d ends at or before (%d,%d)", k, endI, endJ)
	}
	var revOps []Op
	p, q := bestP, bestQ
	for p > 0 && q > 0 && arrs[p][q] != 0 {
		switch arrs[p][q] {
		case ArrowDiag:
			if bio.Matches(srevAt(p), trevAt(q)) {
				revOps = append(revOps, OpMatch)
			} else {
				revOps = append(revOps, OpMismatch)
			}
			p--
			q--
		case ArrowWest:
			revOps = append(revOps, OpGapS)
			q--
		default:
			revOps = append(revOps, OpGapT)
			p--
		}
	}
	al := &Alignment{
		SBegin: endI - bestP + 1, SEnd: endI - p,
		TBegin: endJ - bestQ + 1, TEnd: endJ - q,
		Score: int(vals[bestP][bestQ] - vals[p][q]),
		Ops:   revOps,
	}
	return al, st, nil
}

// BestLocalLinear runs the complete Section 6 pipeline: a linear-space
// scan finds the best score and its end coordinates, and ReverseRetrieve
// rebuilds the alignment in O(min(n,m) + n'²) space. This is the exact
// replacement for the full-matrix BestLocal on long sequences.
func BestLocalLinear(s, t bio.Sequence, sc bio.Scoring) (*Alignment, RetrieveStats, error) {
	r, err := Scan(s, t, sc, ScanOptions{})
	if err != nil {
		return nil, RetrieveStats{}, err
	}
	if r.BestScore <= 0 {
		return nil, RetrieveStats{}, fmt.Errorf("align: no positive-score local alignment exists")
	}
	return ReverseRetrieve(s, t, sc, r.BestI, r.BestJ, r.BestScore)
}

// RetrieveAll retrieves one alignment per endpoint (as produced by Scan
// with EndpointMinScore set), skipping endpoints that fall inside an
// already-retrieved alignment. Stats are accumulated.
func RetrieveAll(s, t bio.Sequence, sc bio.Scoring, eps []Endpoint) ([]*Alignment, RetrieveStats, error) {
	var total RetrieveStats
	var out []*Alignment
	for _, ep := range eps {
		covered := false
		for _, a := range out {
			if ep.I >= a.SBegin && ep.I <= a.SEnd && ep.J >= a.TBegin && ep.J <= a.TEnd {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		a, st, err := ReverseRetrieve(s, t, sc, ep.I, ep.J, ep.Score)
		total.CellsComputed += st.CellsComputed
		total.FullCells += st.FullCells
		if err != nil {
			return nil, total, fmt.Errorf("endpoint (%d,%d,%d): %w", ep.I, ep.J, ep.Score, err)
		}
		out = append(out, a)
	}
	return out, total, nil
}
