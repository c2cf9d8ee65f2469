package align

import (
	"fmt"
	"slices"

	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
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

// Retriever carries the reusable storage of the reverse sweep. Cell
// values live only in two rolling rows (prev/cur, indexed by column);
// what ReverseRetrieve's traceback needs — one arrow byte per useful cell
// — stacks up in one shared arena, each row holding only its index
// window into it, so a retrieval performs a handful of amortized arena
// growths and stores 1 B per useful cell. Begin keeps no arrows at all.
// The zero value is ready to use; a Retriever must not be shared between
// goroutines. Steady-state reuse (one per realign worker, RetrieveAll)
// allocates only ReverseRetrieve's result, and nothing in Begin.
type Retriever struct {
	prev, cur []int32      // rolling value rows, qmax+2 columns each
	rev       bio.Sequence // reversed-prefix scratch for the profile
	prof      bio.Profile  // query profile over rev, rebuilt per call
	arrows    arrowRows    // ReverseRetrieve's traceback store
	values    valueRows    // Begin's score-to-go floor
	lanes     laneScratch  // BeginLanes's passes
	// High-water trim bookkeeping: one huge retrieval must not pin its
	// arena for the lifetime of a long-lived Retriever (a realign worker,
	// RetrieveAll loops). Every trimWindow calls the buffers are shrunk
	// back to the window's peak usage when their capacity dwarfs it; see
	// observe.
	calls  int
	hw     int // peak len(arrows.arrs) observed this window
	hwRows int // peak len(arrows.rows) observed this window
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
	a := &rt.arrows
	if n := len(a.arrs); n > rt.hw {
		rt.hw = n
	}
	if n := len(a.rows); n > rt.hwRows {
		rt.hwRows = n
	}
	if rt.calls++; rt.calls < arenaTrimWindow {
		return
	}
	if cap(a.arrs) > arenaTrimFactor*rt.hw && cap(a.arrs) > arenaTrimMinCap {
		a.arrs = make([]byte, 0, rt.hw)
		rt.prev, rt.cur, rt.rev, rt.prof = nil, nil, nil, bio.Profile{}
	}
	if cap(a.rows) > arenaTrimFactor*rt.hwRows && cap(a.rows) > arenaTrimMinCap {
		a.rows = make([]rrow, 0, rt.hwRows)
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

// checkEnd validates the arguments of a reverse sweep.
func checkEnd(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	if endI < 1 || endI > s.Len() || endJ < 1 || endJ > t.Len() {
		return fmt.Errorf("align: end position (%d,%d) out of range for |s|=%d |t|=%d",
			endI, endJ, s.Len(), t.Len())
	}
	if k < 1 {
		return fmt.Errorf("align: target score %d must be >= 1", k)
	}
	return nil
}

// A rowKernel is what sets the two forms of the reverse sweep apart: the
// least value a live cell may hold, how the interior of a row is
// evaluated and what a finished row leaves behind. The windows, the
// west-chain tail and the stop rule belong to sweep alone.
type rowKernel interface {
	// floor is the least value a cell of row p stays live with: 1 for
	// Theorem 6.2's pruning alone.
	floor(p int) int32
	// interior evaluates the columns [lo, lo+len(out)) of a row reachable
	// from the previous one: out[i] is column lo+i, sub[i] its
	// substitution score, north[i] the previous row's value above it and
	// d the previous row's value at column lo-1. A cell below fl, the
	// row's floor, is stored as deadCell. It returns the largest value
	// stored.
	interior(sub, north, out []int32, d, gap, fl int32) int32
	// done closes the row: columns [lo, end) were evaluated, those past
	// mid as the west-chain tail, and [liveLo, liveHi] is the window of
	// its live cells (empty when liveLo > liveHi).
	done(lo, mid, end, liveLo, liveHi int)
}

// sweep runs the §6 reverse sweep from the end cell (endI, endJ): the
// dynamic programming over the reverses of s[1..endI] and t[1..endJ]
// (Observation 6.1), pruning every computation that descends from an
// intermediate zero (Theorem 6.2). It returns the begin cell (bestP,
// bestQ) over the reversed prefixes — the cell reaching k with the
// smallest p+q, the first in row-major order on ties — or bestP < 0 when
// no anchored path reaches k. The arguments must have passed checkEnd.
//
// A cell is active when its value is positive and it is reachable from
// the (1,1) seed without crossing a zero — Theorem 6.2 says pruning the
// rest cannot lose the minimal-length alignment, because that alignment
// starts at the first character of each reversed sequence — and when it
// is not below its row's rk.floor. Pruned cells hold deadCell, so a
// candidate built on one can never be positive and the recurrence needs
// no activity flag; the origin of row 0 is the one active cell with
// value 0. Row p evaluates the columns its predecessor's
// live window [lo, hi] reaches — [lo, hi+1] through rk.interior, then
// the west chain beyond them until it dies — and hands its own live
// window to the next row.
func (rt *Retriever) sweep(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int, rk rowKernel) (bestP, bestQ int, st RetrieveStats) {
	pmax, qmax := endI, endJ
	// Query profile over the reversed prefix of t: sub[q-1] is the
	// substitution score of srev[p] = s[endI-p] against trev[q], one
	// int32 load per cell. The reversal scratch is reused.
	rt.rev = rt.rev[:0]
	for q := endJ - 1; q >= 0; q-- {
		rt.rev = append(rt.rev, t[q])
	}
	prof := &rt.prof
	prof.Reset(rt.rev, sc.Match, sc.Mismatch)
	gap, kk := int32(sc.Gap), int32(k)
	if cap(rt.prev) < qmax+2 {
		rt.prev, rt.cur = make([]int32, qmax+2), make([]int32, qmax+2)
	}
	prev, cur := rt.prev[:qmax+2], rt.cur[:qmax+2]
	prev[0], prev[1] = 0, deadCell

	bestP, bestQ = -1, -1
	bestSum := 1 << 30
	lo, hi := 0, 0 // the previous row's live window
	for p := 1; p <= pmax; p++ {
		// Any cell in this row has path length ≥ p; stop once no cell can
		// beat the best minimal-length hit found so far.
		if bestP >= 0 && p+1 > bestSum {
			break
		}
		if lo = max(lo, 1); lo > qmax {
			break
		}
		// Columns [lo, mid] can be reached from the previous row, whose
		// written cells [lo-1, mid] are all valid reads (deadCell outside
		// its window).
		mid := min(hi+1, qmax)
		out := cur[lo : mid+1]
		cur[lo-1] = deadCell
		fl := rk.floor(p)
		if rk.interior(prof.Row(s[endI-p])[lo-1:mid], prev[lo:mid+1], out, prev[lo-1], gap, fl) >= kk {
			// The first column of the row to reach k has the row's smallest
			// p+q; it wins if it beats the rows above.
			for i, v := range out {
				if v >= kk {
					if p+lo+i < bestSum {
						bestP, bestQ, bestSum = p, lo+i, p+lo+i
					}
					break
				}
			}
		}
		// Beyond mid only west chains (runs of gaps in s) can stay alive,
		// and they die as soon as a value drops below the floor. The cell
		// that kills the chain was evaluated, so it counts, but is not
		// stored.
		w := out[len(out)-1]
		q := mid + 1
		for ; q <= qmax; q++ {
			v := w + gap
			if v < fl {
				st.CellsComputed++
				break
			}
			cur[q] = v
			if v >= kk && p+q < bestSum {
				bestP, bestQ, bestSum = p, q, p+q
			}
			w = v
		}
		cur[q] = deadCell
		st.CellsComputed += int64(q - lo)
		st.RowsComputed = p
		// Shrink the window to the live cells.
		liveLo, liveHi := lo, q-1
		for liveLo <= liveHi && cur[liveLo] == deadCell {
			liveLo++
		}
		for liveHi >= liveLo && cur[liveHi] == deadCell {
			liveHi--
		}
		rk.done(lo, mid, q, liveLo, liveHi)
		if liveLo > liveHi {
			break // the whole row is dead
		}
		lo, hi = liveLo, liveHi
		prev, cur = cur, prev
	}
	st.FullCells = int64(st.RowsComputed+1) * int64(qmax+1)
	return bestP, bestQ, st
}

// valueRows is Begin's row kernel: values only, under a score-to-go
// floor. Every step of a path gains at most match (a gap step loses), and
// a cell of row p has pmax−p rows left, so a cell whose value v has
// v + match·(pmax−p) < k lies on no path that reaches k: floor(p) =
// max(1, k − match·(pmax−p)) kills it like a non-positive cell.
//
// The floor is exact: it changes no value that survives it. A live
// cell's maximising predecessor under Theorem 6.2 is live too — a
// diagonal one holds at least v − match ≥ floor(p−1), a north or west one
// v − gap > v — so by induction every cell at or above its floor keeps
// Theorem 6.2's value, every cell reaching k (k ≥ every floor) still
// does, and the begin cell, its tie-break and ok are the floor-less
// sweep's. Only RetrieveStats shrink. The zero valueRows has floor 1 in
// every row: Theorem 6.2's pruning alone.
type valueRows struct{ k, match, pmax int }

func (vr *valueRows) floor(p int) int32 { return int32(max(1, vr.k-vr.match*(vr.pmax-p))) }

func (*valueRows) interior(sub, north, out []int32, d, gap, fl int32) int32 {
	return rowValues(sub, north, out, d, gap, fl)
}

func (*valueRows) done(lo, mid, end, liveLo, liveHi int) {}

// rowValues is the score-only row of the reverse sweep: the diagonal and
// west values ride in registers, and each cell is one profile load, one
// load of the row above and one store. A cell below fl is stored dead.
//
// The west value is the one that carries from cell to cell, so it skips
// the dead clamp: a west value below fl only ever yields a candidate
// below fl, which loses to any live one and is stored as deadCell like
// any other, so the stored row is the clamped recurrence's and the chain
// from one cell to the next is an add and a select.
func rowValues(sub, north, out []int32, d, gap, fl int32) int32 {
	n := len(out)
	sub, north = sub[:n], north[:n]
	w, top := deadCell, deadCell
	// Four cells per pass: the loop is bound by instructions, not by the
	// west chain, and its own bookkeeping was a fifth of a cell's.
	i := 0
	for ; i < n-3; i += 4 {
		n0, n1, n2, n3 := north[i], north[i+1], north[i+2], north[i+3]
		v0 := max(d+sub[i], n0+gap, w+gap)
		v1 := max(n0+sub[i+1], n1+gap, v0+gap)
		v2 := max(n1+sub[i+2], n2+gap, v1+gap)
		v3 := max(n2+sub[i+3], n3+gap, v2+gap)
		w, d = v3, n3
		if v0 < fl {
			v0 = deadCell
		}
		if v1 < fl {
			v1 = deadCell
		}
		if v2 < fl {
			v2 = deadCell
		}
		if v3 < fl {
			v3 = deadCell
		}
		out[i], out[i+1], out[i+2], out[i+3] = v0, v1, v2, v3
		top = max(top, v0, v1, v2, v3)
	}
	for ; i < n; i++ {
		nv := north[i]
		v := max(d+sub[i], nv+gap, w+gap)
		w, d = v, nv
		if v < fl {
			v = deadCell
		}
		out[i] = v
		top = max(top, v)
	}
	return top
}

// arrowRows is ReverseRetrieve's row kernel and the traceback's store:
// beside the values it records, per useful cell, the directions whose
// candidate attains the maximum. Rows stack up in the shared arena: the
// current row grows at the arena tail, front shrinks just advance its
// offset, tail shrinks truncate the arena before the next row starts.
type arrowRows struct {
	arrs []byte // arrow arena
	rows []rrow // per-row windows into the arena, row 0 first
	off  int    // arena offset of the row being evaluated
}

// reset starts a retrieval with row 0, whose one active cell is the
// origin.
func (a *arrowRows) reset() {
	a.arrs = append(a.arrs[:0], 0)
	a.rows = append(a.rows[:0], rrow{lo: 0, hi: 0, off: 0})
}

// floor is 1: ReverseRetrieve keeps Theorem 6.2's useful area whole,
// because the §6 experiment and the Eq. (3) bound read its counters.
func (*arrowRows) floor(int) int32 { return 1 }

func (a *arrowRows) interior(sub, north, out []int32, d, gap, _ int32) int32 {
	n := len(out)
	a.off = len(a.arrs)
	a.arrs = slices.Grow(a.arrs, n)[:a.off+n]
	return rowArrows(sub, north, out, a.arrs[a.off:], d, gap)
}

func (a *arrowRows) done(lo, mid, end, liveLo, liveHi int) {
	for q := mid + 1; q < end; q++ {
		a.arrs = append(a.arrs, ArrowWest)
	}
	row := rrow{lo: liveLo, hi: liveHi, off: a.off + liveLo - lo}
	if liveLo <= liveHi {
		a.arrs = a.arrs[:a.off+liveHi-lo+1]
	}
	a.rows = append(a.rows, row)
}

// rowArrows evaluates a row like rowValues and also records the arrows
// of each cell: every direction whose candidate attains the maximum,
// computed as independent selects so the compiler emits conditional
// moves instead of three unpredictable branches. A dead cell gets no
// arrow, so a cell is live exactly when it has one.
func rowArrows(sub, north, out []int32, arr []byte, d, gap int32) int32 {
	sub, north, arr = sub[:len(out)], north[:len(out)], arr[:len(out)]
	w, top := deadCell, deadCell
	for i := range out {
		nv := north[i]
		dc, wc, nc := d+sub[i], w+gap, nv+gap
		v := max(dc, wc, nc)
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
		}
		out[i], arr[i] = v, a
		top = max(top, v)
		d, w = nv, v
	}
	return top
}

// ReverseRetrieve is the buffer-reusing form of the package function of
// the same name; see its documentation.
func (rt *Retriever) ReverseRetrieve(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int) (*Alignment, RetrieveStats, error) {
	rt.observe()
	if err := checkEnd(s, t, sc, endI, endJ, k); err != nil {
		return nil, RetrieveStats{}, err
	}
	a := &rt.arrows
	a.reset()
	bestP, bestQ, st := rt.sweep(s, t, sc, endI, endJ, k, a)
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
		r := a.rows[p]
		if q < r.lo || q > r.hi {
			return nil, st, fmt.Errorf("align: traceback escaped the stored area at (%d,%d)", p, q)
		}
		arrows := a.arrs[r.off+q-r.lo]
		if arrows == 0 {
			break
		}
		switch {
		case arrows&ArrowDiag != 0:
			if bio.Matches(s[endI-p], t[endJ-q]) {
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

// Begin is the begin-cell form of ReverseRetrieve: the same sweep, with
// the same stop rule and begin cell, but it keeps cell values only in the
// two rolling rows — no arrows, no traceback, no Ops — has no dense
// fallback, and drops every cell from which the rows left cannot reach k
// (valueRows), so its RetrieveStats count at most ReverseRetrieve's.
// When an alignment of score k ending at (endI, endJ) passes Theorem
// 6.2's pruning, (sBegin, tBegin) is where ReverseRetrieve's alignment
// begins and ok is true. Otherwise — no such alignment ends exactly
// there, or the arguments are out of range — ok is false. Begin leaves
// the arrow arena alone and allocates nothing once the Retriever has
// held a sweep of the same size.
func (rt *Retriever) Begin(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int) (sBegin, tBegin int, st RetrieveStats, ok bool) {
	return rt.begin(s, t, sc, endI, endJ, k, valueRows{k: k, match: sc.Match, pmax: endI})
}

// begin is Begin's sweep under the floor vr sets.
func (rt *Retriever) begin(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int, vr valueRows) (sBegin, tBegin int, st RetrieveStats, ok bool) {
	if checkEnd(s, t, sc, endI, endJ, k) != nil {
		return 0, 0, st, false
	}
	rt.values = vr
	p, q, st := rt.sweep(s, t, sc, endI, endJ, k, &rt.values)
	if p < 0 {
		return 0, 0, st, false
	}
	return endI - p + 1, endJ - q + 1, st, true
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
// scan on the lane ladder (swar.(*Aligner).ScanPair, Scan's score and
// end cell) finds the best score and its end coordinates, and
// ReverseRetrieve rebuilds the alignment in O(min(n,m) + n'²) space.
// This is the exact replacement for the full-matrix BestLocal on long
// sequences.
func BestLocalLinear(s, t bio.Sequence, sc bio.Scoring) (*Alignment, RetrieveStats, error) {
	var al swar.Aligner
	p, err := al.ScanPair(s, t, sc)
	if err != nil {
		return nil, RetrieveStats{}, err
	}
	if p.Score <= 0 {
		return nil, RetrieveStats{}, fmt.Errorf("align: no positive-score local alignment exists")
	}
	return ReverseRetrieve(s, t, sc, p.I, p.J, p.Score)
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
