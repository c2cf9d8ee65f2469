package align

import (
	"math/bits"

	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// A BeginItem is one call of Begin in a BeginLanes batch: its arguments,
// and once the batch has run, its results.
type BeginItem struct {
	S, T       bio.Sequence
	EndI, EndJ int
	K          int
	// SBegin, TBegin and OK are what Begin returns for the arguments.
	SBegin, TBegin int
	OK             bool
}

// BeginLanes runs Begin on every item and fills in its results: exactly
// Begin's (sBegin, tBegin, ok), ties included. Items run in lane passes
// of up to swar.BeginLanes, one sweep per int16 lane of swar.BeginRow,
// in the order given; an item whose cells may not fit a lane — from
// Match·min(EndI, EndJ) or K above swar.LaneMax, or arguments Begin
// refuses — and every item on a host without the lane kernel run
// Begin itself. It returns how many items ran in lanes. Steady-state
// passes allocate nothing.
//
// A pass is Begin's sweep (sweep, under valueRows's floor) run for all
// its lanes at once: row p of the pass is row p of every lane, and it
// evaluates the union of the lanes' live windows, then the west chain
// while any lane's chain is live. Each lane keeps its own floor, its
// own best cell and its own stop rule; a lane past its own EndI, or
// stopped, gets the floor swar.LaneStopped, and a column past its own
// EndJ a dead code, so its cells there are dead, not merely mismatched.
//
// Exactness: in every lane, every column a row holds is either the
// value Begin's sweep gives that cell or dead, and dead exactly where
// the sweep leaves it out or kills it. By induction on rows: the union
// window holds the lane's own one, and a cell outside the lane's own
// window has only dead predecessors in that lane — the sweep leaves a
// cell out only when its north, diagonal and west are dead — and
// computing a dead cell again only yields a dead cell. So the extra
// cells of the union change no live value, and each lane's first cell
// reaching K in each row, and with it the begin cell, its tie-break and
// ok, are Begin's.
func (rt *Retriever) BeginLanes(sc bio.Scoring, items []BeginItem) (laned int) {
	ls := &rt.lanes
	pass := ls.pass[:0]
	for i := range items {
		it := &items[i]
		if !laneFits(sc, it) {
			it.SBegin, it.TBegin, _, it.OK = rt.Begin(it.S, it.T, sc, it.EndI, it.EndJ, it.K)
			continue
		}
		if pass = append(pass, it); len(pass) == swar.BeginLanes {
			rt.lanePass(sc, pass)
			laned += len(pass)
			pass = pass[:0]
		}
	}
	if len(pass) > 0 {
		rt.lanePass(sc, pass)
		laned += len(pass)
	}
	clear(pass[:cap(pass)]) // keep no sequence alive past the call
	ls.pass = pass[:0]
	return laned
}

// laneFits reports whether Begin on it may run in a lane: on a host
// with the lane kernel, with arguments Begin accepts, whose cells —
// each at most Match·min(EndI, EndJ) — and score fit under
// swar.LaneMax.
func laneFits(sc bio.Scoring, it *BeginItem) bool {
	if !swar.HasBeginRow() || checkEnd(it.S, it.T, sc, it.EndI, it.EndJ, it.K) != nil {
		return false
	}
	return sc.Match <= swar.LaneMax/min(it.EndI, it.EndJ) && it.K <= swar.LaneMax
}

// laneScratch is the storage of BeginLanes's passes, kept by the
// Retriever: the two rolling rows and the code columns, four words per
// column (swar.BeginRow's layout), the row operands and one pass's
// per-lane sweep state.
type laneScratch struct {
	prev, cur, codes []uint64
	row              swar.LaneRow
	pass             []*BeginItem
	// Lane l's reversed prefixes end at s[endI], t[endJ]; fl is
	// k − match·(endI − p), its floor in row p before the max with 1;
	// bestP, bestQ and bestSum are its best cell so far, as sweep keeps
	// it.
	s, t                  [swar.BeginLanes]bio.Sequence
	endI, endJ, k, fl     [swar.BeginLanes]int
	bestP, bestQ, bestSum [swar.BeginLanes]int
}

// lanePass runs the sweeps of up to swar.BeginLanes admitted items as
// one pass; see BeginLanes.
func (rt *Retriever) lanePass(sc bio.Scoring, items []*BeginItem) {
	ls := &rt.lanes
	row := &ls.row
	row.SetScoring(sc)
	match, gap := sc.Match, -max(sc.Gap, swar.LaneDead)
	n, qmax := len(items), 0
	for l := range swar.BeginLanes {
		row.Floor[l], row.Reach[l], row.Clamp[l] = swar.LaneStopped, swar.LaneStopped, swar.LaneDead
	}
	for l, it := range items {
		ls.s[l], ls.t[l] = it.S, it.T
		ls.endI[l], ls.endJ[l], ls.k[l] = it.EndI, it.EndJ, it.K
		ls.fl[l] = it.K - match*it.EndI
		ls.bestP[l], ls.bestQ[l], ls.bestSum[l] = -1, -1, 1<<30
		row.Reach[l] = int16(it.K - 1)
		qmax = max(qmax, it.EndJ)
	}
	words := 4 * (qmax + 2)
	if cap(ls.prev) < words {
		ls.prev, ls.cur, ls.codes = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	}
	prev, cur := ls.prev[:words], ls.cur[:words]
	// Row 0: the origin, 0 in every lane, then a dead column.
	for w := range 4 {
		prev[w], prev[4+w] = 0, swar.LaneDeadWord
	}
	built := 0                  // code columns 1…built are filled
	running := uint32(1)<<n - 1 // the lanes whose sweep goes on
	lo, hi := 0, 0
	for p := 1; ; p++ {
		for m := running; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			pos := ls.endI[l] - p
			if pos < 0 || ls.bestP[l] >= 0 && p+1 > ls.bestSum[l] {
				running &^= 1 << l
				row.Floor[l] = swar.LaneStopped
				continue
			}
			row.Query[l] = swar.LaneQuery(ls.s[l][pos])
			ls.fl[l] += match
			row.Floor[l] = int16(max(1, ls.fl[l]))
		}
		if running == 0 {
			break
		}
		lo = max(lo, 1)
		mid := min(hi+1, qmax)
		// A cell of row p is at most match·p, so the west chain past mid
		// dies within match·p/|gap| columns: the row reads no codes past
		// last. Columns are filled 32 or more at a time.
		last := min(qmax, mid+match*p/gap+1)
		if built < last {
			to := min(qmax, max(last, built+32))
			ls.fillCodes(n, built, to)
			built = to
		}
		end, hits, _ := swar.BeginRow(prev, cur, ls.codes, row, lo, mid, last)
		for m := running & hits; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			// The row's first column reaching k has its smallest p+q.
			for q := lo; q < end && p+q < ls.bestSum[l]; q++ {
				if laneValue(cur, q, l) >= ls.k[l] {
					ls.bestP[l], ls.bestQ[l], ls.bestSum[l] = p, q, p+q
					break
				}
			}
		}
		// Shrink the window to the columns live in some lane.
		liveLo, liveHi := lo, end-1
		for liveLo <= liveHi && deadColumn(cur, liveLo) {
			liveLo++
		}
		if liveLo > liveHi {
			break // every lane's row is dead
		}
		for deadColumn(cur, liveHi) {
			liveHi--
		}
		lo, hi = liveLo, liveHi
		prev, cur = cur, prev
	}
	for l, it := range items {
		it.SBegin, it.TBegin, it.OK = 0, 0, ls.bestP[l] >= 0
		if it.OK {
			it.SBegin, it.TBegin = it.EndI-ls.bestP[l]+1, it.EndJ-ls.bestQ[l]+1
		}
		ls.s[l], ls.t[l] = nil, nil
	}
}

// fillCodes fills code columns from+1…to of the first n lanes: each
// lane's target code, t[endJ−q] of its reversed prefix, or dead past
// its end; the lanes past n are dead. It builds each word, four lanes,
// in a register.
func (ls *laneScratch) fillCodes(n, from, to int) {
	for g := 0; g < swar.BeginLanes/4; g++ {
		lanes := min(4, n-4*g)
		for q := from + 1; q <= to; q++ {
			w := uint64(swar.LaneDeadWord)
			for k := range lanes {
				l := 4*g + k
				if endJ := ls.endJ[l]; q <= endJ {
					w = w&^(0xFFFF<<(16*k)) | uint64(uint16(swar.LaneTarget(ls.t[l][endJ-q])))<<(16*k)
				}
			}
			ls.codes[4*q+g] = w
		}
	}
}

// laneValue is lane l's value at column q of a row.
func laneValue(row []uint64, q, l int) int {
	return int(int16(row[4*q+l/4] >> (16 * uint(l%4))))
}

// deadColumn reports whether every lane of column q of a row is dead.
func deadColumn(row []uint64, q int) bool {
	c := row[4*q : 4*q+4]
	return c[0] == swar.LaneDeadWord && c[1] == swar.LaneDeadWord && c[2] == swar.LaneDeadWord && c[3] == swar.LaneDeadWord
}
