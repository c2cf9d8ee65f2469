package swar

import (
	"math/bits"

	"genomedsm/internal/bio"
)

// A LocateItem is one call of LocateEnd in a LocateLanes batch: its
// arguments, and once the batch has run, its results.
type LocateItem struct {
	Q, T  bio.Sequence
	Block int
	Seed  []uint16
	Score int
	// EndI, EndJ and OK are what LocateEnd returns for the arguments.
	EndI, EndJ int
	OK         bool
}

// LocateLanes runs LocateEnd on every item and fills in its results:
// exactly LocateEnd's (endI, endJ, ok). Items run in lane passes of up
// to BeginLanes, one end block per int16 lane of BeginRow, in the order
// given; an item that may not fit a lane — a score of LaneMax or more, a
// Match above LaneMax, a seed value outside the int16 range, or
// arguments LocateEnd refuses — and every item on a host without the
// lane kernel run LocateEnd itself. It returns how many items ran in
// lanes. Steady-state passes allocate nothing.
//
// A pass replays the end blocks of all its lanes at once: row r of the
// pass is row r of every lane's block, lane l's query row
// Block·BlockRows+r+1 against its own target, from its own seed. The
// kernel runs the zero-clamped local recurrence (LaneRow.Clamp 0, the
// floor 0, so no cell of a lane's own columns dies) over every column of
// the longest target still running; a column past a lane's own target
// has a dead code, so its cells there are dead. A lane stops at the
// first row whose maximum reaches its score (BeginRow's reach mask) or
// at the end of its block or query, and takes the floor LaneStopped
// from then on; a row that reaches the score is its end row unless it
// exceeds it (the over mask), and its column is then found by one scan
// of the lane up to the first column holding the score.
//
// Exactness: every cell of a row whose maximum is below the score is
// below LaneMax, so the lane holds it exactly, as it holds the seed. The
// first row reaching the score is computed from such a row: a cell the
// kernel holds exactly equals the score where LocateEnd's row does, and
// one it caps (a true value above LaneMax, saturated or not) reads at
// least LaneMax, above the score, as LocateEnd's exceeds it. A penalty
// the lanes clamp to the int16 range only changes candidates that are
// negative either way, below the zero clamp. So each lane stops at
// LocateEnd's row with LocateEnd's verdict, and the first column
// holding the score is LocateEnd's firstCol.
func (a *Aligner) LocateLanes(sc bio.Scoring, items []LocateItem) (laned int) {
	var pass [BeginLanes]int // the pass's items, by index
	n := 0
	for i := range items {
		it := &items[i]
		if !locateFits(sc, it) {
			it.EndI, it.EndJ, it.OK = a.LocateEnd(it.Q, it.T, sc, it.Block, it.Seed, it.Score)
			continue
		}
		pass[n] = i
		if n++; n == BeginLanes {
			laned += a.locatePass(sc, items, pass[:n])
			n = 0
		}
	}
	if n > 0 {
		laned += a.locatePass(sc, items, pass[:n])
	}
	return laned
}

// locateFits reports whether LocateEnd on it may run in a lane: on a
// host with the lane kernel, with arguments LocateEnd accepts, a score
// below LaneMax — so a capped cell reads above it — and a Match a lane
// holds. The seed's range is checked as the pass copies it.
func locateFits(sc bio.Scoring, it *LocateItem) bool {
	n := len(it.T)
	if !hasAVX2 || it.Block < 0 || it.Block*BlockRows >= len(it.Q) || n == 0 || it.Score <= 0 || len(it.Seed) != min(it.Block, 1)*n {
		return false
	}
	return it.Score < LaneMax && sc.Match <= LaneMax
}

// locateScratch is the storage of LocateLanes's passes that the
// Aligner keeps for them alone: the zero seed of a first block and the
// row operands. The rows themselves are borrowed (locateRows).
type locateScratch struct {
	zero []uint16
	row  LaneRow
}

// locateRows lends a locate pass its two rolling rows and its code
// columns, words words each (BeginRow's layout, four words per column),
// from the scan buffers that sit idle between Ladder calls: the packed
// row and two border-row copies. So a pooled Aligner holds one set of
// rows for both jobs, and a scan regrows nothing a pass has grown. A
// seed is a []uint16, so no LocateItem.Seed aliases them.
func (a *Aligner) locateRows(words int) (prev, cur, codes []uint64) {
	for _, b := range [...]*[]uint64{&a.row, &a.borders[0], &a.borders[1]} {
		if cap(*b) < words {
			*b = make([]uint64, words)
		}
		*b = (*b)[:words]
	}
	return a.row, a.borders[0], a.borders[1]
}

// locatePass replays the end blocks of up to BeginLanes admitted items,
// those of all whose indices pass holds, as one pass (see LocateLanes)
// and returns how many ran in lanes: all but those whose seed holds a
// value outside the int16 range, which run LocateEnd. Lane l is item
// pass[l].
func (a *Aligner) locatePass(sc bio.Scoring, all []LocateItem, pass []int) int {
	ls := &a.locate
	var lanes [BeginLanes]*LocateItem
	for l, i := range pass {
		lanes[l] = &all[i]
	}
	items := lanes[:len(pass)]
	row := &ls.row
	row.SetScoring(sc)
	cols, rows := 0, 0
	for l := range BeginLanes {
		row.Floor[l], row.Reach[l], row.Clamp[l] = LaneStopped, LaneStopped, 0
	}
	for l, it := range items {
		row.Floor[l], row.Reach[l] = 0, int16(it.Score-1)
		it.EndI, it.EndJ, it.OK = 0, 0, false
		cols = max(cols, len(it.T))
		rows = max(rows, min(BlockRows, len(it.Q)-it.Block*BlockRows))
	}
	prev, cur, codes := a.locateRows(4 * (cols + 2))
	if len(ls.zero) < cols {
		ls.zero = make([]uint16, cols)
	}
	wide := ls.fill(prev, codes, items, cols)
	running := (uint32(1)<<len(items) - 1) &^ wide
	for m := wide; m != 0; m &= m - 1 {
		row.Floor[bits.TrailingZeros32(m)] = LaneStopped
	}
	for r := 0; r < rows && running != 0; r++ {
		for m := running; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			it := items[l]
			if i := it.Block*BlockRows + r; i < len(it.Q) {
				row.Query[l] = LaneQuery(it.Q[i])
			} else {
				running &^= 1 << l // the query ended inside the block
				row.Floor[l] = LaneStopped
			}
		}
		if running == 0 {
			break
		}
		_, reach, over := BeginRow(prev, cur, codes, row, 1, cols, cols)
		if reach &= running; reach != 0 {
			// A row reaching the score is the end row unless it exceeds it.
			for m := reach &^ over; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				it := items[l]
				it.EndI, it.EndJ, it.OK = it.Block*BlockRows+r+1, scoreCol(cur, l, it.Score), true
			}
			for m := reach; m != 0; m &= m - 1 {
				row.Floor[bits.TrailingZeros32(m)] = LaneStopped
			}
			// The lanes left read no column past the longest of their targets.
			running &^= reach
			cols = 0
			for m := running; m != 0; m &= m - 1 {
				cols = max(cols, len(items[bits.TrailingZeros32(m)].T))
			}
		}
		prev, cur = cur, prev
	}
	for m := wide; m != 0; m &= m - 1 {
		it := items[bits.TrailingZeros32(m)]
		it.EndI, it.EndJ, it.OK = a.LocateEnd(it.Q, it.T, sc, it.Block, it.Seed, it.Score)
	}
	return len(items) - bits.OnesCount32(wide)
}

// fill writes row 0 of a pass into prev — each lane's seed behind the
// zero border column — and its code columns 1…cols into codes, four
// lanes to a word: a lane's target codes and seed, dead past its own
// target. Lanes past the pass's items are left as they are, whatever a
// scan or an earlier pass left there — their floor, LaneStopped, kills
// every cell they compute — and so is a word that holds none of the
// items. A word's columns go in runs over which its set of live lanes
// stays the same, up to the shortest target among them:
// eight columns at a time through fillLanes' unpacks, the last few a
// word at a time here. It returns the lanes whose seed holds a value
// outside the int16 range.
func (ls *locateScratch) fill(prev, codes []uint64, items []*LocateItem, cols int) (wide uint32) {
	clear(prev[:4])
	for g := range (len(items) + 3) / 4 {
		var t [4]bio.Sequence
		var seed [4][]uint16
		for k := range 4 {
			if l := 4*g + k; l < len(items) {
				t[k], seed[k] = items[l].T, items[l].Seed
				if len(seed[k]) == 0 {
					seed[k] = ls.zero[:len(t[k])]
				}
			}
		}
		var or uint64 // every seed value of the word's lanes, ORed
		from := 0     // the columns written
		for {
			// The lanes holding column from+1, and the columns they all hold.
			live, short, first := uint64(0), cols, -1
			for k := range 4 {
				if len(t[k]) > from {
					live |= 0xFFFF << (16 * k)
					short = min(short, len(t[k]))
					if first < 0 {
						first = k
					}
				}
			}
			if live == 0 {
				break
			}
			// A dead lane reads the first live lane's bases and seed, masked.
			var tp [4]*byte
			var sp [4]*uint16
			for k := range 4 {
				src := k
				if live>>(16*k)&1 == 0 {
					src = first
				}
				tp[k], sp[k] = &t[src][from], &seed[src][from]
			}
			dead := LaneDeadWord &^ live
			fast := from + (short-from)&^7
			if fast > from {
				or |= fillLanes(codes, prev, g, from, &tp, &sp, fast-from, live, dead)
			}
			for q := fast + 1; q <= short; q++ {
				cw, sw := uint64(0), uint64(0)
				for k := range 4 {
					if live>>(16*k)&1 != 0 {
						cw |= uint64(uint16(laneCodes.target[t[k][q-1]])) << (16 * k)
						sw |= uint64(seed[k][q-1]) << (16 * k)
					}
				}
				codes[4*q+g], prev[4*q+g] = cw|dead, sw|dead
				or |= sw
			}
			from = short
		}
		for q := from + 1; q <= cols; q++ {
			codes[4*q+g], prev[4*q+g] = LaneDeadWord, LaneDeadWord
		}
		for k := range 4 {
			if or>>(16*k+15)&1 != 0 {
				wide |= 1 << (4*g + k)
			}
		}
	}
	return wide
}

// scoreCol returns the first column of lane l of a row, one whose
// maximum is score, that holds score. Columns are read four to a step,
// one branch per step; none before that column holds as much, and a
// step may read past the lane's own columns only once it holds it.
func scoreCol(row []uint64, l, score int) int {
	shift, k := 16*uint(l%4), int16(score)
	lane := row[4+l/4:] // column q at 4(q−1)
	w := 0
	for ; w+12 < len(lane); w += 16 {
		v3 := int16(lane[w+12] >> shift)
		v0, v1, v2 := int16(lane[w]>>shift), int16(lane[w+4]>>shift), int16(lane[w+8]>>shift)
		if max(v0, v1, v2, v3) >= k {
			break
		}
	}
	for ; int16(lane[w]>>shift) != k; w += 4 {
	}
	return w/4 + 1
}
