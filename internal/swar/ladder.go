package swar

import (
	"fmt"

	"genomedsm/internal/bio"
)

// Rung names the rung a Ladder call starts at. The search layer's
// router derives it from the routing mode (the test hooks aside); it is
// never a user option.
type Rung int

const (
	// RungInter8 starts with one int8 word-pass over the whole group.
	RungInter8 Rung = iota
	// RungInter16 starts with int16 word-passes over subgroups of 4.
	RungInter16
	// RungScalar sends every target to the exact scalar kernel.
	RungScalar
)

// Pair is the outcome of one pairwise scan: the best local-alignment
// score and its 1-based end cell, bit-exact against align.Scan (the
// first cell, row-major, at which the running maximum reaches its final
// value; zero for a zero score).
type Pair struct {
	Score int
	I, J  int
}

// GroupResult is the outcome of one Ladder call. Only the entries of
// the group's targets are meaningful.
type GroupResult struct {
	// Scores holds each target's exact best local-alignment score,
	// bit-exact against align.Scan (0 and meaningless when pruned).
	Scores [bio.PackedLanes8]int
	// Rows is the number of query rows the rung that resolved each
	// target consumed: the full query length unless pruned.
	Rows [bio.PackedLanes8]int
	// EndBlock is, per unpruned target, the block of BlockRows query rows
	// holding the end row of its score: (BestI−1)/BlockRows for the BestI
	// align.Scan reports — the first row, row-major, at which the running
	// maximum reaches its final value — and 0 for a zero score. It is a
	// function of (q, target, scoring) alone: whichever rung resolved the
	// target, packed or scalar, reports the same block.
	EndBlock [bio.PackedLanes8]int
	// EndI and EndJ are align.Scan's (BestI, BestJ) for the targets the
	// scalar rung resolved — it tracks the end cell anyway — and zero for
	// every other target.
	EndI, EndJ [bio.PackedLanes8]int
	// Seeded is the bitmask of targets a packed rung resolved with a
	// positive score and whose border row it saved: Aligner.Seed(i) is
	// the H row entering EndBlock[i], from which LocateEnd finds the cell
	// the scalar rung reports directly. Under a Bound, a packed target
	// scoring below Below is neither pruned nor Seeded: it cannot enter a
	// result and nothing was saved for it.
	Seeded uint8
	// Pruned is the bitmask of targets whose exact score is provably
	// below the bound's Below threshold.
	Pruned uint8
	// Padded counts the cells the rungs actually computed: lane width ×
	// padded length × rows for the packed passes, target length × rows
	// for the scalar rung. An int16 retry resumed from the int8 pass's
	// border row counts its rows from that row, and the int8 pass only
	// the columns and rows it ran (see LaneScores.Padded).
	Padded int64
}

// Codes hands a Ladder call the code words its caller keeps across
// calls — a pack's layout words, or an interleave shared by the queries
// of a batch. Each method returns what the bio interleave returns for
// the targets it names, so provided words change the cost of a call,
// never its result; words whose count is not the longest target's are
// refused (the int8 rung then falls through to int16). The ladder only
// reads them, and they need stay unchanged only until the call that
// asked for them returns.
type Codes interface {
	// Int8 is bio.InterleaveWords8 over all the call's targets.
	Int8() []uint64
	// Int16 is bio.InterleaveWords16 over the call's targets whose bits
	// are set in lanes, in position order: at most PackedLanes16 of them.
	Int16(lanes uint8) []uint64
}

// Ladder scores q against one lane group of at most PackedLanes8
// targets down the int8 → int16 → scalar fallback ladder, entered at
// start: flagged int8 lanes retry in int16 subgroups of 4, resumed from
// the row entering the block of the int8 pass's first guard bit (the
// int8 pass itself narrows to its clean lanes' columns and stops once
// none is left), lanes still flagged go to the scalar kernel, and a
// rung that refuses the scoring scheme falls through to the next. Under
// a non-nil Bound every rung may abandon: an abandoned pass marks all
// its lanes pruned and stops.
// cw, when non-nil, supplies the code words; nil interleaves them per
// call. Every unpruned score is exact whatever the starting rung, so
// start only ever changes the cost.
func (a *Aligner) Ladder(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, start Rung, ab *Bound, cw Codes) GroupResult {
	var res GroupResult
	for i := range targets {
		res.Rows[i] = len(q)
	}
	all := uint8(1)<<uint(len(targets)) - 1
	switch start {
	case RungInter8:
		var codes []uint64
		if cw != nil {
			codes = cw.Int8()
		} else {
			a.codes = bio.InterleaveWords8(a.codes[:0], targets)
			codes = a.codes
		}
		var lens [bio.PackedLanes8]int
		longest := 0
		for i, t := range targets {
			lens[i] = len(t)
			longest = max(longest, len(t))
		}
		ls, ok := LaneScores{}, false
		if len(codes) == longest {
			// Words that do not cover the group they claim to describe — a
			// corrupt layout — must never score it.
			ls, ok = a.scan(q, codes, int8Lanes, sc, len(targets), ab, pass{lens: lens[:len(targets)]})
		}
		if !ok {
			// Scoring magnitudes do not fit int8 lanes, or the words were
			// refused.
			a.inter16(&res, q, targets, sc, ab, cw, all, 0)
			break
		}
		res.Padded += ls.Padded
		if ls.Pruned {
			for i := range targets {
				res.set(i, Pair{}, ls.Rows, true)
			}
			break
		}
		for l, t := range targets {
			a.packed(&res, &ls, l, l, len(t))
		}
		if ls.Saturated != 0 {
			a.inter16(&res, q, targets, sc, ab, cw, ls.Saturated, len(a.marks)*BlockRows)
		}
	case RungInter16:
		a.inter16(&res, q, targets, sc, ab, cw, all, 0)
	default:
		for i, t := range targets {
			a.scalar(&res, q, t, sc, ab, i)
		}
	}
	return res
}

// Seed returns the border row saved for target i of the last Ladder
// call: one H value per base of the target, empty when the end block is
// the first. It is meaningful only for a target that call reported
// Seeded, and valid until the next call.
func (a *Aligner) Seed(i int) []uint16 { return a.seed[i] }

// ScanPair is align.Scan's best-score scan of one pair on the lane
// ladder: t alone as a lane group entered at the int8 rung, without a
// bound, then the end cell — LocateEnd's replay of the end block from
// the border row a packed rung saved, or the scalar rung's own cell. It
// is the one fast pairwise forward scan (§6's first step); align.Scan
// stays the scalar oracle it is tested against. A replay that
// contradicts the ladder's score is an error, never a silent fallback:
// only a kernel bug can cause it.
func (a *Aligner) ScanPair(q, t bio.Sequence, sc bio.Scoring) (Pair, error) {
	if err := sc.Validate(); err != nil {
		return Pair{}, err
	}
	if len(q) == 0 || len(t) == 0 {
		return Pair{}, nil
	}
	one := [1]bio.Sequence{t}
	res := a.Ladder(q, one[:], sc, RungInter8, nil, nil)
	p := Pair{Score: res.Scores[0], I: res.EndI[0], J: res.EndJ[0]}
	ok := p.Score == 0 || p.J > 0
	if res.Seeded&1 != 0 {
		p.I, p.J, ok = a.LocateEnd(q, t, sc, res.EndBlock[0], a.Seed(0), p.Score)
	}
	if !ok {
		return Pair{}, fmt.Errorf("swar: ladder score %d disagrees with the exact replay of query rows %d..%d from the saved border row",
			p.Score, res.EndBlock[0]*BlockRows+1, min((res.EndBlock[0]+1)*BlockRows, len(q)))
	}
	return p, nil
}

// set records target i's outcome from the scalar rung, which knows the
// exact end cell, or a pruned target's (a zero Pair).
func (r *GroupResult) set(i int, p Pair, rows int, pruned bool) {
	r.Scores[i], r.EndBlock[i], r.Rows[i] = p.Score, BlockOf(p.I), rows
	r.EndI[i], r.EndJ[i] = p.I, p.J
	if pruned {
		r.Pruned |= 1 << uint(i)
	}
}

// packed records target i's outcome from lane l of a completed packed
// pass, taking over the lane's saved border row — by swapping buffers,
// so the seeds of the int8 pass survive the int16 retry of its flagged
// lanes — cut to the target's own n bases (the pass saves padded rows).
func (a *Aligner) packed(res *GroupResult, ls *LaneScores, i, l, n int) {
	res.Scores[i], res.EndBlock[i] = ls.Scores[l], ls.EndBlock[l]
	if ls.Seeded&(1<<uint(l)) != 0 {
		res.Seeded |= 1 << uint(i)
		a.seed[i], a.laneSeed[l] = a.laneSeed[l], a.seed[i]
		a.seed[i] = a.seed[i][:min(n, len(a.seed[i]))]
	}
}

// inter16 is the ladder's int16 rung: the targets named by mask, in
// subgroups of 4, with still-saturated lanes (or a refused scoring
// scheme, or refused words) dropping to the scalar rung from row 0.
// Each subgroup's code words come from cw when it is non-nil.
//
// from > 0 resumes the flagged lanes of the int8 pass just run at its
// resume point, query row from (see pass): each subgroup first replays
// the abandon tests a from-scratch pass would have made above from, then
// scans on from the widened resume row. Rows, prune decisions, scores,
// end blocks and seeds all equal a from-scratch retry's. Nothing above
// from is needed for the rest: a flagged lane's first guard bit is a
// diagonal term above 127 — a cell above its every earlier maximum — so
// the lane's maximum moves in that block or later, and its final end
// block and seed are both set by the resumed pass.
func (a *Aligner) inter16(res *GroupResult, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, ab *Bound, cw Codes, mask uint8, from int) {
	var idxs [bio.PackedLanes8]int
	n := 0
	for i := range targets {
		if mask&(1<<uint(i)) != 0 {
			idxs[n] = i
			n++
		}
	}
	var group [bio.PackedLanes16]bio.Sequence
	for lo := 0; lo < n; lo += bio.PackedLanes16 {
		sub := idxs[lo:min(lo+bio.PackedLanes16, n)]
		if from > 0 {
			if rows := a.abandoned(sub, ab); rows > 0 {
				for _, i := range sub {
					res.set(i, Pair{}, rows, true)
				}
				continue
			}
		}
		var codes []uint64
		longest := 0
		for _, i := range sub {
			longest = max(longest, len(targets[i]))
		}
		if cw != nil {
			var lanes uint8
			for _, i := range sub {
				lanes |= 1 << uint(i)
			}
			codes = cw.Int16(lanes)
		} else {
			for l, i := range sub {
				group[l] = targets[i]
			}
			a.codes = bio.InterleaveWords16(a.codes[:0], group[:len(sub)])
			codes = a.codes
		}
		ls, ok := LaneScores{}, false
		if len(codes) == longest {
			var p pass
			if from > 0 {
				p = pass{from: from, best: a.widen(sub, len(codes))}
			}
			ls, ok = a.scan(q, codes, int16Lanes, sc, len(sub), ab, p)
		}
		res.Padded += ls.Padded
		for l, i := range sub {
			switch {
			case !ok || ls.Saturated&(1<<uint(l)) != 0:
				a.scalar(res, q, targets[i], sc, ab, i)
			case ls.Pruned:
				res.set(i, Pair{}, ls.Rows, true)
			default:
				a.packed(res, &ls, i, l, len(targets[i]))
			}
		}
	}
}

// scalar is the ladder's last rung for target i: always succeeds, exact.
func (a *Aligner) scalar(res *GroupResult, q, t bio.Sequence, sc bio.Scoring, ab *Bound, i int) {
	p, rows, pruned := a.ScalarPair(q, t, sc, ab)
	res.set(i, p, rows, pruned)
	res.Padded += int64(len(t)) * int64(rows)
}
