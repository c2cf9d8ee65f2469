package swar

import "genomedsm/internal/bio"

// Rung names the rung a Ladder call starts at. The search layer's
// router derives it from the routing mode (the test hooks aside); it is
// never a user option.
type Rung int

const (
	// RungInter8 starts with one int8 word-pass over the whole group.
	RungInter8 Rung = iota
	// RungInter16 starts with int16 word-passes over subgroups of 4.
	RungInter16
	// RungSingles sends every target down its own striped ladder.
	RungSingles
	// RungScalar sends every target to the exact scalar kernel.
	RungScalar
)

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
	// target, packed or pairwise, reports the same block.
	EndBlock [bio.PackedLanes8]int
	// EndI and EndJ are align.Scan's (BestI, BestJ) for the targets a
	// pairwise rung resolved — the striped ladder and the scalar kernel
	// track the end cell anyway — and zero for every other target.
	EndI, EndJ [bio.PackedLanes8]int
	// Seeded is the bitmask of targets a packed rung resolved with a
	// positive score and whose border row it saved: Aligner.Seed(i) is
	// the H row entering EndBlock[i], from which LocateEnd finds the cell
	// the pairwise rungs report directly. Under a Bound, a packed target
	// scoring below Below is neither pruned nor Seeded: it cannot enter a
	// result and nothing was saved for it.
	Seeded uint8
	// Pruned is the bitmask of targets whose exact score is provably
	// below the bound's Below threshold.
	Pruned uint8
	// Padded counts the cells the rungs actually computed: lane width ×
	// padded length × rows for the packed passes, target length (padded
	// to full striped words) × rows for the pairwise ones.
	Padded int64
}

// Ladder scores q against one lane group of at most PackedLanes8
// targets down the int8 → int16 → scalar fallback ladder, entered at
// start: flagged int8 lanes retry in int16 subgroups of 4, lanes still
// flagged go to the scalar kernel, and a rung that refuses the scoring
// scheme falls through to the next. Under a non-nil Bound every rung
// may abandon: an abandoned pass marks all its lanes pruned and stops.
// prof, when non-nil, is the group's prebuilt int8 profile (see scan);
// nil builds it per call. Every unpruned score is exact whatever the
// starting rung, so start only ever changes the cost.
func (a *Aligner) Ladder(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, start Rung, ab *Bound, prof *bio.PackedProfile) GroupResult {
	var res GroupResult
	for i := range targets {
		res.Rows[i] = len(q)
	}
	all := uint8(1)<<uint(len(targets)) - 1
	switch start {
	case RungInter8:
		if prof == nil {
			prof = bio.NewPackedProfile8(targets, sc)
		}
		ls, ok := a.scan(q, prof, sc, len(targets), ab)
		if !ok {
			// Scoring magnitudes do not fit int8 lanes at all.
			a.inter16(&res, q, targets, sc, ab, all)
			break
		}
		res.Padded += int64(bio.PackedLanes8) * int64(prof.Words()) * int64(ls.Rows)
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
			a.inter16(&res, q, targets, sc, ab, ls.Saturated)
		}
	case RungInter16:
		a.inter16(&res, q, targets, sc, ab, all)
	case RungSingles:
		for i, t := range targets {
			p, rows, pruned := a.StripedScoreBounded(q, t, sc, ab)
			res.set(i, p, rows, pruned)
			// The striped layout pads the target to full words of 8 lanes.
			padded := (len(t) + bio.PackedLanes8 - 1) / bio.PackedLanes8 * bio.PackedLanes8
			res.Padded += int64(padded) * int64(rows)
		}
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

// set records target i's outcome from a pairwise rung, which knows the
// exact end cell (a zero Pair when pruned or scoreless).
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
// scheme) dropping to the scalar rung.
func (a *Aligner) inter16(res *GroupResult, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, ab *Bound, mask uint8) {
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
		for l, i := range sub {
			group[l] = targets[i]
		}
		prof := bio.NewPackedProfile16(group[:len(sub)], sc)
		ls, ok := a.scan(q, prof, sc, len(sub), ab)
		if ok {
			res.Padded += int64(bio.PackedLanes16) * int64(prof.Words()) * int64(ls.Rows)
		}
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
