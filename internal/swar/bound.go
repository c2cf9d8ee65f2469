package swar

import "genomedsm/internal/bio"

// This file holds the mid-scan early-abandon machinery of the search
// layer's ALAE-style exact pruning. A Bound threads a pruning threshold
// into the packed kernels: every cadence rows the kernel folds its
// running per-lane maximum, adds the query's remaining-suffix upper
// bound (bio.QueryBound) and abandons the scan when even that
// optimistic total is strictly below the threshold.
//
// Exactness: any local alignment of q against a lane either ends within
// the rows already scanned — its score is folded into the running
// maximum — or crosses row r, where its prefix value is a DP cell ≤ the
// running maximum and its remaining columns add at most SuffixBound(r).
// Either way score ≤ runningMax + SuffixBound(r), so when that sum is
// < Below for the maximum over all lanes, every lane is provably below
// the threshold. Saturated lanes are excluded as evidence (their
// running maximum is garbage); they ride the usual fallback ladder,
// where the wider retry gets its own chance to abandon.

// BlockRows is the one cadence of the kernels, in query rows. It is the
// abandon check cadence: rare enough that the fold and suffix lookup
// vanish against the row cost, frequent enough that an abandoned record
// wastes at most one cadence of rows past the provable cutoff. And it is
// the height of an end-row block: every rung of the ladder reports
// which block of BlockRows query rows holds the end row of a target's
// score (GroupResult.EndBlock), which the packed rungs find out at the
// same stop, and LocateEnd replays at most that many rows per hit.
//
// The trade-off is locate work against per-block work. A shorter block
// replays fewer rows per located hit, tests the abandon bound more
// often and resumes the int16 retry closer to its first guard bit; it
// pays one border-row copy once per block. On the benchmarks' 2-shard
// homolog batch LocateEnd and unpackLane, then run at every move of a
// lane, took 9.4 % and 3.0 % of the CPU at 32 rows, 4.9 % and 4.9 % at
// 16; on a 2-vCPU host mixed_batch_sharded lat_p50_ms read
// 9.13 ms at 16 against 9.58 ms at 32 (medians of ten alternated runs,
// 16 ahead in all ten), and no other workload told the two apart
// (EXPERIMENTS.md). It is a multiple of eight: the scan's eight-row pass
// never straddles a block.
const BlockRows = 16

// BlockOf returns the end-row block of the 1-based end row i (0 for the
// i = 0 of a zero score).
func BlockOf(i int) int { return max(i-1, 0) / BlockRows }

// Bound configures the optional mid-scan early abandon of a packed
// scan. The zero value — and a nil *Bound — disables it.
type Bound struct {
	// Below is the strict pruning threshold: the scan may be abandoned
	// once every lane's exact score is provably < Below. Ties are never
	// pruned, so callers can skip records strictly below a result floor
	// while records tying it keep their chance on the tie-break.
	Below int
	// Query supplies the remaining-suffix upper bounds: a
	// bio.QueryBound built from the same query sequence and scoring
	// scheme as the scan. A nil Query disables the bound.
	Query *bio.QueryBound
}

// floor returns the score a lane must reach to matter to the caller:
// Below under an active bound, 1 — any positive score — without one.
func (b *Bound) floor() int {
	if b.cadence() == 0 {
		return 1
	}
	return b.Below
}

// cadence returns the active check cadence, or 0 when the bound is
// disabled (nil receiver, no query bounds, or an unreachable
// threshold).
func (b *Bound) cadence() int {
	if b == nil || b.Query == nil || b.Below <= 0 {
		return 0
	}
	return BlockRows
}
