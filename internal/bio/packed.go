package bio

// This file fixes the lane geometry of the lane-parallel
// ("inter-sequence") SWAR kernels in internal/swar: one uint64 word
// carries the running scores of several target sequences side by side —
// 8 unsigned int8 lanes or 4 unsigned int16 lanes — all advancing
// through their own target in lockstep against one shared query. Scoring
// many database sequences per word is the vectorization style of DSA (Xu
// et al.) and SWAPHI (Liu & Schmidt).
//
// The packed kernels work in unsigned *guard-bit* arithmetic: the top
// bit of every lane is kept free, so clean lane values stay ≤ 127
// (int8) or ≤ 32767 (int16), and the zero clamp of the local recurrence
// is the floor of a clamped subtract. A substitution score is therefore
// split into two non-negative magnitudes per lane:
//
//	plus:  Match   where the query residue matches the lane's target, else 0
//	minus: |Mismatch| where it does not match, else 0
//
// so that H = clamp(diag − minus) + plus reproduces
// max(0, diag + Substitution(...)) exactly — per lane, exactly one of
// plus/minus is nonzero — as long as no lane exceeds its clean cap
// (PackedCap8 or PackedCap16); a lane that does trips its guard bit and
// is retried wider by internal/swar. Under match/mismatch scoring the
// split is an equality test, so the kernels derive it in register from
// the group's interleaved code words (packedwords.go) and no per-group
// table is built. Lanes shorter than the group are padded with PadCode,
// which matches no query residue: the pad decays their scores to zero
// and can never raise a lane's running maximum.

// Lane geometry of the two packed widths.
const (
	// PackedLanes8 is the number of int8 lanes per uint64 word.
	PackedLanes8 = 8
	// PackedCap8 is the largest score a clean int8 lane can hold: the
	// lane's top bit is a guard bit, and a lane that ever sets it is
	// unreliable and must fall back to a wider kernel.
	PackedCap8 = 127
	// PackedLanes16 is the number of int16 lanes per uint64 word.
	PackedLanes16 = 4
	// PackedCap16 is the guard-bit cap of an int16 lane.
	PackedCap16 = 32767
)
