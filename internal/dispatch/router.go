package dispatch

import (
	"sync/atomic"

	"genomedsm/internal/bio"
)

// Router turns the routing rule into per-workload kernel decisions. A
// Router is immutable after construction (the test hooks excepted) and
// safe for concurrent use.
type Router struct {
	mode Mode

	// counts tallies routing decisions over the router's lifetime.
	// Counters are atomics behind a pointer, so counting does not break
	// the immutability contract: a resident server shares one router
	// across every request and reads the tallies for its /statsz
	// endpoint. Counts observe scheduling, never influence routing.
	counts *routeCounts

	// ForceGroup and ForcePair are test hooks: when non-nil they
	// override the rule entirely, letting the differential and fuzz
	// suites steer the scan down every ladder start rung to prove
	// results are routing-independent. Never set outside tests.
	ForceGroup func(qLen int, lens []int) (GroupRoute, bool)
	ForcePair  func(m, n int) (PairRoute, bool)
}

// routeCounts holds per-route decision tallies, indexed by route value.
type routeCounts struct {
	group [GroupScalar + 1]atomic.Int64
	pair  [PairScalar + 1]atomic.Int64
}

// GroupCounts returns the lane-group routing decisions taken so far,
// keyed by route label ("inter8", "inter16", "scalar").
// Routes never taken are omitted.
func (r *Router) GroupCounts() map[string]int64 {
	out := make(map[string]int64)
	for route := GroupInter8; route <= GroupScalar; route++ {
		if n := r.counts.group[route].Load(); n > 0 {
			out[route.String()] = n
		}
	}
	return out
}

// PairCounts returns the pairwise routing decisions taken so far, keyed
// by route label ("striped8", "striped16", "scalar"). Routes never
// taken are omitted.
func (r *Router) PairCounts() map[string]int64 {
	out := make(map[string]int64)
	for route := PairStriped8; route <= PairScalar; route++ {
		if n := r.counts.pair[route].Load(); n > 0 {
			out[route.String()] = n
		}
	}
	return out
}

// New builds a router in the given mode. The second argument is
// ignored: routing reads no kernel table.
func New(mode Mode, _ *Profile) *Router {
	return &Router{mode: mode, counts: &routeCounts{}}
}

// Mode returns the router's mode.
func (r *Router) Mode() Mode { return r.mode }

// Group picks the scan route for one lane group: qLen is the query
// length and lens the group's record lengths. Every group starts on the
// int8 ladder (scalar in ModeScalar), whatever its shape: a lane that
// saturates costs one narrow pass before its int16 retry.
func (r *Router) Group(qLen int, lens []int) GroupRoute {
	route := r.group(qLen, lens)
	r.counts.group[route].Add(1)
	return route
}

func (r *Router) group(qLen int, lens []int) GroupRoute {
	if r.ForceGroup != nil {
		if route, ok := r.ForceGroup(qLen, lens); ok {
			return route
		}
	}
	if r.mode == ModeScalar {
		return GroupScalar
	}
	return GroupInter8
}

// stripedMinCells is the matrix size, in cells, from which a pairwise
// scan enters the striped ladder; a smaller pair runs the scalar kernel,
// whose whole cost there is below the striped profile build. It is the
// crossover of the retired kernel table (scalar 360 Mcells/s + 2.5 µs a
// call, striped8 1200 Mcells/s + 5 µs), fixed as one constant.
const stripedMinCells = 1286

// Pair picks the opening rung of a striped pairwise scan of an m-row
// query against an n-base target. expectScore, when positive, is a
// known lower bound on the final score (the search layer re-aligns hits
// whose score it already knows): a bound above a rung's clean cap
// proves that rung will saturate, so the ladder starts past it in every
// mode — that is a proof, not a tuned threshold. A pair of fewer than
// stripedMinCells cells runs the scalar kernel.
func (r *Router) Pair(m, n, expectScore int) PairRoute {
	route := r.pair(m, n, expectScore)
	r.counts.pair[route].Add(1)
	return route
}

func (r *Router) pair(m, n, expectScore int) PairRoute {
	if r.ForcePair != nil {
		if route, ok := r.ForcePair(m, n); ok {
			return route
		}
	}
	switch {
	case r.mode == ModeScalar, expectScore > bio.PackedCap16, m*n < stripedMinCells:
		return PairScalar
	case expectScore > bio.PackedCap8:
		return PairStriped16
	}
	return PairStriped8
}

// Band reports whether a pre-process band of the given height should
// run the striped band kernel (true) or the scalar column loop (false):
// a band of fewer rows than int8 lanes would be mostly padding.
func (r *Router) Band(rows int) bool {
	return r.mode != ModeScalar && rows >= bio.PackedLanes8
}
