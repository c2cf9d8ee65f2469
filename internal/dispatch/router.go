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
	prof *Profile

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
// keyed by route label ("inter8", "inter16", "singles", "scalar").
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

// New builds a router in the given mode; a nil profile selects the
// committed default table, which is what every non-test caller passes.
func New(mode Mode, prof *Profile) *Router {
	if prof == nil {
		prof = DefaultProfile()
	}
	return &Router{mode: mode, prof: prof, counts: &routeCounts{}}
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

// stripedOverheadScale adjusts the striped families' per-call overhead
// for the actual query length: the dominant term is the striped profile
// build, which is linear in the query, and the probes measured it at
// probeLarge rows. Queries at or below the probe size keep the table's
// constant (the floor covers the length-independent call cost).
func stripedOverheadScale(qLen int) float64 {
	s := float64(qLen) / probeLarge
	if s < 1 {
		return 1
	}
	return s
}

// Pair picks the opening rung of a striped pairwise scan of an m-row
// query against an n-base target. expectScore, when positive, is a
// known lower bound on the final score (the search layer re-aligns hits
// whose score it already knows): a bound above a rung's clean cap
// proves that rung will saturate, so the ladder starts past it in every
// mode — that is a proof, not a tuned threshold.
func (r *Router) Pair(m, n int, sc bio.Scoring, expectScore int) PairRoute {
	route := r.pair(m, n, sc, expectScore)
	r.counts.pair[route].Add(1)
	return route
}

func (r *Router) pair(m, n int, sc bio.Scoring, expectScore int) PairRoute {
	if r.ForcePair != nil {
		if route, ok := r.ForcePair(m, n); ok {
			return route
		}
	}
	start := PairStriped8
	if expectScore > bio.PackedCap8 {
		start = PairStriped16
	}
	if expectScore > bio.PackedCap16 {
		start = PairScalar
	}
	if r.mode == ModeScalar {
		return PairScalar
	}
	if start == PairScalar {
		return start
	}
	// Tiny pairs: the striped profile build dominates the matrix; run
	// the scalar kernel when the table's cost model says it is cheaper.
	cells := float64(m) * float64(n)
	striped := r.prof.Stats(FamStriped8)
	if start == PairStriped16 {
		striped = r.prof.Stats(FamStriped16)
	}
	tStriped := striped.OverheadNS*stripedOverheadScale(m)/1e9 + cells/(striped.MCells*1e6)
	if r.prof.Stats(FamScalar).seconds(cells) < tStriped {
		return PairScalar
	}
	return start
}

// Band reports whether a pre-process band of the given height should
// run the striped band kernel (true) or the scalar column loop (false).
func (r *Router) Band(rows int) bool {
	if r.mode == ModeScalar {
		return false
	}
	if rows < bio.PackedLanes8 {
		// Fewer rows than lanes: the striped layout is mostly padding.
		return false
	}
	return r.prof.Stats(FamBand).MCells > r.prof.Stats(FamScalar).MCells
}
