package dispatch

import "sync/atomic"

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

	// ForceGroup is a test hook: when non-nil it overrides the rule
	// entirely, letting the differential and fuzz suites steer the scan
	// down every ladder start rung to prove results are
	// routing-independent. Never set outside tests.
	ForceGroup func(qLen int, lens []int) (GroupRoute, bool)
}

// routeCounts holds per-route decision tallies, indexed by route value.
type routeCounts struct {
	group [GroupScalar + 1]atomic.Int64
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

// PairCounts returns an empty map: no pairwise scan is routed.
//
// Deprecated: only the bench module's layer pass still reads it, for
// its dispatch.pair_share rows; the pairwise scan is
// swar.(*Aligner).ScanPair, which takes no route.
func (r *Router) PairCounts() map[string]int64 { return map[string]int64{} }

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
