package align

import "genomedsm/internal/bio"

// BeginAnchored is Begin without its score-to-go floor: the same sweep
// under Theorem 6.2's pruning alone (the zero valueRows), which is what
// Begin computed before the floor. It is the oracle of
// FuzzBeginReachVsAnchored and the other arm of
// BenchmarkBeginReachVsAnchored.
func (rt *Retriever) BeginAnchored(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int) (sBegin, tBegin int, st RetrieveStats, ok bool) {
	return rt.begin(s, t, sc, endI, endJ, k, valueRows{})
}
