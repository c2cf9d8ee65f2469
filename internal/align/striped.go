package align

import (
	"sync"

	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/swar"
)

// alignerPool shares striped row buffers between the concurrent Scan
// callers (search workers, realignment); a swar.Aligner is cheap but
// its buffers are worth keeping warm across the many short scans the
// top-K realignment phase issues.
var alignerPool = sync.Pool{New: func() any { return new(swar.Aligner) }}

// stripedScan runs the striped fallback ladder for a plain best-score
// scan, starting at the rung the router picked. ok=false means even the
// int16 lanes saturated (or the scoring scheme fits no packed layout)
// and the caller must run the scalar kernel. From the int8 rung, random
// pairs stay far below the cap and a saturating scan bails out at the
// first flagged row, so a doomed rung costs a small prefix of the
// matrix, not a full pass; a route starting at int16 skips even that
// prefix when saturation is proven.
func stripedScan(s, t bio.Sequence, sc bio.Scoring, route dispatch.PairRoute) (swar.Pair, bool) {
	al := alignerPool.Get().(*swar.Aligner)
	defer alignerPool.Put(al)
	if route == dispatch.PairStriped8 {
		if p, ok := al.StripedScan8(s, t, sc); ok {
			return p, true
		}
	}
	return al.StripedScan16(s, t, sc)
}
