package align

import (
	"fmt"

	"genomedsm/internal/bio"
)

// Endpoint is a candidate local-alignment end position found by a linear
// scan: the cell (I, J) holds Score and no successor cell extends the
// alignment to an equal or better score.
type Endpoint struct {
	I, J  int // 1-based end coordinates in s and t
	Score int
}

// ScanOptions configures Scan.
type ScanOptions struct {
	// EndpointMinScore, when positive, collects endpoints with at least
	// this score.
	EndpointMinScore int
	// HitThreshold, when positive, counts matrix cells with score >= the
	// threshold — the "scoreboard of points of interest" kept by the
	// paper's pre-process strategy (§5).
	HitThreshold int
	// ForceScalar is ignored: Scan always runs the scalar kernel.
	//
	// Deprecated: only the bench module's layer pass still sets it; the
	// fast pairwise scan is swar.(*Aligner).ScanPair.
	ForceScalar bool
}

// ScanResult is the outcome of a linear-space Smith–Waterman scan.
type ScanResult struct {
	BestScore    int
	BestI, BestJ int // end coordinates of the best local alignment
	Endpoints    []Endpoint
	Hits         int64 // cells >= HitThreshold (0 when disabled)
	Cells        int64 // interior cells computed (= |s|·|t|)
}

// swRow advances one row of the zero-clamped local recurrence:
//
//	cur[j] = max(0, prev[j-1]+sub[j-1], cur[j-1]+gap, prev[j]+gap)
//
// for j = 1..len(sub), where sub is the precomputed profile row of the
// current residue. cur[0] must already hold the row's left border. It
// returns the row maximum and its column (0 when the row is all zero).
// The loop is the shared exact inner kernel: one int32 load per cell for
// the substitution score and conditional-move maxes, no per-cell calls
// or byte branches.
func swRow(prev, cur, sub []int32, gap int32) (best int32, bestJ int) {
	n := len(sub)
	d := prev[0]    // prev[j-1], carried across iterations
	w := cur[0]     // cur[j-1], carried across iterations
	prev = prev[1:] // prev[j] is now prev[j-1] after reslice
	out := cur[1:]  // out[j-1] is cur[j]
	_ = prev[n-1]   // bounds hints for the loop body
	_ = out[n-1]
	for j := 0; j < n; j++ {
		v := d + sub[j]
		v = bio.Max32(v, w+gap)
		d = prev[j]
		v = bio.Max32(v, d+gap)
		v = bio.Clamp0(v)
		out[j] = v
		w = v
		if v > best {
			best, bestJ = v, j+1
		}
	}
	return best, bestJ
}

// Scan runs the Smith–Waterman recurrence over s and t using two linear
// arrays (§4.1's space reduction, without the candidate heuristics, which
// live in the heuristics package). It is the first step of Section 6's
// Algorithm 1: detect where alignments of interest end, in O(min-row)
// space. The inner loop reads precomputed profile rows (bio.Profile), so
// the per-cell cost is pure int32 arithmetic. Scan is always scalar: it
// is the oracle the packed kernels are tested against, and the only scan
// that collects endpoints or counts hits. A plain best-score scan that
// needs speed runs swar.(*Aligner).ScanPair, which returns the same
// score and end cell.
func Scan(s, t bio.Sequence, sc bio.Scoring, opt ScanOptions) (*ScanResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	m, n := s.Len(), t.Len()
	res := &ScanResult{}
	if m == 0 || n == 0 {
		return res, nil
	}
	prof := bio.NewProfile(t, sc)
	gap := int32(sc.Gap)
	prev := make([]int32, n+1)
	cur := make([]int32, n+1)
	// The HitThreshold and endpoint features are paid for per row, not per
	// cell: the kernel row runs unconditionally and the optional passes run
	// over the finished row only when enabled.
	countHits := opt.HitThreshold > 0
	thr := int32(opt.HitThreshold)
	// next is needed only for endpoint detection (a cell is an endpoint
	// when none of its successors east/south/south-east improves on it);
	// we detect endpoints for row i-1 once row i is complete.
	var pendRow []int32
	pendIdx := 0
	collect := opt.EndpointMinScore > 0
	if collect {
		pendRow = make([]int32, n+1)
	}
	flushEndpoints := func(rowIdx int, row, next []int32) {
		for j := 1; j <= n; j++ {
			v := row[j]
			if int(v) < opt.EndpointMinScore {
				continue
			}
			east := int32(0)
			if j < n {
				east = row[j+1]
			}
			south, diag := next[j], int32(0)
			if j < n {
				diag = next[j+1]
			}
			if v > east && v > south && v > diag {
				res.Endpoints = append(res.Endpoints, Endpoint{I: rowIdx, J: j, Score: int(v)})
			}
		}
	}
	var best int32
	for i := 1; i <= m; i++ {
		cur[0] = 0
		rowBest, rowJ := swRow(prev, cur, prof.Row(s[i-1]), gap)
		if rowBest > best {
			best = rowBest
			res.BestScore, res.BestI, res.BestJ = int(rowBest), i, rowJ
		}
		if countHits {
			for j := 1; j <= n; j++ {
				if cur[j] >= thr {
					res.Hits++
				}
			}
		}
		res.Cells += int64(n)
		if collect {
			if i > 1 {
				flushEndpoints(pendIdx, pendRow, cur)
			}
			copy(pendRow, cur)
			pendIdx = i
		}
		prev, cur = cur, prev
	}
	if collect {
		// The last row has no successors; every qualifying cell that beats
		// its east neighbour is an endpoint. cur (the retired write buffer)
		// is cleared in place and reused as the all-zero successor row
		// instead of allocating a fresh one.
		clear(cur)
		flushEndpoints(pendIdx, pendRow, cur)
	}
	return res, nil
}

// Sim returns sim(s, t), the best local-alignment score, in linear space.
func Sim(s, t bio.Sequence, sc bio.Scoring) (int, error) {
	r, err := Scan(s, t, sc, ScanOptions{})
	if err != nil {
		return 0, err
	}
	return r.BestScore, nil
}

// ColumnScan computes the exact similarity column A[0..m][j] for every j
// and hands each finished column to visit (which must not retain the
// slice). It is the column-oriented kernel the pre-process strategy (§5)
// distributes over bands; kept here so tests can compare the distributed
// runs against a trusted sequential implementation. It shares the swRow
// profile kernel with Scan, with the roles of s and t swapped: the
// profile is built over s and one profile row per column character is
// consumed.
func ColumnScan(s, t bio.Sequence, sc bio.Scoring, visit func(j int, col []int32)) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	m, n := s.Len(), t.Len()
	if visit == nil {
		// Nothing observes the columns; the scan would be pure waste.
		return nil
	}
	prof := bio.NewProfile(s, sc)
	gap := int32(sc.Gap)
	prev := make([]int32, m+1)
	cur := make([]int32, m+1)
	visit(0, prev)
	for j := 1; j <= n; j++ {
		cur[0] = 0
		if m > 0 {
			swRow(prev, cur, prof.Row(t[j-1]), gap)
		}
		visit(j, cur)
		prev, cur = cur, prev
	}
	return nil
}

// String implements fmt.Stringer for quick debugging of scan results.
func (r *ScanResult) String() string {
	return fmt.Sprintf("best=%d at (%d,%d), %d endpoints, %d hits over %d cells",
		r.BestScore, r.BestI, r.BestJ, len(r.Endpoints), r.Hits, r.Cells)
}
