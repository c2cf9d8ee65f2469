package align

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// laneItems returns the Begin calls of every endpoint a scalar Scan of
// each pair reports from minScore up — final hits' cells and the cells
// that are not the first to hold their score (ok = false) alike.
func laneItems(t testing.TB, pairs [][2]bio.Sequence, sc bio.Scoring, minScore int) []BeginItem {
	t.Helper()
	var items []BeginItem
	for _, pr := range pairs {
		r, err := Scan(pr[0], pr[1], sc, ScanOptions{ForceScalar: true, EndpointMinScore: minScore})
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range r.Endpoints {
			items = append(items, BeginItem{S: pr[0], T: pr[1], EndI: ep.I, EndJ: ep.J, K: ep.Score})
		}
	}
	return items
}

// checkLanes runs items through BeginLanes and each through Begin, and
// fails on the first item whose results differ. It returns how many ran
// in lanes.
func checkLanes(t testing.TB, rt *Retriever, sc bio.Scoring, items []BeginItem) int {
	t.Helper()
	laned := rt.BeginLanes(sc, items)
	var oracle Retriever
	for i, it := range items {
		sb, tb, _, ok := oracle.Begin(it.S, it.T, sc, it.EndI, it.EndJ, it.K)
		if it.SBegin != sb || it.TBegin != tb || it.OK != ok {
			t.Fatalf("item %d (|s| %d, |t| %d, end (%d,%d), k %d): lanes (%d,%d) ok=%v, Begin (%d,%d) ok=%v",
				i, len(it.S), len(it.T), it.EndI, it.EndJ, it.K, it.SBegin, it.TBegin, it.OK, sb, tb, ok)
		}
	}
	return laned
}

// homologPairs returns n pairs whose targets hold a mutated copy of part
// of the query amid noise, with lengths drawn up to maxLen.
func homologPairs(g *bio.Generator, r *rand.Rand, n, maxLen int) [][2]bio.Sequence {
	var pairs [][2]bio.Sequence
	for range n {
		q := g.Random(1 + r.Intn(maxLen))
		lo := r.Intn(len(q))
		hi := lo + r.Intn(len(q)-lo) + 1
		core := g.MutatedCopy(q[lo:hi], bio.DefaultMutationModel())
		tt := append(append(g.Random(r.Intn(maxLen/4+1)), core...), g.Random(r.Intn(maxLen/4+1))...)
		pairs = append(pairs, [2]bio.Sequence{q, tt})
	}
	return pairs
}

// TestBeginLanesMatchesBegin pins BeginLanes to Begin on planted
// homologs of very different lengths under four scorings, whole passes
// and partly filled ones, every endpoint from score 3 up.
func TestBeginLanesMatchesBegin(t *testing.T) {
	schemes := []bio.Scoring{
		bio.DefaultScoring(),
		{Match: 1, Mismatch: -1, Gap: -1},
		{Match: 2, Mismatch: -3, Gap: -5},
		{Match: 5, Mismatch: -4, Gap: -3},
	}
	g := bio.NewGenerator(41)
	r := rand.New(rand.NewSource(41))
	var rt Retriever
	for si, sc := range schemes {
		for _, n := range []int{1, 7, 16, 40} {
			t.Run(fmt.Sprintf("scheme%d/pairs%d", si, n), func(t *testing.T) {
				items := laneItems(t, homologPairs(g, r, n, 300), sc, 3)
				laned := checkLanes(t, &rt, sc, items)
				if swar.HasBeginRow() && laned != len(items) {
					t.Errorf("%d of %d items ran in lanes, want all", laned, len(items))
				}
			})
		}
	}
}

// TestBeginLanesAdmissionEdge: an item runs in a lane exactly when
// Match·min(EndI, EndJ) and K are at most swar.LaneMax, and gives
// Begin's results either way — at the edge and one step past it.
func TestBeginLanesAdmissionEdge(t *testing.T) {
	if !swar.HasBeginRow() {
		t.Skip("no begin-row lane kernel on this host")
	}
	a := func(n int) bio.Sequence { return bio.Sequence(strings.Repeat("A", n)) }
	cases := []struct {
		name  string
		sc    bio.Scoring
		s, t  bio.Sequence
		k     int
		laned int
	}{
		{"one row at LaneMax", bio.Scoring{Match: swar.LaneMax, Mismatch: -1, Gap: -1}, a(1), a(3), swar.LaneMax, 1},
		{"one row past it", bio.Scoring{Match: swar.LaneMax + 1, Mismatch: -1, Gap: -1}, a(1), a(3), swar.LaneMax + 1, 0},
		{"16 rows at LaneMax", bio.Scoring{Match: 2047, Mismatch: -1, Gap: -1}, a(16), a(20), 16 * 2047, 1},
		{"17 rows past it", bio.Scoring{Match: 2047, Mismatch: -1, Gap: -1}, a(17), a(20), 17 * 2047, 0},
		{"k past LaneMax", bio.Scoring{Match: 1, Mismatch: -1, Gap: -1}, a(40), a(40), swar.LaneMax + 1, 0},
		{"gap below int16", bio.Scoring{Match: 2047, Mismatch: -40000, Gap: -40000}, a(16), a(16), 16 * 2047, 1},
	}
	var rt Retriever
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			items := []BeginItem{{S: c.s, T: c.t, EndI: len(c.s), EndJ: len(c.s), K: c.k}}
			if laned := checkLanes(t, &rt, c.sc, items); laned != c.laned {
				t.Errorf("%d items ran in lanes, want %d", laned, c.laned)
			}
		})
	}
}

// TestBeginLanesAllocs: once a Retriever has run passes of a size, more
// of them allocate nothing.
func TestBeginLanesAllocs(t *testing.T) {
	sc := bio.DefaultScoring()
	items := laneItems(t, homologPairs(bio.NewGenerator(5), rand.New(rand.NewSource(5)), 12, 300), sc, 8)
	var rt Retriever
	rt.BeginLanes(sc, items)
	if n := testing.AllocsPerRun(10, func() { rt.BeginLanes(sc, items) }); n != 0 {
		t.Errorf("BeginLanes: %.1f allocs per call of %d items, want 0", n, len(items))
	}
}
