package swar_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// The tests live in an external package (swar_test) because the
// differential oracles import align, which itself imports swar for
// ScanPair and the lane passes; guard-bit masks are restated here.
const (
	hi8  = 0x8080808080808080
	hi16 = 0x8000800080008000
)

// ---- SWAR primitive unit tests: packed ops vs per-lane reference loops ----

// refSubClamp8, refMaxClamped8 and their int16 twins are the primitives
// as they were before the two-row kernel: each builds its lane mask by
// multiplying the shifted-down guard bits. The shift-and-subtract forms
// that replaced them must return the same word for every word in.
func refSubClamp8(x, y uint64) uint64 {
	z := (x | hi8) - y
	m := ((z & hi8) >> 7) * 0xFF
	return (z &^ hi8) & m
}

func refMaxClamped8(x, y uint64) uint64 {
	z := (x | hi8) - y
	m := (((x | z) & hi8) >> 7) * 0xFF
	return (x & m) | (y &^ m)
}

func refSubClamp16(x, y uint64) uint64 {
	z := (x | hi16) - y
	m := ((z & hi16) >> 15) * 0xFFFF
	return (z &^ hi16) & m
}

func refMaxClamped16(x, y uint64) uint64 {
	z := (x | hi16) - y
	m := (((x | z) & hi16) >> 15) * 0xFFFF
	return (x & m) | (y &^ m)
}

// laneOps names the packed primitives of one lane width next to the
// retired forms they must equal.
type laneOps struct {
	bits                       uint // lane width: 8 or 16
	sub, max, kmax             func(x, y uint64) uint64
	refSub, refMax             func(x, y uint64) uint64
	subName, maxName, kmaxName string
}

var (
	ops8  = laneOps{8, swar.SubClamp8, swar.MaxClamped8, swar.Max8, refSubClamp8, refMaxClamped8, "SubClamp8", "MaxClamped8", "Max8"}
	ops16 = laneOps{16, swar.SubClamp16, swar.MaxClamped16, swar.Max16, refSubClamp16, refMaxClamped16, "SubClamp16", "MaxClamped16", "Max16"}
)

// check pins one (x, y) word pair, y lanes within the clean range: the
// primitives equal the retired forms word for word; SubClamp is the
// exact clamped subtract of clean x lanes and lands in the clean range
// for any x; MaxClamped is the exact unsigned maximum; and the in-kernel
// maximum is exact for clean x lanes and, for any x, a function of its
// own lane alone (no carry or borrow reaches a neighbour).
func (o laneOps) check(t *testing.T, x, y uint64) {
	t.Helper()
	sub, mx, kmax := o.sub(x, y), o.max(x, y), o.kmax(x, y)
	if want := o.refSub(x, y); sub != want {
		t.Fatalf("%s(%#x,%#x) = %#x, multiply form %#x", o.subName, x, y, sub, want)
	}
	if want := o.refMax(x, y); mx != want {
		t.Fatalf("%s(%#x,%#x) = %#x, multiply form %#x", o.maxName, x, y, mx, want)
	}
	mask := uint64(1)<<o.bits - 1
	clean := int(mask >> 1) // 127 or 32767
	for l := uint(0); l < 64/o.bits; l++ {
		xl := int(x >> (o.bits * l) & mask)
		yl := int(y >> (o.bits * l) & mask)
		sl := int(sub >> (o.bits * l) & mask)
		ml := int(mx >> (o.bits * l) & mask)
		kl := kmax >> (o.bits * l) & mask
		if sl > clean {
			t.Fatalf("%s(%#x,%#x) lane %d = %d escapes the clean range", o.subName, x, y, l, sl)
		}
		if xl <= clean && sl != max(0, xl-yl) {
			t.Fatalf("%s(%#x,%#x) lane %d = %d, want %d", o.subName, x, y, l, sl, max(0, xl-yl))
		}
		if ml != max(xl, yl) {
			t.Fatalf("%s(%#x,%#x) lane %d = %d, want %d", o.maxName, x, y, l, ml, max(xl, yl))
		}
		if xl <= clean && int(kl) != max(xl, yl) {
			t.Fatalf("%s(%#x,%#x) lane %d = %d, want %d", o.kmaxName, x, y, l, kl, max(xl, yl))
		}
		if alone := o.kmax(uint64(xl), uint64(yl)); kl != alone {
			t.Fatalf("%s(%#x,%#x) lane %d = %d, but %d with the lane on its own", o.kmaxName, x, y, l, kl, alone)
		}
	}
}

// TestClampPrimitives pins the guard-bit contracts of the packed ops
// (laneOps.check) exhaustively per lane: every (x, y) byte pair
// with y ≤ 127 in each of the 8 lane positions, between neighbours that
// are dirty (guard bit set) in x and at the penalty cap in y — the
// values most likely to leak a borrow or a carry — or on the borrow
// edge x|hi − y = 1; int16 lanes at their boundaries; and random words.
func TestClampPrimitives(t *testing.T) {
	const lanes8 = 0x0101010101010101
	for l := 0; l < 8; l++ {
		lane := uint64(0xFF) << (8 * l)
		for _, nb := range [][2]uint64{{0xFF * lanes8, 0x7F * lanes8}, {0x80 * lanes8, 0x7F * lanes8}, {0, 0}} {
			for x := uint64(0); x < 256; x++ {
				for y := uint64(0); y < 128; y++ {
					ops8.check(t, nb[0]&^lane|x<<(8*l), nb[1]&^lane|y<<(8*l))
				}
			}
		}
	}
	const lanes16 = 0x0001000100010001
	edgeX := []uint64{0, 1, 32766, 32767, 32768, 65535}
	edgeY := []uint64{0, 1, 32766, 32767}
	for l := 0; l < 4; l++ {
		lane := uint64(0xFFFF) << (16 * l)
		for _, nx := range edgeX {
			for _, ny := range edgeY {
				for _, x := range edgeX {
					for _, y := range edgeY {
						ops16.check(t, nx*lanes16&^lane|x<<(16*l), ny*lanes16&^lane|y<<(16*l))
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	base := []uint64{0, ^uint64(0), hi8, hi16, 0x00FF00FF00FF00FF,
		0x0101010101010101, ^uint64(hi8), ^uint64(hi16)}
	for i := 0; i < 1000; i++ {
		words := append(base[:len(base):len(base)], rng.Uint64(), rng.Uint64())
		for _, x := range words {
			for _, yr := range words {
				ops8.check(t, x, yr&^hi8) // penalty lanes stay ≤ 127 by contract
				ops16.check(t, x, yr&^hi16)
			}
		}
	}
}

// ---- Differential tests: packed lane scores vs the scalar align.Scan ----

// scalarScores is the reference: one scalar align.Scan per target.
func scalarScores(t *testing.T, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) []int {
	t.Helper()
	out := make([]int, len(targets))
	for i, tgt := range targets {
		r, err := align.Scan(q, tgt, sc, align.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r.BestScore
	}
	return out
}

var allRungs = []swar.Rung{swar.RungInter8, swar.RungInter16, swar.RungScalar}

// ladderCodes is the tests' swar.Codes: the int8 words of the call's
// targets, as a pack layout holds them, and each int16 subgroup's words
// memoised under its targets' positions in the whole test set (ids), so
// words built for one call serve every later call that holds the same
// targets, whatever else it holds — as search's groupProf serves the
// queries of a batch, whose stage-1 skips each keep a different subset
// of a group.
type ladderCodes struct {
	targets []bio.Sequence // the call's
	ids     []int          // their positions in the test set
	memo    map[[bio.PackedLanes16 + 1]int][]uint64
	reused  int // Int16 calls the memo answered
}

func newLadderCodes() *ladderCodes {
	return &ladderCodes{memo: map[[bio.PackedLanes16 + 1]int][]uint64{}}
}

func (p *ladderCodes) use(targets []bio.Sequence, ids []int) { p.targets, p.ids = targets, ids }

func (p *ladderCodes) Int8() []uint64 { return bio.InterleaveWords8(nil, p.targets) }

func (p *ladderCodes) Int16(lanes uint8) []uint64 {
	var key [bio.PackedLanes16 + 1]int
	var group []bio.Sequence
	for l, tgt := range p.targets {
		if lanes&(1<<uint(l)) != 0 {
			group = append(group, tgt)
			key[len(group)] = p.ids[l] + 1
		}
	}
	key[0] = len(group)
	if prof, ok := p.memo[key]; ok {
		p.reused++
		return prof
	}
	codes := bio.InterleaveWords16(nil, group)
	p.memo[key] = codes
	return codes
}

// checkLadder runs the one ladder over targets, cut into lane groups of
// 8, from every starting rung × {nil bound, live bound} × {per-call
// code words, provided ones (ladderCodes: the int8 words as a layout
// holds them, the int16 ones shared by every call)}. Every unpruned score must
// equal want with the full query consumed and report the end-row block
// of the scalar align.Scan's BestI; a lane may only be pruned
// under the live bound, and only when its true score is below it. And
// every unpruned target with a positive score must say where it ends:
// a pairwise rung by align.Scan's own (BestI, BestJ); a packed rung by
// a Seed that equals, cell for cell, the row entering the end block in
// the full scalar matrix, and from which LocateEnd finds that same
// cell. The one exception is a packed target scoring below the live
// bound, which must carry neither — and nothing pruned or scoreless is
// ever Seeded. A call with provided code words must also return the
// GroupResult and seeds of the same call without them, bit for bit, and
// so must calls on the subsets of a group that stage-1 skips leave
// (checkLadderSubsets). Every sweep runs on each of the host's kernel
// routes (swar.Routes): the AVX2 one where it runs, and the portable one
// a host without AVX2 takes. fail reports a mismatch.
func checkLadder(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, want []int, fail func(format string, args ...any)) {
	wantEnd := make([]swar.Pair, len(targets))
	matrix := make([]*align.Matrix, len(targets))
	for i, tgt := range targets {
		r, err := align.Scan(q, tgt, sc, align.ScanOptions{})
		if err != nil {
			fail("target %d: %v", i, err)
			return
		}
		wantEnd[i] = swar.Pair{Score: r.BestScore, I: r.BestI, J: r.BestJ}
		if matrix[i], err = align.NewSWMatrix(q, tgt, sc); err != nil {
			fail("target %d: %v", i, err)
			return
		}
	}
	// Half the best score: a bound that some lanes clear and some do not.
	below := 1
	for _, w := range want {
		below = max(below, w/2+1)
	}
	bounds := []*swar.Bound{nil, {Below: below, Query: bio.NewQueryBound(q, sc)}}
	for _, route := range swar.Routes() {
		func() {
			defer swar.UseRoute(route)()
			checkLadderRoute(q, targets, sc, want, wantEnd, matrix, bounds, route, fail)
		}()
	}
}

// checkLadderRoute is checkLadder's sweep on one kernel route.
func checkLadderRoute(q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, want []int, wantEnd []swar.Pair, matrix []*align.Matrix, bounds []*swar.Bound, route string, fail func(format string, args ...any)) {
	var al, loc, fresh, subAl swar.Aligner
	pr := newLadderCodes()
	ids := make([]int, len(targets))
	for i := range ids {
		ids[i] = i
	}
	for _, start := range allRungs {
		for _, ab := range bounds {
			for _, prebuilt := range []bool{false, true} {
				for lo := 0; lo < len(targets); lo += bio.PackedLanes8 {
					group := targets[lo:min(lo+bio.PackedLanes8, len(targets))]
					var res swar.GroupResult
					if prebuilt {
						pr.use(group, ids[lo:lo+len(group)])
						res = al.Ladder(q, group, sc, start, ab, pr)
						sameLadder(&al, &fresh, q, group, sc, start, ab, res, fail)
						checkLadderSubsets(&subAl, &fresh, pr, q, group, ids[lo:lo+len(group)], sc, start, ab, fail)
					} else {
						res = al.Ladder(q, group, sc, start, ab, nil)
					}
					for i, tgt := range group {
						w, end := want[lo+i], wantEnd[lo+i]
						seeded := res.Seeded&(1<<uint(i)) != 0
						where := fmt.Sprintf("%s route: rung %d bound %v prebuilt %v target %d (|t|=%d)", route, start, ab != nil, prebuilt, lo+i, len(tgt))
						switch {
						case res.Pruned&(1<<uint(i)) != 0:
							if ab == nil || w >= ab.Below || res.Rows[i] > len(q) {
								fail("%s: pruned after %d rows with true score %d", where, res.Rows[i], w)
							}
							if seeded || res.EndI[i] != 0 || res.EndJ[i] != 0 {
								fail("%s: pruned, yet seeded %v with end cell (%d,%d)", where, seeded, res.EndI[i], res.EndJ[i])
							}
							continue
						case res.Scores[i] != w || res.Rows[i] != len(q):
							fail("%s: ladder score %d over %d rows, scalar %d", where, res.Scores[i], res.Rows[i], w)
							continue
						case res.EndBlock[i] != swar.BlockOf(end.I):
							fail("%s: end block %d, scalar %d", where, res.EndBlock[i], swar.BlockOf(end.I))
							continue
						}
						got := swar.Pair{Score: w, I: res.EndI[i], J: res.EndJ[i]}
						switch {
						case seeded && (w == 0 || start == swar.RungScalar || (ab != nil && w < ab.Below) || got.I != 0 || got.J != 0):
							fail("%s: score %d is seeded, with end cell (%d,%d)", where, w, got.I, got.J)
						case seeded:
							seed, top := al.Seed(i), res.EndBlock[i]*swar.BlockRows
							if wantLen := min(top, 1) * len(tgt); len(seed) != wantLen {
								fail("%s: seed of %d cells for end block %d, want %d", where, len(seed), res.EndBlock[i], wantLen)
								continue
							}
							for j, v := range seed {
								if m := matrix[lo+i].Score(top, j+1); int(v) != m {
									fail("%s: seed[%d] = %d, scalar matrix row %d holds %d", where, j, v, top, m)
									break
								}
							}
							if endI, endJ, ok := loc.LocateEnd(q, tgt, sc, res.EndBlock[i], seed, w); !ok || endI != end.I || endJ != end.J {
								fail("%s: LocateEnd = (%d,%d) ok %v, scalar end cell (%d,%d)", where, endI, endJ, ok, end.I, end.J)
							}
						case ab != nil && w < ab.Below && start != swar.RungScalar && got.I == 0 && got.J == 0:
							// A packed target below the bound: nothing saved.
						case got != end:
							fail("%s: end cell (%d,%d), scalar (%d,%d)", where, got.I, got.J, end.I, end.J)
						}
					}
				}
			}
		}
	}
}

// sameLadder fails unless res, from al, is the GroupResult — seeds
// included — that fresh computes for the same call interleaving its own
// code words.
func sameLadder(al, fresh *swar.Aligner, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring, start swar.Rung, ab *swar.Bound, res swar.GroupResult, fail func(format string, args ...any)) {
	want := fresh.Ladder(q, targets, sc, start, ab, nil)
	if res != want {
		fail("rung %d bound %v, %d targets: with provided code words %+v, interleaving its own %+v", start, ab != nil, len(targets), res, want)
		return
	}
	for i := range targets {
		if res.Seeded&(1<<uint(i)) != 0 && !slices.Equal(al.Seed(i), fresh.Seed(i)) {
			fail("rung %d bound %v, target %d: seeds differ with provided code words", start, ab != nil, i)
		}
	}
}

// checkLadderSubsets runs the ladder with the shared provided code words
// on subsets of group — the lanes stage-1 skips of different queries
// would keep — and holds each call to sameLadder.
func checkLadderSubsets(al, fresh *swar.Aligner, pr *ladderCodes, q bio.Sequence, group []bio.Sequence, ids []int, sc bio.Scoring, start swar.Rung, ab *swar.Bound, fail func(format string, args ...any)) {
	for _, drop := range []func(i int) bool{
		func(i int) bool { return i%2 == 1 },
		func(i int) bool { return i == 0 },
		func(i int) bool { return i%3 == 2 },
	} {
		var sub []bio.Sequence
		var subIDs []int
		for i, tgt := range group {
			if !drop(i) {
				sub, subIDs = append(sub, tgt), append(subIDs, ids[i])
			}
		}
		if len(sub) == 0 {
			continue
		}
		pr.use(sub, subIDs)
		sameLadder(al, fresh, q, sub, sc, start, ab, al.Ladder(q, sub, sc, start, ab, pr), fail)
	}
}

// checkScores runs the full fallback chain and compares against scalar,
// and pins the ladder's own last rung (unbounded) to the same oracle.
func checkScores(t *testing.T, name string, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) {
	t.Helper()
	want := scalarScores(t, q, targets, sc)
	checkLadder(q, targets, sc, want, func(format string, args ...any) {
		t.Helper()
		t.Errorf(name+": "+format, args...)
	})
	var al swar.Aligner
	for i, tgt := range targets {
		if got, rows, pruned := al.ScalarPair(q, tgt, sc, nil); got.Score != want[i] || rows != len(q) || pruned {
			t.Errorf("%s: target %d: ScalarPair(nil) = %d over %d rows (pruned %v), scalar %d",
				name, i, got.Score, rows, pruned, want[i])
		}
	}
}

func TestScoresRandom(t *testing.T) {
	g := bio.NewGenerator(1)
	sc := bio.DefaultScoring()
	for _, n := range []int{1, 2, 7, 64, 300} {
		q := g.Random(n)
		var targets []bio.Sequence
		for i := 0; i < 19; i++ { // deliberately not a multiple of 8
			targets = append(targets, g.Random(1+i*17%257))
		}
		checkScores(t, "random", q, targets, sc)
	}
}

func TestScoresHomologous(t *testing.T) {
	g := bio.NewGenerator(2)
	sc := bio.DefaultScoring()
	q := g.Random(100)
	var targets []bio.Sequence
	for i := 0; i < 12; i++ {
		targets = append(targets, g.MutatedCopy(q, bio.DefaultMutationModel()))
	}
	// Homologous targets of a 100-base query score well above the random
	// noise floor but below the int8 clean cap, so every lane must stay in
	// the packed path; assert at least one real hit to keep the test honest.
	scores := scalarScores(t, q, targets, sc)
	maxScore := 0
	for _, s := range scores {
		maxScore = max(maxScore, s)
	}
	if maxScore < 30 || maxScore >= bio.PackedCap8 {
		t.Fatalf("homologous scores not in the int8 sweet spot: max %d", maxScore)
	}
	checkScores(t, "homologous", q, targets, sc)
}

func TestScoresWithN(t *testing.T) {
	sc := bio.DefaultScoring()
	q := bio.MustSequence("ACGTNNNNACGTACGTNACGT")
	targets := []bio.Sequence{
		bio.MustSequence("ACGTNNNNACGTACGTNACGT"), // N aligns N: still mismatch
		bio.MustSequence("NNNNNNNN"),
		bio.MustSequence("ACGT"),
		bio.MustSequence("TTTT"),
	}
	checkScores(t, "with-N", q, targets, sc)
	// The all-N target must score 0: 'N' never matches, even itself.
	var al swar.Aligner
	if got := al.Ladder(q, targets, sc, swar.RungInter8, nil, nil).Scores[1]; got != 0 {
		t.Errorf("all-N target scored %d, want 0 (N must never match)", got)
	}
}

func TestScoresEmpty(t *testing.T) {
	sc := bio.DefaultScoring()
	g := bio.NewGenerator(3)
	checkScores(t, "empty-query", bio.Sequence{}, []bio.Sequence{g.Random(50), {}}, sc)
	checkScores(t, "empty-targets", g.Random(50), []bio.Sequence{{}, {}, {}}, sc)
	var al swar.Aligner
	if got := al.Ladder(g.Random(10), nil, sc, swar.RungInter8, nil, nil); got != (swar.GroupResult{}) {
		t.Errorf("no targets: got %+v", got)
	}
}

// TestScoresSaturation forces the int8→int16 fallback: near-identical
// 600-base sequences score ≈600, far above the int8 clean cap of 127.
func TestScoresSaturation(t *testing.T) {
	g := bio.NewGenerator(4)
	sc := bio.DefaultScoring()
	q := g.Random(600)
	targets := []bio.Sequence{
		q.Clone(),       // identity: score 600 ≫ 127
		g.Random(600),   // noise: stays in int8
		q[:300].Clone(), // score 300: saturates int8, fits int16
		q[:100].Clone(), // score 100: stays in int8
	}
	checkScores(t, "saturation", q, targets, sc) // on every route
	for _, route := range swar.Routes() {
		func() {
			defer swar.UseRoute(route)()
			var al swar.Aligner
			ls, ok := al.Scan8(q, targets, sc)
			if !ok {
				t.Fatal("Scan8 rejected default scoring")
			}
			if ls.Saturated&1 == 0 || ls.Saturated&(1<<2) == 0 {
				t.Errorf("%s route: identity lanes not flagged saturated: mask %08b scores %v", route, ls.Saturated, ls.Scores[:4])
			}
			if ls.Saturated&(1<<3) != 0 {
				t.Errorf("%s route: score-100 lane wrongly saturated: mask %08b", route, ls.Saturated)
			}
			// The int16 retry asks the provided code words for one subgroup
			// of records, {0, 2}, whatever else a call keeps: calls keeping
			// fewer of the others get the first call's words, and the first
			// call's results.
			pr := newLadderCodes()
			var fresh swar.Aligner
			for _, keep := range [][]int{{0, 1, 2, 3}, {0, 2, 3}, {0, 2}} {
				var sub []bio.Sequence
				for _, i := range keep {
					sub = append(sub, targets[i])
				}
				pr.use(sub, keep)
				sameLadder(&al, &fresh, q, sub, sc, swar.RungInter8, nil, al.Ladder(q, sub, sc, swar.RungInter8, nil, pr), t.Errorf)
			}
			if pr.reused != 2 {
				t.Errorf("%s route: provided int16 words reused %d times over three calls, want 2", route, pr.reused)
			}
		}()
	}
	// A flagged lane beside one-base lanes: once the ladder's int8 pass
	// narrows to their one column, the last block runs on the portable
	// pass, over the maximum the AVX2 pass left in the flagged lane.
	ts := bio.MustSequence(strings.Repeat("T", 17))
	checkScores(t, "saturated lane beside one-base lanes", ts, []bio.Sequence{ts, ts[:1], ts[:1]},
		bio.Scoring{Match: 25, Mismatch: -2, Gap: -3})
}

// firstGuardBlock returns the block of query rows in which an int8 pass
// over targets first sets a guard bit, or -1 when none does: Scan8 over
// ever longer block-aligned prefixes of q.
func firstGuardBlock(t *testing.T, q bio.Sequence, targets []bio.Sequence, sc bio.Scoring) int {
	t.Helper()
	var al swar.Aligner
	for hi := swar.BlockRows; ; hi += swar.BlockRows {
		ls, ok := al.Scan8(q[:min(hi, len(q))], targets, sc)
		if !ok {
			t.Fatalf("Scan8 rejected %+v", sc)
		}
		if ls.Saturated != 0 {
			return (min(hi, len(q)) - 1) / swar.BlockRows
		}
		if hi >= len(q) {
			return -1
		}
	}
}

// TestLadderResume pins the resumed int16 retry. Entered at RungInter8,
// the ladder runs an int8 pass that narrows to its clean lanes' columns
// once lanes are flagged and stops when none is left, then int16
// subgroups resumed at the row entering the block of the pass's first
// guard bit; entered at RungInter16, it scans every lane in int16 from
// row 0. On groups whose flagged lanes form the same subgroups both ways
// — every lane flagged, or the clean lanes placed so that no subgroup
// changes its abandon decision — the two must agree on every
// GroupResult field but Padded, and on every seed, unbounded and under a
// live Bound; Padded must be strictly below the from-scratch ladder's,
// an int8 pass over every column and row plus that retry. Every case
// also goes through checkScores against the scalar oracle.
func TestLadderResume(t *testing.T) {
	g := bio.NewGenerator(31)
	cat := func(parts ...bio.Sequence) bio.Sequence {
		var out bio.Sequence
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// lanes returns n targets, lane l being a random prefix of pre(l)
	// bases before q[from(l):to(l)] — an identity run whose score first
	// passes 127 at query row from(l)+128.
	lanes := func(q bio.Sequence, n int, pre, from, to func(l int) int) []bio.Sequence {
		out := make([]bio.Sequence, n)
		for l := range out {
			out[l] = cat(g.Random(pre(l)), q[from(l):to(l)])
		}
		return out
	}
	q600, q1000, q451 := g.Random(600), g.Random(1000), g.Random(451)
	qN := cat(bio.MustSequence(strings.Repeat("N", 200)), g.Random(400))
	end := func(q bio.Sequence) func(int) int { return func(int) int { return len(q) } }
	for _, c := range []struct {
		name     string
		q        bio.Sequence
		targets  []bio.Sequence
		sc       bio.Scoring
		below    int   // the live bound's threshold
		minBlock int   // the first guard bit's block is at least this
		pruned   bool  // the live bound prunes a subgroup by the resume row
		clean    uint8 // the lanes the int8 pass never flags
	}{
		{"first guard in block 4", q600,
			lanes(q600, 8, func(l int) int { return 10 + 7*l }, func(l int) int { return 150 + l }, end(q600)),
			bio.DefaultScoring(), 300, 4, false, 0},
		{"lanes flagged in blocks 1 to 8", q600,
			lanes(q600, 8, func(l int) int { return 5 * l }, func(l int) int { return 60 * l }, end(q600)),
			bio.DefaultScoring(), 200, 1, false, 0},
		{"five lanes flagged by block 8 of 16", q1000,
			lanes(q1000, 5, func(l int) int { return 30 * l }, func(l int) int { return 100 * l }, func(l int) int { return 100*l + 300 }),
			bio.DefaultScoring(), 250, 1, false, 0},
		// Query rows 1–200 are N, so no lane can score before block 3; lane
		// 0's 400-base identity run scores 40 000, past the int16 cap too.
		{"int16 saturates too", qN,
			append([]bio.Sequence{qN[200:]}, lanes(qN, 3, func(l int) int { return 7 * l }, func(l int) int { return 260 + 60*l }, func(l int) int { return 360 + 60*l })...),
			bio.Scoring{Match: 100, Mismatch: -100, Gap: -120}, 5000, 3, false, 0},
		// Lanes 0–3 clear the bound; lanes 4–7 score 170–200 and cannot:
		// their subgroup is hopeless at row 64, before the resume row 128.
		{"bound prunes a subgroup before the resume row", q600,
			append(lanes(q600, 4, func(l int) int { return 20 + l }, func(l int) int { return 30 + l }, end(q600)),
				lanes(q600, 4, func(l int) int { return 50 + l }, func(l int) int { return 400 + 10*l }, end(q600))...),
			bio.DefaultScoring(), 560, 2, true, 0},
		{"odd query, not a multiple of 64", q451,
			lanes(q451, 8, func(l int) int { return 3 * l }, func(l int) int { return 20 + 10*l }, end(q451)),
			bio.DefaultScoring(), 200, 2, false, 0},
		// Lanes 2, 3, 6 and 7 are 60–120 bases, and lane 2, the longest, an
		// identity run of 120 that ends on its last column in block 6: once
		// the homologs are flagged the int8 pass runs on over the short
		// lanes' columns alone. Each from-scratch subgroup keeps a homolog
		// above the bound, so neither abandons.
		{"clean short lanes beside flagged long ones", q600,
			[]bio.Sequence{
				cat(g.Random(17), q600[40:]), cat(g.Random(5), q600[45:]), q600[300:420], g.Random(97),
				cat(g.Random(9), q600[50:]), cat(g.Random(30), q600[55:]), g.Random(60), g.Random(111),
			},
			bio.DefaultScoring(), 200, 2, false, 0b11001100},
	} {
		t.Run(c.name, func(t *testing.T) {
			var al swar.Aligner
			all := uint8(1)<<uint(len(c.targets)) - 1
			if ls, ok := al.Scan8(c.q, c.targets, c.sc); !ok || ls.Saturated != all&^c.clean {
				t.Fatalf("int8 pass flags lanes %08b, want %08b", ls.Saturated, all&^c.clean)
			}
			b := firstGuardBlock(t, c.q, c.targets, c.sc)
			if b < c.minBlock {
				t.Fatalf("first guard bit in block %d, want ≥ %d", b, c.minBlock)
			}
			checkScores(t, c.name, c.q, c.targets, c.sc)
			words := 0
			for _, tgt := range c.targets {
				words = max(words, len(tgt))
			}
			for _, ab := range []*swar.Bound{nil, {Below: c.below, Query: bio.NewQueryBound(c.q, c.sc)}} {
				got := al.Ladder(c.q, c.targets, c.sc, swar.RungInter8, ab, nil)
				seeds := make([][]uint16, len(c.targets))
				for i := range seeds {
					seeds[i] = append([]uint16(nil), al.Seed(i)...)
				}
				want := al.Ladder(c.q, c.targets, c.sc, swar.RungInter16, ab, nil)
				if scratch := int64(bio.PackedLanes8)*int64(words)*int64(len(c.q)) + want.Padded; got.Padded >= scratch {
					t.Errorf("bound %v: padded %d, from-scratch ladder %d", ab != nil, got.Padded, scratch)
				}
				got.Padded, want.Padded = 0, 0
				if got != want {
					t.Errorf("bound %v: resumed ladder %+v\nfrom-scratch %+v", ab != nil, got, want)
				}
				for i := range seeds {
					if want.Seeded&(1<<uint(i)) != 0 && !slices.Equal(seeds[i], al.Seed(i)) {
						t.Errorf("bound %v: target %d seed differs from the from-scratch retry's", ab != nil, i)
					}
				}
				if c.pruned && ab != nil {
					early := false
					for i := range c.targets {
						early = early || want.Pruned&(1<<uint(i)) != 0 && want.Rows[i] <= b*swar.BlockRows
					}
					if !early {
						t.Errorf("no lane pruned by row %d: pruned %08b rows %v", b*swar.BlockRows, want.Pruned, want.Rows)
					}
				}
			}
		})
	}
}

// TestScoresScalarFallback forces the full chain down to align.Scan: a
// match reward of 1000 overflows even the int16 clean cap on a 100-base
// identity, and its magnitude does not fit an int8 lane at all.
func TestScoresScalarFallback(t *testing.T) {
	g := bio.NewGenerator(5)
	sc := bio.Scoring{Match: 1000, Mismatch: -1000, Gap: -2000}
	q := g.Random(100)
	targets := []bio.Sequence{q.Clone(), g.Random(100)}
	var al swar.Aligner
	if _, ok := al.Scan8(q, targets, sc); ok {
		t.Fatal("Scan8 accepted a scoring scheme that cannot fit int8 lanes")
	}
	ls, ok := al.Scan16(q, targets[:1], sc)
	if !ok {
		t.Fatal("Scan16 rejected a scheme that fits int16 lanes")
	}
	if ls.Saturated&1 == 0 {
		t.Errorf("100×1000 identity should saturate int16: scores %v", ls.Scores[:1])
	}
	checkScores(t, "scalar-fallback", q, targets, sc)
}

// TestScan16Direct exercises the int16 kernel on scores that fit it.
func TestScan16Direct(t *testing.T) {
	g := bio.NewGenerator(6)
	sc := bio.DefaultScoring()
	q := g.Random(500)
	targets := []bio.Sequence{q.Clone(), g.MutatedCopy(q, bio.DefaultMutationModel()), g.Random(200)}
	var al swar.Aligner
	ls, ok := al.Scan16(q, targets, sc)
	if !ok {
		t.Fatal("Scan16 rejected default scoring")
	}
	if ls.Saturated != 0 {
		t.Fatalf("unexpected int16 saturation: %08b", ls.Saturated)
	}
	want := scalarScores(t, q, targets, sc)
	for i := range want {
		if ls.Scores[i] != want[i] {
			t.Errorf("int16 lane %d: %d, want %d", i, ls.Scores[i], want[i])
		}
	}
}

// TestAlignerReuse checks that the reused row buffers carry no state
// between scans of different shapes.
func TestAlignerReuse(t *testing.T) {
	g := bio.NewGenerator(8)
	sc := bio.DefaultScoring()
	var al swar.Aligner
	for i := 0; i < 10; i++ {
		q := g.Random(10 + i*37)
		targets := []bio.Sequence{g.Random(200 - i*13), g.Random(5 + i), g.MutatedCopy(q, bio.DefaultMutationModel())}
		got := al.Ladder(q, targets, sc, swar.RungInter8, nil, nil).Scores
		want := scalarScores(t, q, targets, sc)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("iteration %d target %d: %d want %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestScoresManyLengths sweeps very uneven lane lengths (padding paths).
func TestScoresManyLengths(t *testing.T) {
	g := bio.NewGenerator(9)
	sc := bio.DefaultScoring()
	q := g.Random(150)
	var targets []bio.Sequence
	for _, n := range []int{0, 1, 2, 3, 150, 149, 151, 40, 7, 1000, 999, 5, 0, 64, 31, 16, 8} {
		targets = append(targets, g.Random(n))
	}
	checkScores(t, "many-lengths", q, targets, sc)
}

// ---- LocateEnd: the end cell from a saved border row ----

// matrixRow returns row i of the full scalar matrix, one value per base
// of the target: the seed of the block that row enters (empty for row
// 0, the zero border).
func matrixRow(m *align.Matrix, i int) []uint16 {
	if i == 0 {
		return nil
	}
	_, cols := m.Dims()
	row := make([]uint16, cols-1)
	for j := range row {
		row[j] = uint16(m.Score(i, j+1))
	}
	return row
}

// TestLocateEnd replays one block from the scalar matrix's own row and
// must land on align.Scan's (BestI, BestJ) — which each case pins to
// the cell it was built to end on: the first and last rows of the first
// blocks — BlockRows, BlockRows+1, 2·BlockRows, and rows 64, 65 and 128
// whatever BlockRows is — a last row inside a block, a score reached in
// two columns of one row, in two rows of one block and in two blocks
// (the first wins each time), wildcard runs, a one-base target. The
// scoring steps by 2 along a diagonal, so a score one too low is
// stepped over like one too high is never reached: both, a seed of the
// wrong length, the block before the end block replayed from its own
// true seed, and a block past the query must all come back not ok.
func TestLocateEnd(t *testing.T) {
	sc := bio.Scoring{Match: 2, Mismatch: -3, Gap: -4}
	g := bio.NewGenerator(23)
	m := g.Random(24)
	cat := func(parts ...bio.Sequence) bio.Sequence {
		var out bio.Sequence
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// plant returns n random rows with motif planted to end on each of
	// the given rows; query plants m.
	plant := func(motif bio.Sequence, n int, ends ...int) bio.Sequence {
		q := g.Random(n)
		for _, e := range ends {
			copy(q[e-len(motif):e], motif)
		}
		return q
	}
	query := func(n int, ends ...int) bio.Sequence { return plant(m, n, ends...) }
	// upTo is the longest prefix of m that can end on row e.
	upTo := func(e int) bio.Sequence { return m[:min(len(m), e)] }
	b := swar.BlockRows
	mid := (1+len(m)/b)*b + b/2 + 1 // a row inside a block, past the motif's length
	ns := bio.MustSequence("NNNNNNN")
	for _, c := range []struct {
		name   string
		q, tgt bio.Sequence
		i, j   int // the end cell the case is built for
	}{
		{"row 1", cat(bio.MustSequence("A"), ns, ns), bio.MustSequence("CCAC"), 1, 3},
		{"row 64", query(150, 64), m, 64, 24},
		{"row 65", query(150, 65), m, 65, 24},
		{"row 128", query(150, 128), m, 128, 24},
		{"last row", query(192, 192), m, 192, 24},
		{"twice in one row", query(200, 100), cat(m, ns[:1], m), 100, 24},
		{"twice in one block", query(200, 90, 120), m, 90, 24},
		{"tie across blocks", query(400, 40, 300), m, 40, 24},
		{"N runs", cat(g.Random(70), ns, m[:12], ns[:2], m[12:], ns), cat(ns, m, ns), 70 + 7 + 12 + 2 + 12, 7 + 24},
		{"one base", cat(ns, ns, bio.MustSequence("NNNNG"), ns), bio.MustSequence("G"), 19, 1},
		{"one base, second block", cat(ns, ns, ns, ns, ns, ns, ns, ns, ns, ns, bio.MustSequence("G")), bio.MustSequence("G"), 71, 1},
		// The edges of the first blocks, at whatever height BlockRows is.
		{"row BlockRows", plant(upTo(b), 4*b+20, b), upTo(b), b, len(upTo(b))},
		{"row BlockRows+1", plant(upTo(b), 4*b+20, b+1), upTo(b), b + 1, len(upTo(b))},
		{"row 2·BlockRows", plant(upTo(2*b), 4*b+20, 2*b), upTo(2 * b), 2 * b, len(upTo(2 * b))},
		{"last row, mid-block", query(mid, mid), m, mid, 24},
	} {
		r, err := align.Scan(c.q, c.tgt, sc, align.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.BestI != c.i || r.BestJ != c.j {
			t.Fatalf("%s: the case ends on (%d,%d), built for (%d,%d)", c.name, r.BestI, r.BestJ, c.i, c.j)
		}
		full, err := align.NewSWMatrix(c.q, c.tgt, sc)
		if err != nil {
			t.Fatal(err)
		}
		block := swar.BlockOf(r.BestI)
		seed := matrixRow(full, block*swar.BlockRows)
		var al swar.Aligner
		if i, j, ok := al.LocateEnd(c.q, c.tgt, sc, block, seed, r.BestScore); !ok || i != r.BestI || j != r.BestJ {
			t.Errorf("%s: LocateEnd = (%d,%d) ok %v, want (%d,%d)", c.name, i, j, ok, r.BestI, r.BestJ)
		}
		for _, bad := range []struct {
			what  string
			block int
			seed  []uint16
			score int
		}{
			{"score one too high", block, seed, r.BestScore + 1},
			{"score one too low", block, seed, r.BestScore - 1},
			{"seed one cell long", block, append(seed[:len(seed):len(seed)], 0), r.BestScore},
			{"previous block", block - 1, matrixRow(full, max(block-1, 0)*swar.BlockRows), r.BestScore},
			{"block past the query", (len(c.q) + swar.BlockRows - 1) / swar.BlockRows, make([]uint16, len(c.tgt)), r.BestScore},
		} {
			if i, j, ok := al.LocateEnd(c.q, c.tgt, sc, bad.block, bad.seed, bad.score); ok {
				t.Errorf("%s, %s: LocateEnd = (%d,%d) ok, want not ok", c.name, bad.what, i, j)
			}
		}
	}
}

// ---- Two-row kernel vs the retired one-row kernel ----

// row8 is the one-row int8 kernel the two-row rowPair8 replaced, kept —
// on the retired multiply primitives — as its reference: one packed row
// of the recurrence per call, every cell ORed into sat, the
// guard-stripped cell folded into best.
func row8(prev, cur, plus, minus []uint64, gapV, best, sat uint64) (uint64, uint64) {
	d := prev[0]   // diag carry: prev[j-1]
	w := uint64(0) // left carry: cur[j-1]; the border column is all zero
	for j := range plus {
		v := refSubClamp8(d, minus[j]) + plus[j]
		d = prev[j+1]
		v = refMaxClamped8(v, refSubClamp8(d, gapV))
		v = refMaxClamped8(v, refSubClamp8(w, gapV))
		cur[j+1] = v
		w = v
		sat |= v
		best = refMaxClamped8(best, v&^hi8)
	}
	return best, sat
}

// row16 is row8 for 4 uint16 lanes.
func row16(prev, cur, plus, minus []uint64, gapV, best, sat uint64) (uint64, uint64) {
	d := prev[0]
	w := uint64(0)
	for j := range plus {
		v := refSubClamp16(d, minus[j]) + plus[j]
		d = prev[j+1]
		v = refMaxClamped16(v, refSubClamp16(d, gapV))
		v = refMaxClamped16(v, refSubClamp16(w, gapV))
		cur[j+1] = v
		w = v
		sat |= v
		best = refMaxClamped16(best, v&^hi16)
	}
	return best, sat
}

// oneRowScan is the packed scan as it ran on row8/row16: one row per
// pass over two swapped row buffers, end-row blocks stamped every
// BlockRows rows. It returns the folded maximum, the saturation word
// and the blocks after the last row of q, and the stored row a multiple
// of eight rows in: q's last row, or the last of the one to seven
// all-mismatch 'N' rows after it that pad the eight-row kernel's last
// pass — and which must move neither the maximum nor a clean lane's
// guard bit.
func oneRowScan(t *testing.T, q bio.Sequence, prof *swar.PackedProfile, gap int) (best, sat uint64, blocks [bio.PackedLanes8]int, last []uint64) {
	t.Helper()
	row, hi := row8, uint64(hi8)
	if prof.Lanes() == bio.PackedLanes16 {
		row, hi = row16, hi16
	}
	prev, cur := make([]uint64, prof.Words()+1), make([]uint64, prof.Words()+1)
	gapV := prof.Broadcast(gap)
	var snap uint64
	for lo := 0; lo < len(q); lo += swar.BlockRows {
		for _, c := range q[lo:min(lo+swar.BlockRows, len(q))] {
			best, sat = row(prev, cur, prof.PlusRow(c), prof.MinusRow(c), gapV, best, sat)
			prev, cur = cur, prev
		}
		moved := best ^ snap
		for l := 0; l < prof.Lanes(); l++ {
			if prof.Lane(moved, l) != 0 {
				blocks[l] = lo / swar.BlockRows
			}
		}
		snap = best
	}
	for n := len(q); n%8 != 0; n++ {
		b, s := row(prev, cur, prof.PlusRow('N'), prof.MinusRow('N'), gapV, best, sat)
		if b != best || (s^sat)&hi != 0 {
			t.Fatalf("phantom N row moved the one-row scan: best %#x → %#x, sat %#x → %#x", best, b, sat, s)
		}
		prev, cur = cur, prev
	}
	return best, sat, blocks, prev[1:]
}

// twoRowInputs builds the query and lane targets of one
// TestTwoRowMatchesOneRow case: the longest lane is exactly words long,
// the others uneven down to empty.
func twoRowInputs(g *bio.Generator, kind string, qLen, words, lanes int) (bio.Sequence, []bio.Sequence) {
	fit := func(s bio.Sequence, n int) bio.Sequence { // s repeated or cut to n bases
		out := make(bio.Sequence, n)
		for i := range out {
			out[i] = s[i%len(s)]
		}
		return out
	}
	q := g.Random(qLen)
	targets := make([]bio.Sequence, lanes)
	for l := range targets {
		n := words
		if l > 0 {
			n = words * ((l * 5) % lanes) / lanes // uneven; empty when words is small
		}
		switch kind {
		case "random":
			targets[l] = g.Random(n)
		case "homolog": // lanes carry mutated copies of the query: scores grow with |q|
			targets[l] = fit(g.MutatedCopy(q, bio.DefaultMutationModel()), n)
		case "two-letter": // half of all cells match
			targets[l] = fit(bio.MustSequence("ACCA"[l%3:]), n)
		case "n-run": // wildcard runs cut every alignment short
			targets[l] = fit(append(g.Random(5+l), bio.MustSequence("NNNNNNN")...), n)
		}
	}
	switch kind {
	case "two-letter":
		q = fit(bio.MustSequence("CAAC"), qLen)
	case "n-run":
		q = fit(append(g.Random(9), bio.MustSequence("NNN")...), qLen)
	}
	return q, targets
}

// TestTwoRowMatchesOneRow drives the eight-row kernel, on each of the
// host's routes, over the targets' code words, and the one-row kernel
// the two-row one replaced over the packed profile of the same targets
// (profile_test.go) — query lengths of every residue mod 8 around the pass
// and block boundaries, rows of one word to 600 (8, 9 and 13 words: the
// shortest rows the AVX2 kernel runs, with no body step, one lone step,
// and a four-step pass and a lone one), both lane widths, scoring
// schemes from the paper's to ones that saturate a lane within a few
// matches — and asserts what the ladder relies on: the same set of
// flagged lanes, and in every unflagged lane the same maximum, the same
// end-row block and the same stored row.
func TestTwoRowMatchesOneRow(t *testing.T) {
	scorings := []bio.Scoring{
		bio.DefaultScoring(),
		{Match: 5, Mismatch: -4, Gap: -1},          // cheap gaps: up and left terms win often
		{Match: 25, Mismatch: -2, Gap: -3},         // saturates int8 in 6 matches
		{Match: 127, Mismatch: -127, Gap: -127},    // every magnitude at the int8 cap
		{Match: 7000, Mismatch: -7000, Gap: -9000}, // int16 only, saturates it in 5 matches
	}
	g := bio.NewGenerator(19)
	var al swar.Aligner
	for _, kind := range []string{"random", "homolog", "two-letter", "n-run"} {
		for _, qLen := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 62, 63, 64, 65, 127, 128, 129, 130} {
			for _, words := range []int{1, 2, 3, 7, 8, 9, 13, 600} {
				q8, t8 := twoRowInputs(g, kind, qLen, words, bio.PackedLanes8)
				q16, t16 := twoRowInputs(g, kind, qLen, words, bio.PackedLanes16)
				for _, sc := range scorings {
					for _, c := range []struct {
						q       bio.Sequence
						targets []bio.Sequence
						prof    *swar.PackedProfile
					}{{q8, t8, swar.NewPackedProfile8(t8, sc)}, {q16, t16, swar.NewPackedProfile16(t16, sc)}} {
						if c.prof == nil || -sc.Gap > c.prof.Cap() {
							continue // the scheme does not fit this lane width
						}
						name := fmt.Sprintf("%s |q|=%d words=%d %+v lanes=%d", kind, qLen, words, sc, c.prof.Lanes())
						wantBest, wantSat, wantBlocks, wantRow := oneRowScan(t, c.q, c.prof, -sc.Gap)
						for _, route := range swar.Routes() {
							restore := swar.UseRoute(route)
							best, sat, blocks, row := al.ScanPackedRow(c.q, c.targets, sc, c.prof.Lanes() == bio.PackedLanes16)
							restore()
							where := name + " " + route
							guard := uint64(1) << (c.prof.Shift() - 1)
							var clean uint64 // all-ones in every unflagged lane
							for l := 0; l < c.prof.Lanes(); l++ {
								flagged := c.prof.Lane(sat, l)&int(guard) != 0
								if want := c.prof.Lane(wantSat, l)&int(guard) != 0; flagged != want {
									t.Fatalf("%s: lane %d flagged %v, one-row kernel %v", where, l, flagged, want)
								}
								if flagged {
									continue
								}
								clean |= (guard<<1 - 1) << (uint(l) * c.prof.Shift())
								if blocks[l] != wantBlocks[l] {
									t.Fatalf("%s: lane %d end block %d, one-row kernel %d", where, l, blocks[l], wantBlocks[l])
								}
							}
							if (best^wantBest)&clean != 0 {
								t.Fatalf("%s: best %#x, one-row kernel %#x (clean lanes %#x)", where, best, wantBest, clean)
							}
							for j := range wantRow {
								if (row[j]^wantRow[j])&clean != 0 {
									t.Fatalf("%s: stored word %d = %#x, one-row kernel %#x (clean lanes %#x)", where, j, row[j], wantRow[j], clean)
								}
							}
						}
					}
				}
			}
		}
	}
}

// ---- Leaf scalar row vs the retired per-cell-argmax row ----

// refScalarRow is the scalar row kernel the leaf swar.ScalarRow
// replaced, kept as its reference: one cell per pass, the zero clamp
// last on the west chain, and the row's maximum with the first column
// attaining it tracked cell by cell (0 for an all-zero row).
func refScalarRow(prev, cur, sub []int32, gap int32) (rowBest int32, rowJ int) {
	n := len(sub)
	d := prev[0]
	w := int32(0)
	pr := prev[1:]
	out := cur[1:]
	_ = pr[n-1] // bounds hints for the loop body
	_ = out[n-1]
	for j := 0; j < n; j++ {
		v := d + sub[j]
		v = bio.Max32(v, w+gap)
		d = pr[j]
		v = bio.Max32(v, d+gap)
		v = bio.Clamp0(v)
		out[j] = v
		w = v
		if v > rowBest {
			rowBest, rowJ = v, j+1
		}
	}
	return rowBest, rowJ
}

// leafRow is what the leaf kernel's callers read off a row: its maximum
// and, for a positive one, the first column holding it.
func leafRow(prev, cur, sub []int32, gap int32) (int32, int) {
	top := swar.ScalarRow(prev, cur, sub, gap)
	if top == 0 {
		return 0, 0
	}
	return top, swar.FirstCol(cur, top)
}

// FuzzLeafRowVsReference pins the leaf row kernel to the one it
// replaced over up to four successive rows: rows of 1 to 12 cells, so
// the four-wide body runs zero to three times and every tail length
// occurs; gaps from 0 down; profile rows of a match reward and a
// mismatch penalty; and a first prev row of zeros (the top border),
// random values, values a step or two below a shared peak (a row whose
// maximum ties in several columns), or zeros and peaks mixed. The
// stored row, the row maximum and its first column must be identical.
func FuzzLeafRowVsReference(f *testing.F) {
	for seed := 0; seed < 36; seed++ {
		f.Add(int64(seed), uint8(seed%9), uint8(seed%5), uint8(1+seed%3), uint8(seed%4), uint8(seed/9+4*(seed%4)))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, gap, match, mismatch, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		cells := 1 + int(n)%12
		g := -int32(gap % 16)
		ma, mi := 1+int32(match%16), -1-int32(mismatch%16)
		peak := int32(r.Intn(300))
		prev := make([]int32, cells+1)
		for j := 1; j <= cells; j++ {
			switch mode % 4 {
			case 1:
				prev[j] = int32(r.Intn(int(peak) + 1))
			case 2:
				prev[j] = max(peak-int32(r.Intn(3)), 0)
			case 3:
				if r.Intn(2) == 0 {
					prev[j] = peak
				}
			}
		}
		want := append([]int32(nil), prev...)
		cur, wantCur := make([]int32, cells+1), make([]int32, cells+1)
		sub := make([]int32, cells)
		for row := 0; row < 1+int(mode/4)%4; row++ {
			for j := range sub {
				sub[j] = mi
				if r.Intn(3) == 0 {
					sub[j] = ma
				}
			}
			top, col := leafRow(prev, cur, sub, g)
			wantTop, wantCol := refScalarRow(want, wantCur, sub, g)
			if top != wantTop || col != wantCol || !slices.Equal(cur, wantCur) {
				t.Fatalf("row %d of %d cells, gap %d, sub %v, prev %v: leaf max %d at %d row %v; reference %d at %d row %v",
					row, cells, g, sub, prev, top, col, cur, wantTop, wantCol, wantCur)
			}
			prev, cur = cur, prev
			want, wantCur = wantCur, want
		}
	})
}

// BenchmarkScalarRowLeafVsReference replays one located hit's rows the
// way LocateEnd does — row by row until a row's maximum equals the
// score, then that row's first column holding it — on the leaf kernel
// and on the per-cell-argmax kernel it replaced: a 64-row homolog
// fragment against a 650-base target, scored by the reference first,
// the two arms alternated in each iteration and the first of them
// switched every iteration, as BenchmarkRowPair8VsPortable does. It
// reports the time ratio ref/leaf, a same-run reading the host's speed
// that hour cancels, and the leaf kernel's cells/s. ci.sh gates the
// median ratio of five runs.
func BenchmarkScalarRowLeafVsReference(b *testing.B) {
	g := bio.NewGenerator(40)
	sc := bio.DefaultScoring()
	t := g.Random(650)
	q := g.MutatedCopy(t[300:364], bio.DefaultMutationModel())
	var prof bio.Profile
	prof.Reset(t, sc.Match, sc.Mismatch)
	gap := int32(sc.Gap)
	prev, cur := make([]int32, len(t)+1), make([]int32, len(t)+1)
	score := int32(0)
	locate := func(leaf bool) swar.Pair {
		clear(prev)
		for i, c := range q {
			var top int32
			col := 0
			if leaf {
				if top = swar.ScalarRow(prev, cur, prof.Row(c), gap); top == score {
					col = swar.FirstCol(cur, top)
				}
			} else {
				top, col = refScalarRow(prev, cur, prof.Row(c), gap)
			}
			if top == score {
				return swar.Pair{Score: int(top), I: i + 1, J: col}
			}
			prev, cur = cur, prev
		}
		return swar.Pair{}
	}
	for _, c := range q { // the score: the maximum over every row
		top, _ := refScalarRow(prev, cur, prof.Row(c), gap)
		score = max(score, top)
		prev, cur = cur, prev
	}
	end := locate(false)
	if got := locate(true); got != end || end.I == 0 {
		b.Fatalf("leaf kernel ends at %+v, reference at %+v", got, end)
	}
	timed := func(leaf bool) time.Duration {
		start := time.Now()
		locate(leaf)
		return time.Since(start)
	}
	var leaf, ref time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			leaf += timed(true)
			ref += timed(false)
		} else {
			ref += timed(false)
			leaf += timed(true)
		}
	}
	b.ReportMetric(float64(ref)/float64(leaf), "ref/leaf")
	b.ReportMetric(float64(b.N)*float64(end.I)*float64(len(t))/leaf.Seconds(), "cells/s")
}
