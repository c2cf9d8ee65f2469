package swar_test

import (
	"fmt"
	"math/rand"
	"testing"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/swar"
)

// scalarPair is the striped oracle: the scalar align.Scan, whose
// BestScore/BestI/BestJ tie-breaking the striped kernels must
// reproduce exactly.
func scalarPair(t *testing.T, s, tt bio.Sequence, sc bio.Scoring) swar.Pair {
	t.Helper()
	r, err := align.Scan(s, tt, sc, align.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return swar.Pair{Score: r.BestScore, I: r.BestI, J: r.BestJ}
}

// scanPair runs ScanPair, the lane ladder's pairwise scan, which must
// always be exact.
func scanPair(t *testing.T, s, tt bio.Sequence, sc bio.Scoring) swar.Pair {
	t.Helper()
	var al swar.Aligner
	p, err := al.ScanPair(s, tt, sc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkStriped compares every rung that accepts the pair against the
// scalar oracle, and requires ScanPair to always be exact.
func checkStriped(t *testing.T, name string, s, tt bio.Sequence, sc bio.Scoring) {
	t.Helper()
	want := scalarPair(t, s, tt, sc)
	var al swar.Aligner
	if got, ok := al.StripedScan8(s, tt, sc); ok && got != want {
		t.Errorf("%s: StripedScan8 (|s|=%d |t|=%d) = %+v, want %+v", name, len(s), len(tt), got, want)
	}
	if got, ok := al.StripedScan16(s, tt, sc); ok && got != want {
		t.Errorf("%s: StripedScan16 (|s|=%d |t|=%d) = %+v, want %+v", name, len(s), len(tt), got, want)
	}
	if got := scanPair(t, s, tt, sc); got != want {
		t.Errorf("%s: ScanPair (|s|=%d |t|=%d) = %+v, want %+v", name, len(s), len(tt), got, want)
	}
}

// TestStripedRandom sweeps random pairs across lengths that exercise
// every striped shape: single-word stripes, partial last lanes, long
// segments. Random 4-letter DNA stays far below the int8 cap, so the
// int8 rung must accept every one of these.
func TestStripedRandom(t *testing.T) {
	g := bio.NewGenerator(21)
	sc := bio.DefaultScoring()
	lengths := []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 257}
	for _, m := range lengths {
		for _, n := range lengths {
			checkStriped(t, fmt.Sprintf("random-%dx%d", m, n), g.Random(m), g.Random(n), sc)
		}
	}
}

// TestStripedHomologous covers mutated copies — locally similar pairs
// whose alignments cross many segment boundaries, stressing the lazy
// wrap-around correction loop.
func TestStripedHomologous(t *testing.T) {
	g := bio.NewGenerator(22)
	sc := bio.DefaultScoring()
	for _, n := range []int{20, 50, 90, 120} {
		s := g.Random(n)
		tt := g.MutatedCopy(s, bio.DefaultMutationModel())
		checkStriped(t, fmt.Sprintf("homologous-%d", n), s, tt, sc)
	}
}

// TestStripedSaturation pins the exact-or-flagged contract on identity
// pairs whose scores straddle the int8 cap: at score ≤ 127 the int8
// rung must stay exact, above it the rung must flag and bail while the
// int16 rung (and the full ladder) stays exact.
func TestStripedSaturation(t *testing.T) {
	g := bio.NewGenerator(23)
	sc := bio.DefaultScoring()
	var al swar.Aligner
	for _, n := range []int{125, 126, 127, 128, 129, 200, 600} {
		s := g.Random(n)
		want := scalarPair(t, s, s, sc)
		if want.Score != n {
			t.Fatalf("identity of length %d scored %d", n, want.Score)
		}
		got8, ok8 := al.StripedScan8(s, s, sc)
		if n <= bio.PackedCap8 {
			if !ok8 || got8 != want {
				t.Errorf("identity-%d: int8 rung = %+v ok=%v, want exact %+v", n, got8, ok8, want)
			}
		} else if ok8 {
			t.Errorf("identity-%d: int8 rung accepted a score above its cap: %+v", n, got8)
		}
		if got16, ok16 := al.StripedScan16(s, s, sc); !ok16 || got16 != want {
			t.Errorf("identity-%d: int16 rung = %+v ok=%v, want exact %+v", n, got16, ok16, want)
		}
		checkStriped(t, fmt.Sprintf("identity-%d", n), s, s, sc)
	}
}

// TestStripedSaturation16 straddles the int16 cap with a match reward
// of 300: identities of length 109/110 score 32700/33000, either side
// of 32767. The overflowing case must be flagged by both packed rungs
// and recovered exactly by the scalar rung of ScanPair's ladder.
func TestStripedSaturation16(t *testing.T) {
	g := bio.NewGenerator(24)
	sc := bio.Scoring{Match: 300, Mismatch: -300, Gap: -600}
	var al swar.Aligner
	for _, n := range []int{109, 110} {
		s := g.Random(n)
		want := scalarPair(t, s, s, sc)
		if _, ok := al.StripedScan8(s, s, sc); ok {
			t.Errorf("match=300 accepted by the int8 rung")
		}
		got16, ok16 := al.StripedScan16(s, s, sc)
		if n*sc.Match <= bio.PackedCap16 {
			if !ok16 || got16 != want {
				t.Errorf("identity-%d: int16 rung = %+v ok=%v, want exact %+v", n, got16, ok16, want)
			}
		} else if ok16 {
			t.Errorf("identity-%d: int16 rung accepted score %d above its cap", n, n*sc.Match)
		}
		if got := scanPair(t, s, s, sc); got != want {
			t.Errorf("identity-%d: ScanPair = %+v, want %+v", n, got, want)
		}
	}
}

// TestStripedWildcard covers N-laden sequences: all-N stripes, N
// columns inside otherwise matching runs, and N against N (never a
// match, like the scalar rule).
func TestStripedWildcard(t *testing.T) {
	sc := bio.DefaultScoring()
	cases := [][2]string{
		{"ACGTNNNNACGTACGTNACGT", "ACGTNNNNACGTACGTNACGT"},
		{"NNNNNNNNNN", "NNNNNNNNNN"},
		{"ACGTACGTACGT", "ACGNACGNACGN"},
		{"NANANANANANANANAN", "ANANANANANANANANA"},
	}
	for i, c := range cases {
		checkStriped(t, fmt.Sprintf("wildcard-%d", i), bio.MustSequence(c[0]), bio.MustSequence(c[1]), sc)
	}
	var al swar.Aligner
	got, ok := al.StripedScan8(bio.MustSequence("NNNNNNNNNN"), bio.MustSequence("NNNNNNNNNN"), sc)
	if !ok || got.Score != 0 {
		t.Errorf("all-N pair: %+v ok=%v, want score 0 (N never matches)", got, ok)
	}
}

// TestStripedTieBreaking hammers the coordinate rule on periodic
// sequences where the best score is achieved at many cells: the striped
// result must pick align.Scan's cell (earliest row, then earliest
// column of that row's maximum) every time.
func TestStripedTieBreaking(t *testing.T) {
	sc := bio.DefaultScoring()
	cases := [][2]string{
		{"ACACACACACAC", "ACACACACACAC"},
		{"ACACACACACAC", "CACACACACACA"},
		{"AAAAAAAA", "AAAA"},
		{"AAAA", "AAAAAAAA"},
		{"ACGTACGTACGTACGT", "ACGT"},
		{"ACGT", "ACGTACGTACGTACGT"},
		{"GGGGGGGGGGGGGGGGG", "GGGGGGGGGGGGGGGGG"},
	}
	for i, c := range cases {
		checkStriped(t, fmt.Sprintf("tie-%d", i), bio.MustSequence(c[0]), bio.MustSequence(c[1]), sc)
	}
}

// TestStripedEmpty pins the empty-input conventions against align.Scan.
func TestStripedEmpty(t *testing.T) {
	g := bio.NewGenerator(25)
	sc := bio.DefaultScoring()
	checkStriped(t, "empty-s", bio.Sequence{}, g.Random(30), sc)
	checkStriped(t, "empty-t", g.Random(30), bio.Sequence{}, sc)
	checkStriped(t, "empty-both", bio.Sequence{}, bio.Sequence{}, sc)
}

// TestStripedAlignerReuse checks that striped buffers carry no state
// across scans of varying shape, including shrinking stripes.
func TestStripedAlignerReuse(t *testing.T) {
	g := bio.NewGenerator(26)
	sc := bio.DefaultScoring()
	var al swar.Aligner
	for i := 0; i < 12; i++ {
		m := 5 + (i*53)%140
		n := 3 + (i*37)%180
		s, tt := g.Random(m), g.Random(n)
		want := scalarPair(t, s, tt, sc)
		if got, ok := al.StripedScan8(s, tt, sc); !ok || got != want {
			t.Fatalf("iteration %d (%dx%d): %+v ok=%v, want %+v", i, m, n, got, ok, want)
		}
	}
}

// ---- Band kernel differential tests ----

// scalarBandChunk replicates the preprocess runner's scalar chunk loop
// bit for bit: the reference the BandKernel must match on every output
// (columns, bottom row, hits, strict-improvement best).
type scalarBandChunk struct {
	rows bio.Sequence
	sc   bio.Scoring
	thr  int
}

func (k *scalarBandChunk) run(c *swar.ChunkArgs, saved map[int][]int32) (swar.ChunkBest, error) {
	h := len(k.rows)
	prevCol := make([]int32, h+1)
	col := make([]int32, h+1)
	prevCol[0] = c.Diag
	copy(prevCol[1:], c.Left)
	out := swar.ChunkBest{Score: c.BestIn}
	for ci := range c.Cols {
		tc := c.Cols[ci]
		if c.Top != nil {
			col[0] = c.Top[ci]
		} else {
			col[0] = 0
		}
		hits := int32(0)
		for x := 1; x <= h; x++ {
			v := int(prevCol[x-1]) + k.sc.Pair(k.rows[x-1], tc)
			if w := int(prevCol[x]) + k.sc.Gap; w > v {
				v = w
			}
			if no := int(col[x-1]) + k.sc.Gap; no > v {
				v = no
			}
			if v < 0 {
				v = 0
			}
			col[x] = int32(v)
			if v >= k.thr {
				hits++
			}
			if v > out.Score {
				out.Score, out.Row, out.Col, out.Improved = v, x-1, ci, true
			}
		}
		c.Bottom[ci] = col[h]
		c.Hits[ci] = hits
		if c.WantCol != nil && c.WantCol(ci) {
			cp := make([]int32, h)
			copy(cp, col[1:])
			saved[ci] = cp
		}
		prevCol, col = col, prevCol
	}
	copy(c.Left, prevCol[1:])
	return out, nil
}

// TestBandKernelDifferential drives random multi-chunk bands with
// non-zero borders through the striped BandKernel and the scalar
// reference, comparing every observable output.
func TestBandKernelDifferential(t *testing.T) {
	g := bio.NewGenerator(27)
	rng := rand.New(rand.NewSource(28))
	sc := bio.DefaultScoring()
	for trial := 0; trial < 30; trial++ {
		h := 1 + rng.Intn(40)
		width := 1 + rng.Intn(50)
		thr := 1 + rng.Intn(8)
		rows := g.Random(h)
		cols := g.Random(width)
		// Borders mimic mid-matrix chunk entry: small non-negative
		// carried values (real preprocess borders are clamped scores).
		diag := int32(rng.Intn(20))
		left := make([]int32, h)
		for x := range left {
			left[x] = int32(rng.Intn(20))
		}
		var top []int32
		if rng.Intn(4) > 0 {
			top = make([]int32, width)
			for x := range top {
				top[x] = int32(rng.Intn(20))
			}
		}
		bestIn := rng.Intn(15)
		saveEvery := 1 + rng.Intn(5)

		mk := func() *swar.ChunkArgs {
			l := make([]int32, h)
			copy(l, left)
			return &swar.ChunkArgs{
				Cols:    cols,
				Diag:    diag,
				Left:    l,
				Top:     top,
				BestIn:  bestIn,
				Bottom:  make([]int32, width),
				Hits:    make([]int32, width),
				WantCol: func(ci int) bool { return ci%saveEvery == 0 },
			}
		}

		wantSaved := map[int][]int32{}
		wantArgs := mk()
		ref := &scalarBandChunk{rows: rows, sc: sc, thr: thr}
		wantBest, err := ref.run(wantArgs, wantSaved)
		if err != nil {
			t.Fatal(err)
		}

		gotSaved := map[int][]int32{}
		gotArgs := mk()
		gotArgs.Save = func(ci int, col []int32) error {
			cp := make([]int32, len(col))
			copy(cp, col)
			gotSaved[ci] = cp
			return nil
		}
		kern := swar.NewBandKernel(rows, sc, thr)
		gotBest, done, err := kern.Chunk(gotArgs)
		if err != nil {
			t.Fatal(err)
		}
		if done != width {
			t.Fatalf("trial %d: kernel consumed %d of %d columns (h=%d)", trial, done, width, h)
		}
		if gotBest != wantBest {
			t.Fatalf("trial %d: best %+v, want %+v", trial, gotBest, wantBest)
		}
		for ci := 0; ci < width; ci++ {
			if gotArgs.Bottom[ci] != wantArgs.Bottom[ci] {
				t.Fatalf("trial %d col %d: bottom %d, want %d", trial, ci, gotArgs.Bottom[ci], wantArgs.Bottom[ci])
			}
			if gotArgs.Hits[ci] != wantArgs.Hits[ci] {
				t.Fatalf("trial %d col %d: hits %d, want %d", trial, ci, gotArgs.Hits[ci], wantArgs.Hits[ci])
			}
		}
		for x := 0; x < h; x++ {
			if gotArgs.Left[x] != wantArgs.Left[x] {
				t.Fatalf("trial %d row %d: final column %d, want %d", trial, x, gotArgs.Left[x], wantArgs.Left[x])
			}
		}
		if len(gotSaved) != len(wantSaved) {
			t.Fatalf("trial %d: saved %d columns, want %d", trial, len(gotSaved), len(wantSaved))
		}
		for ci, want := range wantSaved {
			got := gotSaved[ci]
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("trial %d saved col %d row %d: %d, want %d", trial, ci, x, got[x], want[x])
				}
			}
		}
	}
}

// TestBandKernelBoundRejects pins the up-front refusal: borders high
// enough that the value bound escapes even int16 must be rejected
// before any side effect (Bottom/Hits untouched).
func TestBandKernelBoundRejects(t *testing.T) {
	g := bio.NewGenerator(29)
	sc := bio.DefaultScoring()
	rows := g.Random(10)
	kern := swar.NewBandKernel(rows, sc, 1)
	left := make([]int32, 10)
	left[3] = 40000 // beyond the int16 clean cap
	args := &swar.ChunkArgs{
		Cols:   g.Random(6),
		Left:   left,
		Bottom: make([]int32, 6),
		Hits:   make([]int32, 6),
	}
	if _, done, err := kern.Chunk(args); done != 0 || err != nil {
		t.Fatalf("kernel accepted a chunk whose bound overflows int16 (done=%v err=%v)", done, err)
	}
	for ci, v := range args.Bottom {
		if v != 0 || args.Hits[ci] != 0 {
			t.Fatal("rejected chunk left side effects behind")
		}
	}
}

// TestBandKernelWidePath forces the int16 band path with borders above
// the int8 cap and checks it against the scalar reference.
func TestBandKernelWidePath(t *testing.T) {
	g := bio.NewGenerator(30)
	rng := rand.New(rand.NewSource(31))
	sc := bio.DefaultScoring()
	h, width := 12, 20
	rows := g.Random(h)
	cols := g.Random(width)
	left := make([]int32, h)
	for x := range left {
		left[x] = int32(200 + rng.Intn(100)) // above PackedCap8
	}
	top := make([]int32, width)
	for x := range top {
		top[x] = int32(200 + rng.Intn(100))
	}
	mk := func() *swar.ChunkArgs {
		l := make([]int32, h)
		copy(l, left)
		return &swar.ChunkArgs{
			Cols: cols, Diag: 250, Left: l, Top: top, BestIn: 0,
			Bottom: make([]int32, width), Hits: make([]int32, width),
		}
	}
	wantArgs := mk()
	ref := &scalarBandChunk{rows: rows, sc: sc, thr: 1}
	wantBest, _ := ref.run(wantArgs, map[int][]int32{})
	gotArgs := mk()
	kern := swar.NewBandKernel(rows, sc, 1)
	gotBest, done, err := kern.Chunk(gotArgs)
	if err != nil || done != width {
		t.Fatalf("int16 band path rejected (done=%v err=%v)", done, err)
	}
	if gotBest != wantBest {
		t.Fatalf("best %+v, want %+v", gotBest, wantBest)
	}
	for ci := 0; ci < width; ci++ {
		if gotArgs.Bottom[ci] != wantArgs.Bottom[ci] || gotArgs.Hits[ci] != wantArgs.Hits[ci] {
			t.Fatalf("col %d: bottom/hits (%d,%d), want (%d,%d)", ci,
				gotArgs.Bottom[ci], gotArgs.Hits[ci], wantArgs.Bottom[ci], wantArgs.Hits[ci])
		}
	}
	for x := 0; x < h; x++ {
		if gotArgs.Left[x] != wantArgs.Left[x] {
			t.Fatalf("row %d: final column %d, want %d", x, gotArgs.Left[x], wantArgs.Left[x])
		}
	}
}

// TestBandKernelSlicedHighBorders drives borders so high that the
// whole-chunk value bound escapes the int16 clean range — the case the
// pre-slicing kernel refused outright — and checks the column-sliced
// packed path against the scalar reference on every output, including
// saved columns whose indices must be rebased across slice boundaries.
func TestBandKernelSlicedHighBorders(t *testing.T) {
	g := bio.NewGenerator(33)
	rng := rand.New(rand.NewSource(34))
	sc := bio.DefaultScoring()
	for trial := 0; trial < 20; trial++ {
		h := 8 + rng.Intn(24)
		width := 40 + rng.Intn(40)
		rows := g.Random(h)
		cols := g.Random(width)
		// Borders a few dozen below the int16 cap: any single slice
		// fits, the whole chunk provably does not (diag alone is close
		// enough to the cap that adding min(h,width) matches escapes it).
		diag := int32(bio.PackedCap16 - 7 + rng.Intn(6))
		left := make([]int32, h)
		maxIn := diag
		for x := range left {
			left[x] = int32(bio.PackedCap16 - 60 + rng.Intn(50))
			maxIn = max(maxIn, left[x])
		}
		top := make([]int32, width)
		for x := range top {
			top[x] = int32(bio.PackedCap16 - 60 + rng.Intn(55))
			maxIn = max(maxIn, top[x])
		}
		if int(maxIn)+min(h, width)*sc.Match <= bio.PackedCap16 {
			t.Fatalf("trial %d: borders too low to force slicing", trial)
		}
		saveEvery := 1 + rng.Intn(7)
		mk := func() *swar.ChunkArgs {
			l := make([]int32, h)
			copy(l, left)
			return &swar.ChunkArgs{
				Cols: cols, Diag: diag, Left: l, Top: top,
				BestIn:  bio.PackedCap16 - 100,
				Bottom:  make([]int32, width),
				Hits:    make([]int32, width),
				WantCol: func(ci int) bool { return ci%saveEvery == 0 },
			}
		}
		wantSaved := map[int][]int32{}
		wantArgs := mk()
		ref := &scalarBandChunk{rows: rows, sc: sc, thr: 1}
		wantBest, err := ref.run(wantArgs, wantSaved)
		if err != nil {
			t.Fatal(err)
		}
		gotSaved := map[int][]int32{}
		gotArgs := mk()
		gotArgs.Save = func(ci int, col []int32) error {
			cp := make([]int32, len(col))
			copy(cp, col)
			gotSaved[ci] = cp
			return nil
		}
		kern := swar.NewBandKernel(rows, sc, 1)
		gotBest, done, err := kern.Chunk(gotArgs)
		if err != nil {
			t.Fatal(err)
		}
		// Random DNA decays from the borders, so the real values never
		// approach the cap and every slice must be accepted.
		if done != width {
			t.Fatalf("trial %d: consumed %d of %d columns (h=%d)", trial, done, width, h)
		}
		if gotBest != wantBest {
			t.Fatalf("trial %d: best %+v, want %+v", trial, gotBest, wantBest)
		}
		for ci := 0; ci < width; ci++ {
			if gotArgs.Bottom[ci] != wantArgs.Bottom[ci] || gotArgs.Hits[ci] != wantArgs.Hits[ci] {
				t.Fatalf("trial %d col %d: bottom/hits (%d,%d), want (%d,%d)", trial, ci,
					gotArgs.Bottom[ci], gotArgs.Hits[ci], wantArgs.Bottom[ci], wantArgs.Hits[ci])
			}
		}
		for x := 0; x < h; x++ {
			if gotArgs.Left[x] != wantArgs.Left[x] {
				t.Fatalf("trial %d row %d: final column %d, want %d", trial, x, gotArgs.Left[x], wantArgs.Left[x])
			}
		}
		if len(gotSaved) != len(wantSaved) {
			t.Fatalf("trial %d: saved %d columns, want %d", trial, len(gotSaved), len(wantSaved))
		}
		for ci, want := range wantSaved {
			got := gotSaved[ci]
			if got == nil {
				t.Fatalf("trial %d: saved column %d missing (slice offset rebase)", trial, ci)
			}
			for x := range want {
				if got[x] != want[x] {
					t.Fatalf("trial %d saved col %d row %d: %d, want %d", trial, ci, x, got[x], want[x])
				}
			}
		}
	}
}

// TestBandKernelMidChunkStall pins the partial-consumption contract: a
// homopolymer band growing +1 per column from near-cap borders reaches
// the int16 clean cap mid-chunk, so the kernel must consume exactly the
// columns whose values still fit, leave later outputs untouched, and
// report done < width so the caller's scalar loop finishes the chunk.
func TestBandKernelMidChunkStall(t *testing.T) {
	sc := bio.DefaultScoring()
	h, width := 16, 60
	rows := make(bio.Sequence, h)
	cols := make(bio.Sequence, width)
	for i := range rows {
		rows[i] = 'A'
	}
	for i := range cols {
		cols[i] = 'A'
	}
	start := int32(bio.PackedCap16 - 7) // 7 match columns to the cap
	left := make([]int32, h)
	for x := range left {
		left[x] = start
	}
	mk := func(w int) *swar.ChunkArgs {
		l := make([]int32, h)
		copy(l, left)
		return &swar.ChunkArgs{
			Cols: cols[:w], Diag: start, Left: l,
			Bottom: make([]int32, w), Hits: make([]int32, w),
		}
	}
	gotArgs := mk(width)
	kern := swar.NewBandKernel(rows, sc, 1)
	gotBest, done, err := kern.Chunk(gotArgs)
	if err != nil {
		t.Fatal(err)
	}
	if done == 0 || done >= width {
		t.Fatalf("expected a mid-chunk stall, consumed %d of %d columns", done, width)
	}
	// The consumed prefix must match the scalar reference run on a
	// truncated chunk with identical borders.
	wantArgs := mk(done)
	ref := &scalarBandChunk{rows: rows, sc: sc, thr: 1}
	wantBest, err := ref.run(wantArgs, map[int][]int32{})
	if err != nil {
		t.Fatal(err)
	}
	if gotBest != wantBest {
		t.Fatalf("best %+v, want %+v", gotBest, wantBest)
	}
	for ci := 0; ci < done; ci++ {
		if gotArgs.Bottom[ci] != wantArgs.Bottom[ci] || gotArgs.Hits[ci] != wantArgs.Hits[ci] {
			t.Fatalf("col %d: bottom/hits (%d,%d), want (%d,%d)", ci,
				gotArgs.Bottom[ci], gotArgs.Hits[ci], wantArgs.Bottom[ci], wantArgs.Hits[ci])
		}
	}
	for ci := done; ci < width; ci++ {
		if gotArgs.Bottom[ci] != 0 || gotArgs.Hits[ci] != 0 {
			t.Fatalf("col %d beyond the stall was written", ci)
		}
	}
	// Left must hold column done-1 so the caller's scalar continuation
	// sees the exact border state.
	for x := 0; x < h; x++ {
		if gotArgs.Left[x] != wantArgs.Left[x] {
			t.Fatalf("row %d: stalled left %d, want %d", x, gotArgs.Left[x], wantArgs.Left[x])
		}
	}
}

// TestStripedGapChains stresses the lazy-F correction loop and its
// change-mask best fold: cheap gaps on near-homopolymer pairs make the
// F wrap-around corrections span many stripe words, the regime where a
// wrong or stale change mask would drop the true best.
func TestStripedGapChains(t *testing.T) {
	g := bio.NewGenerator(35)
	cheapGap := bio.Scoring{Match: 2, Mismatch: -1, Gap: -1}
	for _, n := range []int{17, 64, 129, 300} {
		s := make(bio.Sequence, n)
		tt := make(bio.Sequence, n)
		for i := range s {
			s[i], tt[i] = 'A', 'A'
		}
		// Mismatch islands force the optimum to route around them with
		// gap chains rather than straight diagonals.
		for i := 5; i < n; i += 11 {
			tt[i] = 'C'
		}
		checkStriped(t, fmt.Sprintf("gapchain-%d", n), s, tt, cheapGap)
		// A mutated random pair under the same cheap-gap scoring.
		r := g.Random(n)
		m := g.MutatedCopy(r, bio.DefaultMutationModel())
		checkStriped(t, fmt.Sprintf("gapchain-mut-%d", n), r, m, cheapGap)
	}
}
