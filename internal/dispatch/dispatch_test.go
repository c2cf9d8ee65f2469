package dispatch

import (
	"testing"

	"genomedsm/internal/bio"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		err  bool
	}{
		{"", ModeAuto, false},
		{"auto", ModeAuto, false},
		{"fixed", ModeAuto, false}, // the retired mode's spelling is an alias
		{"scalar", ModeScalar, false},
		{"turbo", 0, true},
		{"AUTO", 0, true},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseMode(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, m := range []Mode{ModeAuto, ModeScalar} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("Mode round-trip %v → %q → %v (err %v)", m, m.String(), back, err)
		}
	}
}

// TestCalibrateCoversAllFamilies runs the real probe set (a few
// milliseconds per run), checks every family yields a usable cost
// model, and uses it as the oracle of the committed table: routers built
// on this host's measurements must reach the committed table's Pair and
// Band verdicts. A fitted overhead is the difference of two noisy
// timings, so one probe run on a loaded host can misorder the tiny-pair
// verdict (about 1 run in 20 measured); the table must match the verdict
// of the majority of seven runs.
func TestCalibrateCoversAllFamilies(t *testing.T) {
	const runs = 7
	sc := bio.DefaultScoring()
	committed := New(ModeAuto, nil)
	checks := []struct {
		name string
		of   func(r *Router) any
	}{
		{"Band(64)", func(r *Router) any { return r.Band(64) }},
		{"Band(4)", func(r *Router) any { return r.Band(4) }},
		{"Pair(4,4)", func(r *Router) any { return r.Pair(4, 4, sc, 0) }},
		{"Pair(2000,2000)", func(r *Router) any { return r.Pair(2000, 2000, sc, 0) }},
	}
	agree := make([]int, len(checks))
	for run := 0; run < runs; run++ {
		p := Calibrate()
		for _, fam := range Families {
			st, ok := p.Families[fam]
			if !ok || st.MCells <= 0 || st.MCells > 1e6 {
				t.Errorf("family %s: implausible throughput %.1f Mcells/s", fam, st.MCells)
			}
			if st.OverheadNS < 0 {
				t.Errorf("family %s: negative overhead %f", fam, st.OverheadNS)
			}
		}
		measured := New(ModeAuto, p)
		for i, c := range checks {
			if c.of(measured) == c.of(committed) {
				agree[i]++
			}
		}
	}
	for i, c := range checks {
		if 2*agree[i] <= runs {
			t.Errorf("%s: committed table says %v, but only %d of %d measured tables agree", c.name, c.of(committed), agree[i], runs)
		}
	}
}

func TestFit(t *testing.T) {
	// 1e6 cells in 2ms and 4e6 cells in 5ms → 1e9 cells/s, 1ms overhead.
	st := fit(1e6, 2e-3, 4e6, 5e-3)
	if st.MCells < 999 || st.MCells > 1001 {
		t.Fatalf("throughput %.2f, want ≈1000", st.MCells)
	}
	if st.OverheadNS < 0.99e6 || st.OverheadNS > 1.01e6 {
		t.Fatalf("overhead %.0f ns, want ≈1e6", st.OverheadNS)
	}
	// Degenerate (non-increasing time) collapses to pure throughput.
	st = fit(1e6, 5e-3, 4e6, 5e-3)
	if st.MCells <= 0 || st.OverheadNS != 0 {
		t.Fatalf("degenerate fit: %+v", st)
	}
}

// TestRouterFixedAndScalarModes pins the modes: "fixed" is auto under
// another spelling, and scalar mode forces the scalar kernels.
func TestRouterFixedAndScalarModes(t *testing.T) {
	sc := bio.DefaultScoring()
	mode, err := ParseMode("fixed")
	if err != nil || mode != ModeAuto || mode.String() != "auto" {
		t.Fatalf(`ParseMode("fixed") = %v (%q), %v; want auto`, mode, mode.String(), err)
	}
	fixed := New(mode, nil)
	scalar := New(ModeScalar, nil)

	if r := fixed.Group(100, []int{50}); r != GroupInter8 {
		t.Fatalf("fixed singleton → %v, want inter8", r)
	}
	if r := scalar.Group(100, []int{50, 60}); r != GroupScalar {
		t.Fatalf("scalar group → %v, want scalar", r)
	}
	if r := fixed.Pair(100, 100, sc, 0); r != PairStriped8 {
		t.Fatalf("fixed pair → %v, want striped8", r)
	}
	if r := scalar.Pair(100, 100, sc, 0); r != PairScalar {
		t.Fatalf("scalar pair → %v, want scalar", r)
	}
	if !fixed.Band(64) || scalar.Band(100) {
		t.Fatal("band gating: auto must allow, scalar must refuse")
	}
}

// TestPairExpectScoreProof pins the proof-based rung skip: a known
// score above a rung's clean cap must skip that rung (scalar mode starts
// past every packed rung anyway).
func TestPairExpectScoreProof(t *testing.T) {
	sc := bio.DefaultScoring()
	r := New(ModeAuto, nil)
	if got := r.Pair(5000, 5000, sc, bio.PackedCap8+1); got != PairStriped16 {
		t.Fatalf("expect>cap8 → %v, want striped16", got)
	}
	if got := r.Pair(90000, 90000, sc, bio.PackedCap16+1); got != PairScalar {
		t.Fatalf("expect>cap16 → %v, want scalar", got)
	}
}

// TestRoutingIsAFunctionOfInputs pins the rule: every lane group of
// every shape starts on the int8 ladder in auto mode and on the scalar
// kernel in scalar mode, whatever history of calls the router has seen,
// and the Pair and Band verdicts follow from the committed table alone.
func TestRoutingIsAFunctionOfInputs(t *testing.T) {
	sc := bio.DefaultScoring()
	shapes := []struct {
		q    int
		lens []int
	}{
		{1000, []int{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000}}, // uniform full group
		{1000, []int{2000, 30}},          // ragged leftover pair
		{900, []int{900, 900, 900, 900}}, // every lane can saturate int8
		{100, []int{50}},                 // singleton
		{4, []int{4, 3}},                 // tiny
		{0, []int{10}},                   // empty query
	}
	for _, mode := range []Mode{ModeAuto, ModeScalar} {
		want := GroupInter8
		if mode == ModeScalar {
			want = GroupScalar
		}
		r := New(mode, nil)
		for pass := 0; pass < 3; pass++ { // earlier calls must not move later verdicts
			for _, s := range shapes {
				if got := r.Group(s.q, s.lens); got != want {
					t.Fatalf("mode %v pass %d: Group(%d, %v) = %v, want %v", mode, pass, s.q, s.lens, got, want)
				}
			}
		}
		if got := r.GroupCounts(); len(got) != 1 || got[want.String()] != int64(3*len(shapes)) {
			t.Fatalf("mode %v: route counts %v, want all %d on %v", mode, got, 3*len(shapes), want)
		}
	}

	r := New(ModeAuto, nil)
	// Tiny pairs: per-call overhead dominates; scalar wins the pair.
	if got := r.Pair(4, 4, sc, 0); got != PairScalar {
		t.Fatalf("tiny pair → %v, want scalar", got)
	}
	if got := r.Pair(2000, 2000, sc, 0); got != PairStriped8 {
		t.Fatalf("large pair → %v, want striped8", got)
	}
	// A known score above a rung's cap skips the rung.
	if got := r.Pair(2000, 2000, sc, bio.PackedCap8+1); got != PairStriped16 {
		t.Fatalf("expect > cap8 → %v, want striped16", got)
	}
	if got := r.Pair(2000, 2000, sc, bio.PackedCap16+1); got != PairScalar {
		t.Fatalf("expect > cap16 → %v, want scalar", got)
	}
	// Band: the packed kernel for real band heights, the scalar loop for
	// sub-lane-width bands.
	if !r.Band(64) || r.Band(4) {
		t.Fatal("auto band gating wrong")
	}
}

// TestForceHooks pins the adversarial override used by the fuzz suite.
func TestForceHooks(t *testing.T) {
	r := New(ModeAuto, nil)
	r.ForceGroup = func(qLen int, lens []int) (GroupRoute, bool) { return GroupScalar, true }
	r.ForcePair = func(m, n int) (PairRoute, bool) { return PairStriped16, true }
	sc := bio.DefaultScoring()
	if got := r.Group(1000, []int{1000, 1000}); got != GroupScalar {
		t.Fatalf("ForceGroup ignored: %v", got)
	}
	if got := r.Pair(1000, 1000, sc, 0); got != PairStriped16 {
		t.Fatalf("ForcePair ignored: %v", got)
	}
}

func TestActiveDefaultIsAuto(t *testing.T) {
	SetActive(nil)
	if Active().Mode() != ModeAuto {
		t.Fatalf("default active mode %v, want auto", Active().Mode())
	}
}
