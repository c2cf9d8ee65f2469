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

// TestRouterFixedAndScalarModes pins the modes: "fixed" is auto under
// another spelling, and scalar mode forces the scalar kernels.
func TestRouterFixedAndScalarModes(t *testing.T) {
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
	if r := fixed.Pair(100, 100, 0); r != PairStriped8 {
		t.Fatalf("fixed pair → %v, want striped8", r)
	}
	if r := scalar.Pair(100, 100, 0); r != PairScalar {
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
	r := New(ModeAuto, nil)
	if got := r.Pair(5000, 5000, bio.PackedCap8+1); got != PairStriped16 {
		t.Fatalf("expect>cap8 → %v, want striped16", got)
	}
	if got := r.Pair(90000, 90000, bio.PackedCap16+1); got != PairScalar {
		t.Fatalf("expect>cap16 → %v, want scalar", got)
	}
}

// TestRoutingIsAFunctionOfInputs pins the rule: every lane group of
// every shape starts on the int8 ladder in auto mode and on the scalar
// kernel in scalar mode, whatever history of calls the router has seen;
// Pair starts at the widest rung the known score leaves open once the
// matrix reaches the constant cell cutoff, and Band takes the packed
// kernel from a word of rows on.
func TestRoutingIsAFunctionOfInputs(t *testing.T) {
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

	pairs := []struct {
		m, n, expect int
		auto         PairRoute
	}{
		{4, 4, 0, PairScalar},     // tiny: the profile build dominates
		{5, 257, 0, PairScalar},   // 1285 cells, just under the cutoff
		{2, 643, 0, PairStriped8}, // 1286 cells, the cutoff
		{512, 2, 0, PairScalar},   // m = 512, the widest query on which the
		{512, 3, 0, PairStriped8}, // retired table's verdict is the cutoff
		{513, 2, 0, PairScalar},   // past it, the same cutoff holds
		{513, 3, 0, PairStriped8},
		{2000, 2000, 0, PairStriped8},
		{2000, 2000, 127, PairStriped8}, // a score int8 lanes still hold
		{2000, 2000, 128, PairStriped16},
		{2000, 2000, 32767, PairStriped16},
		{2000, 2000, 32768, PairScalar},
		{5, 257, 128, PairScalar}, // the cutoff binds at every start rung
	}
	for _, mode := range []Mode{ModeAuto, ModeScalar} {
		r := New(mode, nil)
		for _, p := range pairs {
			want := p.auto
			if mode == ModeScalar {
				want = PairScalar
			}
			if got := r.Pair(p.m, p.n, p.expect); got != want {
				t.Errorf("mode %v: Pair(%d, %d, %d) = %v, want %v", mode, p.m, p.n, p.expect, got, want)
			}
		}
		for rows, want := range map[int]bool{4: false, 7: false, 8: true, 64: true} {
			want = want && mode == ModeAuto
			if got := r.Band(rows); got != want {
				t.Errorf("mode %v: Band(%d) = %v, want %v", mode, rows, got, want)
			}
		}
	}
}

// TestForceHooks pins the adversarial override used by the fuzz suite.
func TestForceHooks(t *testing.T) {
	r := New(ModeAuto, nil)
	r.ForceGroup = func(qLen int, lens []int) (GroupRoute, bool) { return GroupScalar, true }
	r.ForcePair = func(m, n int) (PairRoute, bool) { return PairStriped16, true }
	if got := r.Group(1000, []int{1000, 1000}); got != GroupScalar {
		t.Fatalf("ForceGroup ignored: %v", got)
	}
	if got := r.Pair(1000, 1000, 0); got != PairStriped16 {
		t.Fatalf("ForcePair ignored: %v", got)
	}
}

func TestActiveDefaultIsAuto(t *testing.T) {
	SetActive(nil)
	if Active().Mode() != ModeAuto {
		t.Fatalf("default active mode %v, want auto", Active().Mode())
	}
}
