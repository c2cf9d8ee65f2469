package dispatch

import "testing"

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
}

// TestRoutingIsAFunctionOfInputs pins the rule: every lane group of
// every shape starts on the int8 ladder in auto mode and on the scalar
// kernel in scalar mode, whatever history of calls the router has seen.
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
}

// TestForceHooks pins the adversarial override used by the fuzz suite.
func TestForceHooks(t *testing.T) {
	r := New(ModeAuto, nil)
	r.ForceGroup = func(qLen int, lens []int) (GroupRoute, bool) { return GroupScalar, true }
	if got := r.Group(1000, []int{1000, 1000}); got != GroupScalar {
		t.Fatalf("ForceGroup ignored: %v", got)
	}
}

func TestActiveDefaultIsAuto(t *testing.T) {
	SetActive(nil)
	if Active().Mode() != ModeAuto {
		t.Fatalf("default active mode %v, want auto", Active().Mode())
	}
}
