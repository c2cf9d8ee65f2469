package recovery

import (
	"math"
	"testing"
)

// TestBackoffSchedule pins the capped-exponential shape: each case lists
// the un-jittered delays expected per attempt.
func TestBackoffSchedule(t *testing.T) {
	cases := []struct {
		name string
		b    Backoff
		want []float64 // per attempt 0, 1, 2, ...
	}{
		{
			name: "doubling to cap",
			b:    Backoff{Base: 1e-3, Factor: 2, Cap: 8e-3},
			want: []float64{1e-3, 2e-3, 4e-3, 8e-3, 8e-3, 8e-3},
		},
		{
			name: "factor below one clamps to constant",
			b:    Backoff{Base: 2e-3, Factor: 0.5, Cap: 8e-3},
			want: []float64{2e-3, 2e-3, 2e-3},
		},
		{
			name: "no cap grows unbounded",
			b:    Backoff{Base: 1e-3, Factor: 3},
			want: []float64{1e-3, 3e-3, 9e-3, 27e-3},
		},
		{
			name: "base above cap clamps immediately",
			b:    Backoff{Base: 5e-3, Factor: 2, Cap: 2e-3},
			want: []float64{2e-3, 2e-3},
		},
		{
			name: "zero base disables retries",
			b:    Backoff{Factor: 2, Cap: 8e-3, Jitter: 0.5, Seed: 7},
			want: []float64{0, 0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for attempt, want := range tc.want {
				got := tc.b.Delay(42, attempt)
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("attempt %d: delay %g, want %g", attempt, got, want)
				}
			}
		})
	}
}

// TestBackoffJitterDeterminism: jitter is a pure function of (seed, key,
// attempt) — equal inputs replay identical delays, different seeds or
// keys spread, and every jittered delay stays inside [d, d·(1+Jitter)].
func TestBackoffJitterDeterminism(t *testing.T) {
	b := Backoff{Base: 1e-3, Factor: 2, Cap: 8e-3, Jitter: 0.25, Seed: 99}
	for attempt := 0; attempt < 6; attempt++ {
		for key := uint64(0); key < 16; key++ {
			d1 := b.Delay(key, attempt)
			d2 := b.Delay(key, attempt)
			if d1 != d2 {
				t.Fatalf("delay(key=%d, attempt=%d) not deterministic: %g vs %g", key, attempt, d1, d2)
			}
			base := Backoff{Base: b.Base, Factor: b.Factor, Cap: b.Cap}.Delay(key, attempt)
			if d1 < base || d1 > base*(1+b.Jitter) {
				t.Fatalf("delay(key=%d, attempt=%d) = %g outside [%g, %g]", key, attempt, d1, base, base*(1+b.Jitter))
			}
		}
	}
	other := b
	other.Seed = 100
	same := 0
	for key := uint64(0); key < 32; key++ {
		if b.Delay(key, 1) == other.Delay(key, 1) {
			same++
		}
	}
	if same == 32 {
		t.Fatalf("changing the seed left all 32 jittered delays identical")
	}
}

// TestBackoffTotal: the wait behind lost attempts is the running sum of
// their delays — zero when nothing was lost — so every at-least-once
// sender charges one schedule.
func TestBackoffTotal(t *testing.T) {
	b := DefaultBackoff()
	for key := uint64(0); key < 8; key++ {
		sum := 0.0
		for lost := 0; lost <= 4; lost++ {
			if got := b.Total(key, lost); got != sum {
				t.Fatalf("Total(key=%d, lost=%d) = %g, want %g", key, lost, got, sum)
			}
			sum += b.Delay(key, lost)
		}
	}
}

func TestParseKill(t *testing.T) {
	cases := []struct {
		spec    string
		want    Kill
		wantErr bool
	}{
		{spec: "1@3", want: Kill{Node: 1, Point: 3}},
		{spec: "0@1", want: Kill{Node: 0, Point: 1}},
		{spec: " 2@5+0.05 ", want: Kill{Node: 2, Point: 5, After: 0.05}},
		{spec: "3", wantErr: true},
		{spec: "x@3", wantErr: true},
		{spec: "1@0", wantErr: true}, // points are 1-based
		{spec: "1@-2", wantErr: true},
		{spec: "1@2+-1", wantErr: true},
		{spec: "1@two", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseKill(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseKill(%q) = %+v, want error", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseKill(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseKill(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		back, err := ParseKill(got.String())
		if err != nil || back != got {
			t.Errorf("ParseKill(%q).String() = %q does not round-trip: %+v, %v", tc.spec, got.String(), back, err)
		}
	}
}

func TestParseKills(t *testing.T) {
	ks, err := ParseKills(" 1@3, 0@2+0.01 ")
	if err != nil {
		t.Fatalf("ParseKills: %v", err)
	}
	want := []Kill{{Node: 1, Point: 3}, {Node: 0, Point: 2, After: 0.01}}
	if len(ks) != len(want) || ks[0] != want[0] || ks[1] != want[1] {
		t.Fatalf("ParseKills = %+v, want %+v", ks, want)
	}
	if ks, err := ParseKills(""); err != nil || ks != nil {
		t.Fatalf("ParseKills(\"\") = %+v, %v; want nil, nil", ks, err)
	}
	if _, err := ParseKills("1@1,bogus"); err == nil {
		t.Fatalf("ParseKills with a bad element did not error")
	}
}

func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.Lease <= 0 || p.HeartbeatEvery <= 0 || p.RestartDelay <= 0 || p.Retry.Base <= 0 {
		t.Fatalf("WithDefaults left zero fields: %+v", p)
	}
	custom := Params{Lease: 1e-3, HeartbeatEvery: 5, RestartDelay: 2e-3,
		Retry: Backoff{Base: 1e-4, Factor: 2, Cap: 1e-3}}.WithDefaults()
	if custom.Lease != 1e-3 || custom.HeartbeatEvery != 5 || custom.RestartDelay != 2e-3 || custom.Retry.Base != 1e-4 {
		t.Fatalf("WithDefaults overrode explicit values: %+v", custom)
	}
	// A seed set without a schedule survives the default fill.
	seeded := Params{Retry: Backoff{Seed: 77}}.WithDefaults()
	if seeded.Retry.Seed != 77 || seeded.Retry.Base != DefaultBackoff().Base {
		t.Fatalf("WithDefaults dropped the retry seed: %+v", seeded.Retry)
	}
}
