package bio

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randSeq draws n residues including occasional 'N' and lowercase
// bytes, exercising the full BaseCode table.
func randSeq(rng *rand.Rand, n int) Sequence {
	const letters = "ACGTacgtNn"
	s := make(Sequence, n)
	for i := range s {
		s[i] = letters[rng.Intn(len(letters))]
	}
	return s
}

func lensOf(targets []Sequence) []int {
	lens := make([]int, len(targets))
	for i, t := range targets {
		lens[i] = len(t)
	}
	return lens
}

// TestPackedProfileFromWords pins the zero-copy exactness claim of the
// pack-v2 lane layout: a profile built from interleaved code words is
// bit-identical — every plus and minus row, every metadata field — to
// the profile built from the target bytes themselves.
func TestPackedProfileFromWords(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	scorings := []Scoring{
		DefaultScoring(),
		{Match: 5, Mismatch: -4, Gap: -8},
		{Match: 1, Mismatch: -1, Gap: -1},
		{Match: 127, Mismatch: -127, Gap: -127},
	}
	for trial := 0; trial < 200; trial++ {
		nt := 1 + rng.Intn(PackedLanes8)
		targets := make([]Sequence, nt)
		maxLen := 1 + rng.Intn(40)
		for l := range targets {
			n := rng.Intn(maxLen + 1)
			targets[l] = randSeq(rng, n)
		}
		if trial%7 == 0 {
			// Degenerate group: every lane empty.
			for l := range targets {
				targets[l] = nil
			}
		}
		words := InterleaveWords8(nil, targets)
		sc := scorings[trial%len(scorings)]
		want := NewPackedProfile8(targets, sc)
		got := NewPackedProfile8FromWords(words, lensOf(targets), sc)
		if want == nil || got == nil {
			t.Fatalf("trial %d: nil profile (want=%v got=%v)", trial, want == nil, got == nil)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: from-words profile differs from from-targets profile\ntargets=%q sc=%+v", trial, targets, sc)
		}
	}
}

// TestPackedProfileFromWordsRejects pins the nil conditions: they must
// match NewPackedProfile8 exactly, plus the extra corrupt-layout guard
// when the word count disagrees with the claimed lane lengths.
func TestPackedProfileFromWordsRejects(t *testing.T) {
	targets := []Sequence{Sequence("ACGT"), Sequence("AC")}
	words := InterleaveWords8(nil, targets)
	lens := lensOf(targets)
	if p := NewPackedProfile8FromWords(words, lens, Scoring{Match: 200, Mismatch: -1, Gap: -1}); p != nil {
		t.Fatalf("match magnitude beyond the int8 cap must yield nil")
	}
	if p := NewPackedProfile8FromWords(words, lens, Scoring{Match: 1, Mismatch: -200, Gap: -1}); p != nil {
		t.Fatalf("mismatch magnitude beyond the int8 cap must yield nil")
	}
	if p := NewPackedProfile8FromWords(words, make([]int, 9), DefaultScoring()); p != nil {
		t.Fatalf("more than 8 lanes must yield nil")
	}
	if p := NewPackedProfile8FromWords(words[:len(words)-1], lens, DefaultScoring()); p != nil {
		t.Fatalf("truncated words must yield nil, not a wrong profile")
	}
	if p := NewPackedProfile8FromWords(append(words[:len(words):len(words)], 0), lens, DefaultScoring()); p != nil {
		t.Fatalf("overlong words must yield nil, not a wrong profile")
	}
}

// TestInterleaveWords8Padding checks the pad byte: every lane past its
// target's end — and every lane with no target — must hold PadCode.
func TestInterleaveWords8Padding(t *testing.T) {
	targets := []Sequence{Sequence("ACG"), Sequence("T")}
	words := InterleaveWords8(nil, targets)
	if len(words) != 3 {
		t.Fatalf("got %d words, want 3", len(words))
	}
	for j, w := range words {
		for l := 0; l < PackedLanes8; l++ {
			got := byte(w >> (uint(l) * 8))
			want := byte(PadCode)
			if l < len(targets) && j < len(targets[l]) {
				want = BaseCode(targets[l][j])
			}
			if got != want {
				t.Fatalf("word %d lane %d: code %d, want %d", j, l, got, want)
			}
		}
	}
}

func FuzzPackedProfileFromWords(f *testing.F) {
	f.Add([]byte("ACGTNACGT"), []byte("TTTT"), int8(2), int8(-3))
	f.Add([]byte(""), []byte("N"), int8(1), int8(-1))
	f.Fuzz(func(t *testing.T, a, b []byte, match, mismatch int8) {
		if match < 0 || mismatch > 0 {
			t.Skip()
		}
		sc := Scoring{Match: int(match), Mismatch: int(mismatch), Gap: -1}
		targets := []Sequence{Sequence(a), Sequence(b)}
		words := InterleaveWords8(nil, targets)
		want := NewPackedProfile8(targets, sc)
		got := NewPackedProfile8FromWords(words, lensOf(targets), sc)
		if (want == nil) != (got == nil) {
			t.Fatalf("nil disagreement: want=%v got=%v", want == nil, got == nil)
		}
		if want != nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("profiles differ for %q %q %+v", a, b, sc)
		}
	})
}

// TestPackedProfileRebuild pins the in-place builders: one profile
// rebuilt over and over — int8 from bytes, int16, int8 from layout
// words, groups wider and narrower than the last, after builds that
// returned nil — holds, row for row, what the fresh constructor builds,
// whatever its backing array held before.
func TestPackedProfileRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scorings := []Scoring{DefaultScoring(), {Match: 5, Mismatch: -4, Gap: -8}, {Match: 200, Mismatch: -1, Gap: -1}}
	var p PackedProfile
	for trial := 0; trial < 300; trial++ {
		lanes := PackedLanes8
		kind := trial % 3
		if kind == 1 {
			lanes = PackedLanes16
		}
		targets := make([]Sequence, 1+rng.Intn(lanes))
		maxLen := rng.Intn(60)
		for l := range targets {
			targets[l] = randSeq(rng, rng.Intn(maxLen+1))
		}
		sc := scorings[rng.Intn(len(scorings))]
		var want, got *PackedProfile
		switch kind {
		case 0:
			want, got = NewPackedProfile8(targets, sc), p.Build8(targets, sc)
		case 1:
			want, got = NewPackedProfile16(targets, sc), p.Build16(targets, sc)
		default:
			words := InterleaveWords8(nil, targets)
			want, got = NewPackedProfile8FromWords(words, lensOf(targets), sc), p.Build8FromWords(words, lensOf(targets), sc)
		}
		if (want == nil) != (got == nil) {
			t.Fatalf("trial %d: fresh profile nil %v, rebuilt nil %v", trial, want == nil, got == nil)
		}
		if want == nil {
			continue
		}
		if got != &p {
			t.Fatalf("trial %d: the rebuild returned another profile", trial)
		}
		if got.Lanes() != want.Lanes() || got.Words() != want.Words() || got.Cap() != want.Cap() || got.Shift() != want.Shift() {
			t.Fatalf("trial %d: rebuilt geometry %d/%d/%d/%d, fresh %d/%d/%d/%d", trial,
				got.Lanes(), got.Words(), got.Cap(), got.Shift(), want.Lanes(), want.Words(), want.Cap(), want.Shift())
		}
		for _, c := range []byte("ACGTN") {
			if !slices.Equal(got.PlusRow(c), want.PlusRow(c)) || !slices.Equal(got.MinusRow(c), want.MinusRow(c)) {
				t.Fatalf("trial %d: rebuilt rows of %c differ from the fresh profile's", trial, c)
			}
		}
	}
}
