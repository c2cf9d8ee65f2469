package bio

import "testing"

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

// TestInterleaveWords16Padding is TestInterleaveWords8Padding for the
// 4-lane 16-bit words: every lane of four targets of uneven length, N
// and lowercase included, holds its code or PadCode, and the empty
// group interleaves to no words.
func TestInterleaveWords16Padding(t *testing.T) {
	targets := []Sequence{Sequence("ACGTN"), Sequence("t"), {}, Sequence("gnA")}
	words := InterleaveWords16(nil, targets)
	if len(words) != 5 {
		t.Fatalf("got %d words, want 5", len(words))
	}
	for j, w := range words {
		for l := 0; l < PackedLanes16; l++ {
			got := uint16(w >> (uint(l) * 16))
			want := uint16(PadCode)
			if j < len(targets[l]) {
				want = uint16(BaseCode(targets[l][j]))
			}
			if got != want {
				t.Fatalf("word %d lane %d: code %d, want %d", j, l, got, want)
			}
		}
	}
	if words := InterleaveWords16(nil, make([]Sequence, PackedLanes16)); len(words) != 0 {
		t.Fatalf("empty lanes: %d words", len(words))
	}
}
