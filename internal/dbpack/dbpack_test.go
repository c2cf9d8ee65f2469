package dbpack

import (
	"testing"

	"genomedsm/internal/bio"
)

// testRecords is a small fixed database exercising the format corners:
// mixed lengths with ties (the canonical order must break them by
// index), a description, an empty description, an N run (resets the
// word indexer), and a record shorter than the word size (contributes
// no postings).
func testRecords() []bio.Record {
	return []bio.Record{
		{ID: "r0", Description: "first record", Seq: bio.Sequence("ACGTACGTACGTACGT")},
		{ID: "r1", Description: "", Seq: bio.Sequence("TTTTCCCCGGGGAAAA")},
		{ID: "r2", Description: "short", Seq: bio.Sequence("ACG")},
		{ID: "r3", Description: "with N", Seq: bio.Sequence("ACGTNNACGTACGTAATT")},
		{ID: "r4", Description: "long", Seq: bio.Sequence("ACGTACGTACGTACGTACGTACGTACGT")},
	}
}

func TestBuildRejectsBadWord(t *testing.T) {
	for _, w := range []int{1, 3, 16, -2} {
		if _, err := Build(testRecords(), w); err == nil {
			t.Errorf("Build accepted word size %d", w)
		}
	}
}
