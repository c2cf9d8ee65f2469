package dbpack

import "genomedsm/internal/bio"

// testRecords is a small fixed database exercising the format corners:
// mixed lengths with ties (the canonical order must break them by
// index), a description, an empty description, an N run, and a
// 3-base record (a lane that is almost all padding).
func testRecords() []bio.Record {
	return []bio.Record{
		{ID: "r0", Description: "first record", Seq: bio.Sequence("ACGTACGTACGTACGT")},
		{ID: "r1", Description: "", Seq: bio.Sequence("TTTTCCCCGGGGAAAA")},
		{ID: "r2", Description: "short", Seq: bio.Sequence("ACG")},
		{ID: "r3", Description: "with N", Seq: bio.Sequence("ACGTNNACGTACGTAATT")},
		{ID: "r4", Description: "long", Seq: bio.Sequence("ACGTACGTACGTACGTACGTACGTACGT")},
	}
}
