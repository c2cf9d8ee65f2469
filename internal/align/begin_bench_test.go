package align_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/search"
)

// homologHits returns the final hits of the root benchmarks' homolog
// batch (bench_test.go's benchHomologBatch, rebuilt here from the same
// generator): a dozen long planted homologs of a 500-base source among
// 270 short noise records, searched by two near copies of the source,
// unrelated noise and a half-length fragment, top 10 each.
func homologHits(b *testing.B) (qs []bio.Sequence, db []bio.Record, hits [][]search.Hit) {
	g := bio.NewGenerator(89)
	src := g.Random(500)
	for i := 0; i < 12; i++ {
		core := g.MutatedCopy(src, bio.DefaultMutationModel())
		pad := max(650-len(core), 0)
		seq := append(g.Random(pad/2), core...)
		db = append(db, bio.Record{ID: fmt.Sprintf("hom%d", i), Seq: append(seq, g.Random(pad-pad/2)...)})
	}
	for i := 0; i < 270; i++ {
		db = append(db, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: g.Random(60 + i*67%68)})
	}
	for i := range db {
		j := (i*97 + 13) % len(db)
		db[i], db[j] = db[j], db[i]
	}
	full := g.MutatedCopy(src, bio.DefaultMutationModel())
	qs = []bio.Sequence{full, g.MutatedCopy(full, bio.MutationModel{SubstitutionRate: 0.01}), g.Random(150), g.MutatedCopy(src[:250], bio.DefaultMutationModel())}
	batch := make([]search.BatchQuery, len(qs))
	for i, q := range qs {
		batch[i] = search.BatchQuery{Seq: q, TopK: 10}
	}
	res, err := search.RunBatch(context.Background(), batch, search.NewDB(db), search.Options{Prune: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range res {
		hits = append(hits, r.Result.Hits)
	}
	return qs, db, hits
}

// BenchmarkBeginReachVsAnchored runs every final hit of the homolog
// batch through Begin, whose score-to-go floor drops the cells that
// cannot reach the hit's score, and through the same sweep without the
// floor (Theorem 6.2's pruning alone), alternating which goes first per
// iteration, and reports the time ratio anchored/reach: what the floor
// buys on the begin sweeps the finish pass runs. ci.sh gates it.
func BenchmarkBeginReachVsAnchored(b *testing.B) {
	qs, db, hits := homologHits(b)
	sc := bio.DefaultScoring()
	var rt align.Retriever
	arms := [2]func(s, t bio.Sequence, sc bio.Scoring, endI, endJ, k int) (int, int, align.RetrieveStats, bool){rt.Begin, rt.BeginAnchored}
	run := func(anchored bool) time.Duration {
		sweep := arms[0]
		if anchored {
			sweep = arms[1]
		}
		start := time.Now()
		for qi, hs := range hits {
			for _, h := range hs {
				if _, _, _, ok := sweep(qs[qi], db[h.Index].Seq, sc, h.QEnd, h.TEnd, h.Score); !ok {
					b.Fatalf("no alignment of %s ends at (%d,%d)", h.ID, h.QEnd, h.TEnd)
				}
			}
		}
		return time.Since(start)
	}
	run(true)
	run(false)
	var reach, anchored time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			reach += run(false)
			anchored += run(true)
		} else {
			anchored += run(true)
			reach += run(false)
		}
	}
	b.ReportMetric(float64(anchored)/float64(reach), "anchored/reach")
}
