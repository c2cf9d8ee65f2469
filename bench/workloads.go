package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
	"genomedsm/internal/server"
)

// Sizes, client counts and flags below are the benchmark's definition,
// frozen so that numbers from different commits compare; README.md
// holds the sizing record. They are constants, not knobs.

// workload is one traffic mix against one database.
type workload struct {
	name     string
	why      string
	shards   int // ≥ 2: `serve -shards N`, and a cluster in the in-process layers
	traceIDs int // requests peeled in the traced pass
	gen      func(rng *rand.Rand, g *bio.Generator) ([]bio.Record, []request)
}

// request is one POST /search: the body the binary receives, the
// queries it carries (for the oracle and the in-process layers), and
// the hits the oracle expects, one slice per query.
type request struct {
	body    []byte
	single  bool // {"query":…} form, answered with a bare result object
	queries []query
}

type query struct {
	seq  bio.Sequence
	topK int
	want []search.Hit
}

// inputs is everything a run derives from the seed.
type inputs struct {
	recs  []bio.Record
	fasta []byte
	reqs  []request
	// first is what a launch sends for its first answer: a query too short
	// for its content to decide the time, so that set-up and cold start
	// time the start of the process and not one of the workload's scans
	// (lat_p50_ms has those), whose cost moves 57..95 ms with the seed.
	first request
	bases int64 // Σ record lengths: the gcups denominator per query base
}

// firstQueryLen is the length of a launch's first query.
const firstQueryLen = 24

var workloads = []workload{
	{
		name:     "tiny_single",
		why:      "100 us scans: HTTP, JSON, admission and the dispatcher hop are most of the request, the kernels almost none",
		traceIDs: 40, gen: genTinySingle,
	},
	{
		name:     "uniform_scan",
		why:      "no homologs: pruning saves nothing, so int8 kernels and group scheduling over the workers are the request; largest pack",
		traceIDs: 16, gen: genUniformScan,
	},
	{
		name:     "skewed_pruned",
		why:      "planted homologs scanned first ratchet the floor at once, so record skip and in-kernel abandon decide the time",
		traceIDs: 16, gen: genSkewedPruned,
	},
	{
		name:   "mixed_batch_sharded",
		why:    "4-query batches on 2 shards: the only user of route switching, int16 retries, batch sharing and shard scatter/gossip/merge",
		shards: 2, traceIDs: 16, gen: genMixedBatch,
	},
	{
		name:     "long_query",
		why:      "20 kb queries: column state falls out of L1, two lane groups feed the workers, scalar realign of the hits is about half the request",
		traceIDs: 8, gen: genLongQuery,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// spreadLens returns n lengths evenly spaced over [lo, hi] in a seeded
// order: the multiset — and so the database size and the cell count of
// a scan — is the same for every seed, only the arrangement differs.
func spreadLens(rng *rand.Rand, n, lo, hi int) []int {
	lens := make([]int, n)
	for i, p := range rng.Perm(n) {
		lens[i] = lo + p*(hi-lo)/max(n-1, 1)
	}
	return lens
}

func randomRecords(rng *rand.Rand, g *bio.Generator, prefix string, n, lo, hi int) []bio.Record {
	recs := make([]bio.Record, n)
	for i, l := range spreadLens(rng, n, lo, hi) {
		recs[i] = bio.Record{ID: fmt.Sprintf("%s%04d", prefix, i), Seq: g.Random(l)}
	}
	return recs
}

// planted returns n mutated copies of src, each padded with random
// flanks to exactly length bases.
func planted(rng *rand.Rand, g *bio.Generator, src bio.Sequence, n, length int) []bio.Record {
	recs := make([]bio.Record, n)
	for i := range recs {
		core := g.MutatedCopy(src, bio.DefaultMutationModel())
		if len(core) > length {
			core = core[:length]
		}
		pad := length - len(core)
		left := rng.Intn(pad + 1)
		seq := append(g.Random(left), core...)
		seq = append(seq, g.Random(pad-left)...)
		recs[i] = bio.Record{ID: fmt.Sprintf("hom%04d", i), Seq: seq}
	}
	return recs
}

// shuffled interleaves the records in a seeded order so that record
// index carries no information about length or homology.
func shuffled(rng *rand.Rand, recs []bio.Record) []bio.Record {
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

func singleRequest(seq bio.Sequence, topK int) request {
	body, err := json.Marshal(server.RequestJSON{Query: string(seq), TopK: topK})
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return request{body: body, single: true, queries: []query{{seq: seq, topK: topK}}}
}

func batchRequest(topK int, seqs ...bio.Sequence) request {
	req := request{}
	var rj server.RequestJSON
	for _, s := range seqs {
		rj.Queries = append(rj.Queries, server.QueryJSON{Seq: string(s), TopK: topK})
		req.queries = append(req.queries, query{seq: s, topK: topK})
	}
	body, err := json.Marshal(rj)
	if err != nil {
		panic(err)
	}
	req.body = body
	return req
}

func genTinySingle(rng *rand.Rand, g *bio.Generator) ([]bio.Record, []request) {
	recs := randomRecords(rng, g, "rec", 64, 40, 64)
	reqs := make([]request, 256)
	for i, l := range spreadLens(rng, len(reqs), 16, 32) {
		reqs[i] = singleRequest(g.Random(l), 5)
	}
	return recs, reqs
}

func genUniformScan(rng *rand.Rand, g *bio.Generator) ([]bio.Record, []request) {
	recs := randomRecords(rng, g, "rec", 256, 500, 1500)
	reqs := make([]request, 8)
	for i := range reqs {
		reqs[i] = singleRequest(g.Random(500), 10)
	}
	return recs, reqs
}

func genSkewedPruned(rng *rand.Rand, g *bio.Generator) ([]bio.Record, []request) {
	src := g.Random(600)
	recs := planted(rng, g, src, 12, 1000)
	recs = shuffled(rng, append(recs, randomRecords(rng, g, "rec", 300, 200, 900)...))
	reqs := make([]request, 8)
	for i := range reqs {
		reqs[i] = singleRequest(g.MutatedCopy(src, bio.DefaultMutationModel()), 10)
	}
	return recs, reqs
}

func genMixedBatch(rng *rand.Rand, g *bio.Generator) ([]bio.Record, []request) {
	src := g.Random(500)
	recs := planted(rng, g, src, 12, 650)
	recs = shuffled(rng, append(recs, randomRecords(rng, g, "rec", 270, 60, 127)...))
	nearDup := bio.MutationModel{SubstitutionRate: 0.01}
	reqs := make([]request, 2)
	for i := range reqs {
		full := g.MutatedCopy(src, bio.DefaultMutationModel())
		reqs[i] = batchRequest(10,
			full,
			g.MutatedCopy(full, nearDup),
			g.Random(150),
			g.MutatedCopy(src[:250], bio.DefaultMutationModel()),
		)
	}
	return recs, reqs
}

func genLongQuery(rng *rand.Rand, g *bio.Generator) ([]bio.Record, []request) {
	recs := randomRecords(rng, g, "rec", 16, 400, 600)
	reqs := make([]request, 2)
	for i := range reqs {
		reqs[i] = singleRequest(g.Random(20000), 10)
	}
	return recs, reqs
}

// generate derives a workload's inputs from the seed alone. The
// workload name is mixed in so that two workloads never share a
// database at one seed.
func (w *workload) generate(seed int64) (*inputs, error) {
	var mix int64
	for _, c := range w.name {
		mix = mix*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + mix))
	g := bio.NewGenerator(rng.Int63())
	in := &inputs{}
	in.recs, in.reqs = w.gen(rng, g)
	in.first = singleRequest(g.Random(firstQueryLen), 5)
	var buf bytes.Buffer
	if err := bio.WriteFASTA(&buf, in.recs...); err != nil {
		return nil, err
	}
	in.fasta = buf.Bytes()
	for _, r := range in.recs {
		in.bases += int64(len(r.Seq))
	}
	return in, nil
}

// oracle fills every query's expected hits from the in-process scalar
// path, once per distinct query.
func (in *inputs) oracle() error {
	fill := func(r *request) error {
		for qi := range r.queries {
			q := &r.queries[qi]
			res, err := search.Run(q.seq, in.recs, search.Options{Lanes: 1, TopK: q.topK})
			if err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			q.want = res.Hits
		}
		return nil
	}
	for ri := range in.reqs {
		if err := fill(&in.reqs[ri]); err != nil {
			return err
		}
	}
	return fill(&in.first)
}

// cells is the full-matrix cell count of one request: Σ|q| × database
// bases, the denominator the repo's benches already use, so pruning
// reads as speed-up.
func (in *inputs) cells(r *request) int64 {
	var n int64
	for _, q := range r.queries {
		n += int64(len(q.seq)) * in.bases
	}
	return n
}

// checkResponse compares one 200 response with the oracle, field by
// field: index, id, score and the four coordinates of every hit.
func checkResponse(r *request, body []byte) error {
	var results []server.ResultJSON
	if r.single {
		var one server.ResultJSON
		if err := json.Unmarshal(body, &one); err != nil {
			return fmt.Errorf("bad response: %w", err)
		}
		results = []server.ResultJSON{one}
	} else {
		var env server.ResponseJSON
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("bad response: %w", err)
		}
		results = env.Results
	}
	if len(results) != len(r.queries) {
		return fmt.Errorf("%d results for %d queries", len(results), len(r.queries))
	}
	for i, res := range results {
		if res.Error != "" {
			return fmt.Errorf("query %d: %s", i, res.Error)
		}
		if err := compareHits(r.queries[i].want, res.Hits); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

func compareHits(want []search.Hit, got []server.HitJSON) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, oracle has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Index != w.Index || g.ID != w.ID || g.Score != w.Score ||
			g.QBegin != w.QBegin || g.QEnd != w.QEnd || g.TBegin != w.TBegin || g.TEnd != w.TEnd {
			return fmt.Errorf("hit %d is %+v, oracle has %+v", i, g, w)
		}
	}
	return nil
}
