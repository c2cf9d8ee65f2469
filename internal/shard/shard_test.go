package shard

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
)

// synthInputs builds the reproducible query + database pair the tests
// scan: noise records with mutated query fragments planted every
// eighth, the same shape the CLI synthesizes.
func synthInputs(seed int64, qLen, n, baseLen int) (bio.Sequence, []bio.Record) {
	g := bio.NewGenerator(seed)
	q := g.Random(qLen)
	recs := make([]bio.Record, 0, n)
	for i := 0; i < n; i++ {
		if i%8 == 3 && qLen >= 2 {
			half := qLen / 2
			frag := q[(i*13)%half : half+(i*29)%(half+1)]
			recs = append(recs, bio.Record{
				ID: fmt.Sprintf("hom%d", i), Seq: g.MutatedCopy(frag, bio.DefaultMutationModel()),
			})
			continue
		}
		rl := baseLen/2 + (i*37)%(baseLen+1)
		recs = append(recs, bio.Record{ID: fmt.Sprintf("rec%d", i), Seq: g.Random(rl)})
	}
	return q, recs
}

// quietOptions returns cluster options that cannot false-positive a
// death during a clean test run on a slow host.
func quietOptions(shards int) Options {
	return Options{Shards: shards, Lease: time.Hour, Heartbeat: time.Second}
}

func mustEqualResults(t *testing.T, label string, got, want *search.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Hits, want.Hits) {
		t.Fatalf("%s: hits diverge\n got %+v\nwant %+v", label, got.Hits, want.Hits)
	}
	if got.Searched != want.Searched || got.Cells != want.Cells {
		t.Fatalf("%s: searched/cells %d/%d, want %d/%d",
			label, got.Searched, got.Cells, want.Searched, want.Cells)
	}
}

// mustRealignSameCells: RealignCells reads the rows of each hit's end
// block × |t| for a hit that reaches the realign pass located and the
// whole matrix |q|·|t| for one that does not, so the master's count
// equals a single node's only if every hit's end cell survived the trip
// from the workers. (Not for Lanes: 1, whose single-node realign is the
// oracle and rescans whole matrices whatever the scan located.)
func mustRealignSameCells(t *testing.T, label string, got, want *search.Result) {
	t.Helper()
	if got.RealignCells != want.RealignCells {
		t.Fatalf("%s: realigned %d cells, single node %d", label, got.RealignCells, want.RealignCells)
	}
}

// contiguousSpans cuts the canonical order into shards runs of whole
// lane groups: the partition shape the dealt plan replaced, still valid
// as a custom Options.Spans.
func contiguousSpans(n, shards int) []Span {
	groups := (n + bio.PackedLanes8 - 1) / bio.PackedLanes8
	spans := make([]Span, shards)
	for i := range spans {
		spans[i] = Span{
			Lo: min(groups*i/shards*bio.PackedLanes8, n),
			Hi: min(groups*(i+1)/shards*bio.PackedLanes8, n),
		}
	}
	return spans
}

// TestShardedMatchesSingleNode pins bit-exactness of the sharded scan
// against search.RunCtx over shard counts, option shapes and both plan
// forms: the dealt default and contiguous custom spans.
func TestShardedMatchesSingleNode(t *testing.T) {
	q, recs := synthInputs(42, 240, 48, 320)
	db := search.NewDB(recs)
	// Every lane group forced to start at the int16 rung.
	inter16 := dispatch.New(dispatch.ModeAuto, nil)
	inter16.ForceGroup = func(int, []int) (dispatch.GroupRoute, bool) { return dispatch.GroupInter16, true }
	for _, opt := range []search.Options{
		{},
		{Prune: true},
		{Router: inter16, TopK: 5},
		{Dispatch: "scalar", TopK: 3, Prune: true},
		{MinScore: 25, Prune: true},
		{NoEndpoints: true, TopK: 20},
	} {
		want, err := search.RunCtx(context.Background(), q, db, opt)
		if err != nil {
			t.Fatalf("single-node: %v", err)
		}
		for _, shards := range []int{1, 2, 3, 4, 9} {
			for _, spans := range [][]Span{nil, contiguousSpans(db.Size(), shards)} {
				copt := quietOptions(shards)
				copt.Spans = spans
				c, err := New(db, copt)
				if err != nil {
					t.Fatalf("New(%d): %v", shards, err)
				}
				got, err := c.Search(context.Background(), q, opt)
				c.Close()
				label := fmt.Sprintf("shards=%d plan=%v opt=%+v", shards, c.Spans(), opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				mustEqualResults(t, label, got, want)
				mustRealignSameCells(t, label, got, want)
			}
		}
	}
}

// TestShardedBatchMatchesSingleNode covers the multi-query path the
// serve layer uses: queries of different lengths, so the master's one
// realign pool call schedules hits across queries — the last of them
// 4 kb over records of at most 450 bases, so a hit that lost its end
// cell on the wire would show as a whole 4 kb matrix in RealignCells.
// A scan without endpoints must hand back the same located hits on both
// sides too (DeepEqual sees the unexported end cell).
func TestShardedBatchMatchesSingleNode(t *testing.T) {
	q1, recs := synthInputs(7, 200, 40, 300)
	g := bio.NewGenerator(8)
	q2, q4 := g.Random(150), g.Random(60)
	q3 := g.MutatedCopy(q1[40:160], bio.DefaultMutationModel())
	q5 := g.Random(4000)
	db := search.NewDB(recs)
	opt := search.Options{Prune: true, Workers: 4}
	batch := []search.BatchQuery{{Seq: q1}, {Seq: q2, TopK: 4}, {Seq: q3, TopK: 6}, {Seq: q4, TopK: 2}, {Seq: q5, TopK: 5}}
	want, err := search.RunBatch(context.Background(), batch, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(db, quietOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.SearchBatch(context.Background(), batch, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("query %d: errs %v / %v", i, got[i].Err, want[i].Err)
		}
		mustEqualResults(t, fmt.Sprintf("query %d", i), got[i].Result, want[i].Result)
		mustRealignSameCells(t, fmt.Sprintf("query %d", i), got[i].Result, want[i].Result)
	}
	var full int64
	for _, h := range got[4].Result.Hits {
		full += int64(len(q5)) * int64(len(recs[h.Index].Seq))
	}
	if cells := got[4].Result.RealignCells; cells == 0 || cells*2 > full {
		t.Errorf("the 4 kb query realigned %d cells of %d: its end cells did not cross the shard wire", cells, full)
	}
	opt.NoEndpoints = true
	if want, err = search.RunBatch(context.Background(), batch, db, opt); err != nil {
		t.Fatal(err)
	}
	if got, err = c.SearchBatch(context.Background(), batch, opt); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		mustEqualResults(t, fmt.Sprintf("query %d without endpoints", i), got[i].Result, want[i].Result)
	}
}

// TestMergeTieBreakAcrossShardBoundaries pins the canonical merge order
// when per-shard heaps hold floor-tied scores: identical records score
// identically, the K-th place ties break by record index ascending, and
// the winners must not depend on where the shard cuts fall — including
// custom plans that slice straight through a tie run.
func TestMergeTieBreakAcrossShardBoundaries(t *testing.T) {
	g := bio.NewGenerator(99)
	strong := g.Random(120)
	weak := g.Random(120)
	q := strong
	// 24 records, all the same length so the canonical order is pure
	// index order: 12 copies of the query itself (top scores, all tied)
	// interleaved with 12 copies of an unrelated sequence.
	var recs []bio.Record
	for i := 0; i < 24; i++ {
		seq := weak
		if i%2 == 0 {
			seq = strong
		}
		recs = append(recs, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: seq})
	}
	db := search.NewDB(recs)
	const k = 8
	opt := search.Options{TopK: k, Prune: true}
	want, err := search.RunCtx(context.Background(), q, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the expected winners are the 8 lowest-indexed strong
	// copies, in index order — the tie-break the merge must preserve.
	for i, h := range want.Hits {
		if h.Index != 2*i {
			t.Fatalf("baseline hit %d is record %d, want %d (tie-break drifted)", i, h.Index, 2*i)
		}
	}
	cases := []struct {
		name   string
		shards int
		spans  []Span
	}{
		{"1 shard", 1, nil},
		{"2 shards", 2, nil},
		{"3 shards", 3, nil},
		{"5 shards", 5, nil},
		{"24 shards", 24, nil},
		{"cut inside tie run", 3, []Span{{Lo: 0, Hi: 5}, {Lo: 5, Hi: 11}, {Lo: 11, Hi: 24}}},
		{"one record spans", 4, []Span{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}, {Lo: 2, Hi: 3}, {Lo: 3, Hi: 24}}},
		{"empty first shard", 3, []Span{{Lo: 0, Hi: 0}, {Lo: 0, Hi: 13}, {Lo: 13, Hi: 24}}},
	}
	for _, tc := range cases {
		copt := quietOptions(tc.shards)
		copt.Spans = tc.spans
		c, err := New(db, copt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := c.Search(context.Background(), q, opt)
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mustEqualResults(t, tc.name, got, want)
	}
}

// TestKillOneShardMidQuery is the acceptance pin: a shard killed after
// its first group scan must be invisible in the results across ≥8
// seeds, and the counters must prove a kill, a detected death and a
// reassignment actually happened.
func TestKillOneShardMidQuery(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		q, recs := synthInputs(seed, 220, 48, 320)
		db := search.NewDB(recs)
		opt := search.Options{Prune: true, TopK: 7}
		want, err := search.RunCtx(context.Background(), q, db, opt)
		if err != nil {
			t.Fatal(err)
		}
		victim := int(seed) % 4
		c, err := New(db, Options{
			Shards:    4,
			Lease:     250 * time.Millisecond,
			Heartbeat: 25 * time.Millisecond,
			Kills:     []Kill{{Shard: victim, AfterGroups: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Search(context.Background(), q, opt)
		if err != nil {
			c.Close()
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := c.Stats()
		c.Close()
		mustEqualResults(t, fmt.Sprintf("seed %d (killed shard %d)", seed, victim), got, want)
		// The reassigned span's hits arrive located like everyone else's.
		mustRealignSameCells(t, fmt.Sprintf("seed %d (killed shard %d)", seed, victim), got, want)
		if st.Kills < 1 {
			t.Fatalf("seed %d: no kill recorded: %+v", seed, st)
		}
		if st.DeadDetected < 1 {
			t.Fatalf("seed %d: death never detected: %+v", seed, st)
		}
		if st.Reassigns < 1 {
			t.Fatalf("seed %d: span never reassigned: %+v", seed, st)
		}
		if !st.Shards[victim].Killed {
			t.Fatalf("seed %d: victim %d not marked killed: %+v", seed, victim, st.Shards[victim])
		}
	}
}

// TestLossDupReorderStaysExact drives the protocol through heavy
// transport faults: results stay bit-identical, and every lost attempt
// is counted as a retry.
func TestLossDupReorderStaysExact(t *testing.T) {
	q, recs := synthInputs(5, 200, 40, 300)
	db := search.NewDB(recs)
	opt := search.Options{Prune: true}
	want, err := search.RunCtx(context.Background(), q, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		c, err := New(db, Options{
			Shards: 4,
			Lease:  time.Hour, // loss cannot kill a node; no false deaths
			Faults: &FaultConfig{
				Seed: seed, Loss: 0.4, Dup: 0.2, Reorder: 0.2,
				DelayBase: 100 * time.Microsecond, DelayJitter: time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Search(context.Background(), q, opt)
		st := c.Stats()
		c.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mustEqualResults(t, fmt.Sprintf("faults seed %d", seed), got, want)
		if st.Retries == 0 {
			t.Errorf("seed %d: fault plan injected no loss (loss=0.4 over %d+ sends)", seed, 8)
		}
	}
}

// TestPerQueryCancelStopsRemoteWork pins the serve satellite: one
// query's cancellation reaches the shards and stops its scan work
// there, while the other query of the batch completes bit-exactly.
func TestPerQueryCancelStopsRemoteWork(t *testing.T) {
	q1, recs := synthInputs(3, 300, 96, 500)
	q2 := bio.NewGenerator(4).Random(200)
	db := search.NewDB(recs)
	opt := search.Options{Lanes: 1} // scalar: slow enough that the cancel lands mid-scan
	wantBatch, err := search.RunBatch(context.Background(),
		[]search.BatchQuery{{Seq: q2, TopK: 5}}, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(db, quietOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before scatter: deterministic
	got, err := c.SearchBatch(context.Background(), []search.BatchQuery{
		{Seq: q1, Ctx: ctx},
		{Seq: q2, TopK: 5},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err == nil {
		t.Fatal("cancelled query returned no error")
	}
	if got[0].Result.Searched >= db.Size() {
		t.Fatalf("cancelled query still scanned all %d records remotely", db.Size())
	}
	if got[1].Err != nil {
		t.Fatalf("surviving query errored: %v", got[1].Err)
	}
	mustEqualResults(t, "surviving query", got[1].Result, wantBatch[0].Result)
}

// TestLossDeliversAtLeastOnce pins the transport's loss contract, the
// DSM layer's: a lost attempt costs one backoff and is counted as one
// retry, and then the message arrives. On the bare transport every send
// is delivered exactly once (no Dup), Retries equals the lost attempts
// the seed draws, and the draws replay per link whatever order the
// links send in. Through a cluster, the master sends each request id
// exactly once — there is no retransmit for a worker to dedup.
func TestLossDeliversAtLeastOnce(t *testing.T) {
	const nodes, perLink = 3, 40
	faults := &FaultConfig{Seed: 17, Loss: 0.6}
	type link struct{ from, to int }
	var links []link
	for from := 0; from < nodes; from++ {
		for to := 0; to < nodes; to++ {
			if from != to {
				links = append(links, link{from, to})
			}
		}
	}
	// run sends perLink messages on every link, in the given link order,
	// and returns each link's lost attempts and deliveries.
	run := func(order []link) (lost, got map[link]int64) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		got = make(map[link]int64)
		handlers := make([]func(msg), nodes)
		for i := range handlers {
			handlers[i] = func(m msg) {
				mu.Lock()
				got[link{m.from, m.to}]++
				mu.Unlock()
				wg.Done()
			}
		}
		stop := make(chan struct{})
		defer close(stop)
		net := newTransport(handlers, faults, stop)
		lost = make(map[link]int64)
		for _, l := range order {
			before := net.retries.Load()
			wg.Add(perLink)
			for k := 0; k < perLink; k++ {
				net.send(msg{from: l.from, to: l.to, class: cFloor})
			}
			lost[l] = net.retries.Load() - before
		}
		wg.Wait()
		return lost, got
	}
	lost, got := run(links)
	reversed := slices.Clone(links)
	slices.Reverse(reversed)
	lost2, _ := run(reversed)
	draws := newTransport(make([]func(msg), nodes), faults, nil)
	var total int64
	for _, l := range links {
		if got[l] != perLink {
			t.Errorf("link %v: %d of %d sends delivered", l, got[l], perLink)
		}
		var drawn int64
		for k := uint64(1); k <= perLink; k++ {
			drawn += int64(draws.lost(msg{from: l.from, to: l.to, class: cFloor}, k))
		}
		if lost[l] != drawn {
			t.Errorf("link %v: %d retries counted, the seed draws %d lost attempts", l, lost[l], drawn)
		}
		if lost2[l] != lost[l] {
			t.Errorf("link %v: %d lost attempts sent first, %d sent last", l, lost[l], lost2[l])
		}
		total += drawn
	}
	if total == 0 {
		t.Fatal("60% loss drew no lost attempts")
	}

	q, recs := synthInputs(9, 150, 24, 250)
	db := search.NewDB(recs)
	c, err := New(db, Options{Shards: 2, Lease: time.Hour, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	requests := make(map[uint64]int)
	for i := range c.workers {
		handle := c.net.handlers[i]
		c.net.handlers[i] = func(m msg) {
			if m.class == cRequest {
				mu.Lock()
				requests[m.payload.(request).ID]++
				mu.Unlock()
			}
			handle(m)
		}
	}
	want, err := search.RunCtx(context.Background(), q, db, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Search(context.Background(), q, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "lossy", res, want)
	mu.Lock()
	defer mu.Unlock()
	if len(requests) != len(c.workers) {
		t.Errorf("%d request ids for %d spans", len(requests), len(c.workers))
	}
	for id, n := range requests {
		if n != 1 {
			t.Errorf("request %d delivered %d times", id, n)
		}
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Errorf("60%% loss counted no retries: %+v", st)
	}
}

// TestGossipCarriesOnlyRisingEvidence: no floorUpdate carries evidence
// at or below its sender's hint. The hint is a floor the master already
// published, so such evidence could not raise it (Floor.Push's fast
// path); sending it only costs messages. One shard scanning on one
// worker keeps the hint still between a score and its flush, so the
// check reads the hint at delivery.
func TestGossipCarriesOnlyRisingEvidence(t *testing.T) {
	q, recs := synthInputs(31, 220, 64, 320)
	db := search.NewDB(recs)
	opt := search.Options{Prune: true, TopK: 3, Workers: 1}
	want, err := search.RunCtx(context.Background(), q, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(db, Options{Shards: 1, Lease: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := c.workers[0]
	handle := c.net.handlers[c.masterID()]
	var evidence, stale int
	c.net.handlers[c.masterID()] = func(m msg) {
		if m.class == cFloor {
			u := m.payload.(floorUpdate)
			w.mu.Lock()
			hint := w.qs[u.QID].floor.Load()
			w.mu.Unlock()
			for _, ev := range u.Evidence {
				evidence++
				if int64(ev.Score) <= hint {
					stale++
				}
			}
		}
		handle(m)
	}
	got, err := c.Search(context.Background(), q, opt)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "filtered gossip", got, want)
	if evidence == 0 {
		t.Fatal("the pruned scan gossiped no evidence")
	}
	if stale > 0 {
		t.Errorf("%d of %d gossiped scores were at or below the sender's hint", stale, evidence)
	}
}

// TestStatsShape sanity-checks the health snapshot after clean traffic.
func TestStatsShape(t *testing.T) {
	q, recs := synthInputs(21, 150, 24, 250)
	db := search.NewDB(recs)
	c, err := New(db, Options{Shards: 3, Lease: time.Hour, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Search(context.Background(), q, search.Options{Prune: true}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Queries != 1 || st.Batches != 1 {
		t.Fatalf("queries/batches %d/%d, want 1/1", st.Queries, st.Batches)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("%d shard healths, want 3", len(st.Shards))
	}
	var answered int64
	for _, h := range st.Shards {
		if !h.Alive || h.Killed {
			t.Fatalf("clean shard unhealthy: %+v", h)
		}
		answered += h.Answered
	}
	if answered != 3 {
		t.Fatalf("%d spans answered, want 3", answered)
	}
}

// TestSearchAfterClose and hook rejection.
func TestSearchBatchValidation(t *testing.T) {
	q, recs := synthInputs(33, 100, 8, 200)
	db := search.NewDB(recs)
	c, err := New(db, quietOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SearchBatch(context.Background(), []search.BatchQuery{
		{Seq: q, OnScore: func(int, int) {}},
	}, search.Options{}); err == nil {
		t.Fatal("reserved hooks accepted")
	}
	c.Close()
	if _, err := c.Search(context.Background(), q, search.Options{}); err == nil {
		t.Fatal("closed cluster accepted a search")
	}
	if _, err := New(db, Options{Shards: 0}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := New(db, Options{Shards: 2, Kills: []Kill{{Shard: 5}}}); err == nil {
		t.Fatal("out-of-range kill accepted")
	}
	bad := quietOptions(2)
	bad.Spans = []Span{{Lo: 0, Hi: 3}, {Lo: 4, Hi: 8}}
	if _, err := New(db, bad); err == nil {
		t.Fatal("gapped custom plan accepted")
	}
}

// TestGossipIsSynchronous: without a FaultConfig, delivery is a direct
// call, so when a worker's flush raises the global floor every live
// worker's hint already holds the new value as flush returns — the
// flushing worker's next group, and every other shard's, prunes
// against it.
func TestGossipIsSynchronous(t *testing.T) {
	_, recs := synthInputs(23, 100, 24, 200)
	c, err := New(search.NewDB(recs), quietOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const qid, k = 1 << 40, 3
	c.mu.Lock()
	c.floors[qid] = search.NewFloor(k)
	c.mu.Unlock()
	states := make([]*queryState, len(c.workers))
	for i, w := range c.workers {
		states[i] = w.acquireQuery(qid)
	}
	buf := &gossipBuf{w: c.workers[1], qid: qid, st: states[1]}
	for _, step := range []struct {
		ev    []scoreEv
		floor int64
	}{
		{[]scoreEv{{40, 0}, {55, 1}, {70, 2}}, 40}, // K records: the floor is the K-th score
		{[]scoreEv{{90, 3}}, 55},
		{[]scoreEv{{30, 4}}, 55}, // below the hint: not even sent
	} {
		for _, ev := range step.ev {
			buf.add(ev.Score, ev.Index)
		}
		buf.flush()
		for i, st := range states {
			if got := st.floor.Load(); got != step.floor {
				t.Fatalf("after flushing %v: worker %d holds floor %d, want %d", step.ev, i, got, step.floor)
			}
		}
	}
	if st := c.Stats(); st.GossipUpdates != 2 || st.FloorBroadcasts != 2 {
		t.Errorf("%d gossip updates / %d broadcasts, want 2 / 2", st.GossipUpdates, st.FloorBroadcasts)
	}
}

// TestClusterGoroutines: the transport delivers by direct call, so an
// idle cluster runs one goroutine per shard (its heartbeat) and no
// message loop, and Close leaves none behind.
func TestClusterGoroutines(t *testing.T) {
	q, recs := synthInputs(29, 150, 40, 250)
	db := search.NewDB(recs)
	opt := search.Options{Prune: true}
	// Warm whatever the single-node scan starts on first use.
	if _, err := search.RunCtx(context.Background(), q, db, opt); err != nil {
		t.Fatal(err)
	}
	settle := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want ≤ %d", what, runtime.NumGoroutine(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	before := runtime.NumGoroutine()
	const shards = 3
	c, err := New(db, Options{Shards: shards, Lease: time.Hour, Heartbeat: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(context.Background(), q, opt); err != nil {
		t.Fatal(err)
	}
	settle(before+shards, "idle cluster")
	c.Close()
	settle(before, "after Close")
}

// homologBatch is the shape of the root BenchmarkSearchShardedPruned: a
// dozen long planted homologs of a 500-base source, the longest
// records, among short noise, and a 4-query batch against them — two
// near copies of the source, unrelated noise and a half-length
// fragment — over a database carrying its lane layout.
func homologBatch() ([]search.BatchQuery, *search.DB) {
	g := bio.NewGenerator(89)
	src := g.Random(500)
	var recs []bio.Record
	for i := 0; i < 12; i++ {
		core := g.MutatedCopy(src, bio.DefaultMutationModel())
		pad := max(650-len(core), 0)
		seq := append(g.Random(pad/2), core...)
		recs = append(recs, bio.Record{ID: fmt.Sprintf("hom%d", i), Seq: append(seq, g.Random(pad-pad/2)...)})
	}
	for i := 0; i < 270; i++ {
		recs = append(recs, bio.Record{ID: fmt.Sprintf("r%d", i), Seq: g.Random(60 + i*67%68)})
	}
	for i := range recs {
		j := (i*97 + 13) % len(recs)
		recs[i], recs[j] = recs[j], recs[i]
	}
	full := g.MutatedCopy(src, bio.DefaultMutationModel())
	batch := []search.BatchQuery{
		{Seq: full, TopK: 10},
		{Seq: g.MutatedCopy(full, bio.MutationModel{SubstitutionRate: 0.01}), TopK: 10},
		{Seq: g.Random(150), TopK: 10},
		{Seq: g.MutatedCopy(src[:250], bio.DefaultMutationModel()), TopK: 10},
	}
	db := search.NewDB(recs)
	db.EnsureLayout()
	return batch, db
}

// TestShardsLocateOnlyMergeSurvivors counts the entries the shards of a
// pruned 2-shard homolog batch locate. First on each shard's own part,
// deterministically: one worker scans the span with the gossiped floor
// arriving one group late — a FloorHint reading 0 until the span's
// first group is done and the single node's K-th best score after — and
// the entries that reach the finish pass are counted once as they are
// and once with the hint reading 0 again after the last group, so that
// nothing is trimmed. The trim must drop entries, keep none below the
// K-th best score, and keep at least the single node's hits. Then live:
// the Hits of the shards' responses over three batches — what they
// located and shipped — at least the single node's count, with the
// merged hits the single node's.
func TestShardsLocateOnlyMergeSurvivors(t *testing.T) {
	batch, db := homologBatch()
	opt := search.Options{Prune: true}
	want, err := search.RunBatch(context.Background(), batch, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	single := 0
	kth := make([]int, len(want)) // the single node's K-th best score
	for i, br := range want {
		single += len(br.Result.Hits)
		if hits := br.Result.Hits; len(hits) == batch[i].TopK {
			kth[i] = hits[len(hits)-1].Score
		}
	}
	c, err := New(db, quietOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	located := func(view *search.DB, groups int, trim bool) int {
		qs := make([]search.BatchQuery, len(batch))
		for i, bq := range batch {
			scanned := 0
			qs[i] = search.BatchQuery{
				Seq: bq.Seq, TopK: bq.TopK,
				OnGroup: func() { scanned++ },
				FloorHint: func() int {
					if scanned == 0 || scanned == groups && !trim {
						return 0
					}
					return kth[i]
				},
			}
		}
		brs, err := search.RunBatch(context.Background(), qs, view, search.Options{Prune: true, NoEndpoints: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i, br := range brs {
			for _, h := range br.Result.Hits {
				if trim && h.Score < kth[i] {
					t.Errorf("query %d: a hit scoring %d below the K-th best %d survived the trim", i, h.Score, kth[i])
				}
			}
			n += len(br.Result.Hits)
		}
		return n
	}
	trimmed, untrimmed := 0, 0
	for si, sp := range c.Spans() {
		groups := 0
		sp.runs(func(int, int) { groups++ })
		trimmed += located(c.views[si], groups, true)
		untrimmed += located(c.views[si], groups, false)
	}
	if trimmed >= untrimmed || trimmed < single {
		t.Errorf("the spans locate %d entries per batch, %d untrimmed: want fewer, and at least the single node's %d", trimmed, untrimmed, single)
	}

	var shipped atomic.Int64
	handle := c.net.handlers[c.masterID()]
	c.net.handlers[c.masterID()] = func(m msg) {
		if m.class == cResponse {
			for _, wr := range m.payload.(response).Results {
				shipped.Add(int64(len(wr.Hits)))
			}
		}
		handle(m)
	}
	const batches = 3
	for b := 0; b < batches; b++ {
		got, err := c.SearchBatch(context.Background(), batch, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Result.Hits, want[i].Result.Hits) {
				t.Fatalf("batch %d query %d: hits %+v, single node %+v", b, i, got[i].Result.Hits, want[i].Result.Hits)
			}
		}
	}
	live := float64(shipped.Load()) / batches
	t.Logf("located per batch: spans %d trimmed, %d untrimmed; live %.1f; single node %d", trimmed, untrimmed, live, single)
	if live < float64(single) {
		t.Errorf("the shards shipped %.1f entries per batch, fewer than the single node's %d hits", live, single)
	}
}

// TestWorkerPanicFailsBatch plants a panic in one shard worker's scan,
// then in the first lane pass a shard's finish pass runs to locate its
// entries: each time the batch fails with that shard's error — not
// retried, not reassigned — the process lives on, and the next batch on
// the same cluster matches a single node.
func TestWorkerPanicFailsBatch(t *testing.T) {
	q, recs := synthInputs(7, 200, 40, 300)
	db := search.NewDB(recs)
	c, err := New(db, quietOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	opt := search.Options{Prune: true, TopK: 5}
	want, err := search.RunCtx(context.Background(), q, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	check := func(phase string, err error, wantErr *regexp.Regexp) {
		t.Helper()
		if err == nil || !wantErr.MatchString(err.Error()) {
			t.Fatalf("%s: err = %v, want %v", phase, err, wantErr)
		}
		if st := c.Stats(); st.Reassigns != 0 || st.DeadDetected != 0 {
			t.Errorf("%s: a panicked scan was replayed: %+v", phase, st)
		}
		got, err := c.Search(context.Background(), q, opt)
		if err != nil {
			t.Fatalf("%s: batch after the panic: %v", phase, err)
		}
		mustEqualResults(t, phase+": after the panic", got, want)
	}

	TestHookScan = func(shard int) {
		if shard == 1 {
			panic("planted")
		}
	}
	_, err = c.Search(context.Background(), q, opt)
	TestHookScan = nil
	check("scan", err, regexp.MustCompile(`^shard 1: scan panicked: planted$`))

	// The shards locate before the master's finish pass starts, so the
	// first pass to run is one shard's.
	var fired atomic.Bool
	search.TestHookFinish = func([]int) {
		if !fired.Swap(true) {
			panic("planted")
		}
	}
	_, err = c.Search(context.Background(), q, opt)
	search.TestHookFinish = nil
	check("locate", err, regexp.MustCompile(`^shard [01]: search: finishing hit "[^"]+" of query 0 panicked: planted$`))
}
