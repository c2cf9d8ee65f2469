package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
)

// Kill schedules one shard crash for fault injection: the worker dies
// after its AfterGroups-th per-query lane-group scan — mid-scan by
// construction whenever the shard has more work than that. A dead
// worker stops answering and heartbeating; the master detects the
// expired lease and replays the span on a survivor.
type Kill struct {
	Shard       int
	AfterGroups int
}

// Options configures a Cluster.
type Options struct {
	// Shards is the worker count (required, ≥ 1).
	Shards int
	// Lease is the heartbeat lease; a shard whose lease expires is
	// declared dead and its spans replay on survivors (default 3s). A
	// false positive — a slow shard declared dead — costs duplicate
	// work, never correctness: the master accepts one response per span
	// and every response for a span is identical.
	Lease time.Duration
	// Heartbeat is the lease renewal period (default Lease/8); a span
	// waiting on its response re-checks the target's lease this often.
	Heartbeat time.Duration
	// Faults injects seeded transport faults (nil = reliable transport).
	Faults *FaultConfig
	// Kills schedules worker crashes.
	Kills []Kill
	// Spans overrides the computed partition (tests and fuzzing);
	// must be a valid partition for Shards shards.
	Spans []Span
}

func (o Options) withDefaults() Options {
	if o.Lease <= 0 {
		o.Lease = 3 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.Lease / 8
	}
	return o
}

// Cluster is the master plus its in-process worker shards. Build with
// New, search with Search/SearchBatch, inspect with Stats, and Close
// when done. Safe for concurrent searches.
type Cluster struct {
	db      *search.DB
	opt     Options
	spans   []Span
	views   []*search.DB // views[i] scans spans[i]
	net     *transport
	workers []*worker
	stop    chan struct{}
	closed  atomic.Bool
	beating sync.WaitGroup // the workers' heartbeat goroutines

	qid atomic.Uint64 // query ids (floor gossip, cancels)
	rid atomic.Uint64 // request ids: one per send, deduped by the worker

	mu      sync.Mutex
	waiters map[uint64]chan response
	floors  map[uint64]*search.Floor

	lastBeat []atomic.Int64 // unix nanos of each shard's last heartbeat
	dead     []atomic.Bool  // master's failure-detector verdicts
	lat      []latAgg
	ct       counters
}

// New partitions db across opt.Shards workers and starts them.
func New(db *search.DB, opt Options) (*Cluster, error) {
	if db == nil {
		return nil, errors.New("shard: nil database")
	}
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", opt.Shards)
	}
	opt = opt.withDefaults()
	spans := opt.Spans
	if spans == nil {
		spans = PlanSpans(db, opt.Shards)
	}
	if len(spans) != opt.Shards {
		return nil, fmt.Errorf("shard: plan has %d spans for %d shards", len(spans), opt.Shards)
	}
	if err := ValidateSpans(spans, db.Size()); err != nil {
		return nil, err
	}
	views := make([]*search.DB, len(spans))
	for i, sp := range spans {
		var err error
		if views[i], err = sp.view(db); err != nil {
			return nil, err
		}
	}
	for _, k := range opt.Kills {
		if k.Shard < 0 || k.Shard >= opt.Shards {
			return nil, fmt.Errorf("shard: kill names shard %d of %d", k.Shard, opt.Shards)
		}
	}
	c := &Cluster{
		db:       db,
		opt:      opt,
		spans:    spans,
		views:    views,
		stop:     make(chan struct{}),
		waiters:  make(map[uint64]chan response),
		floors:   make(map[uint64]*search.Floor),
		lastBeat: make([]atomic.Int64, opt.Shards),
		dead:     make([]atomic.Bool, opt.Shards),
		lat:      make([]latAgg, opt.Shards),
	}
	c.workers = make([]*worker, opt.Shards)
	handlers := make([]func(msg), opt.Shards+1)
	for i := range c.workers {
		var killAfter int64
		for _, k := range opt.Kills {
			if k.Shard == i {
				killAfter = int64(k.AfterGroups)
				if killAfter < 1 {
					killAfter = 1
				}
			}
		}
		c.workers[i] = newWorker(c, i, killAfter)
		handlers[i] = c.workers[i].handle
	}
	handlers[opt.Shards] = c.handle
	// Every handler is installed before the first heartbeat can send.
	c.net = newTransport(handlers, opt.Faults, c.stop)
	now := time.Now().UnixNano()
	for i, w := range c.workers {
		// The lease clock starts now: a worker that never heartbeats is
		// declared dead one lease from startup.
		c.lastBeat[i].Store(now)
		c.beating.Add(1)
		go w.beats(opt.Heartbeat)
	}
	return c, nil
}

// Close stops the cluster: in-flight scans abort at their next group
// boundary, and Close returns once the heartbeat goroutines have
// exited. Safe to call twice.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	close(c.stop)
	for _, w := range c.workers {
		w.cancel()
	}
	c.beating.Wait()
}

// Spans returns the partition (for tests and /statsz).
func (c *Cluster) Spans() []Span { return c.spans }

func (c *Cluster) masterID() int { return len(c.workers) }

func (c *Cluster) send(from, to int, cl class, payload any) {
	c.net.send(msg{from: from, to: to, class: cl, payload: payload})
}

// handle is the master's message handler: response routing, lease
// renewal, floor gossip. It runs on the sender's goroutine and must not
// block (see transport).
func (c *Cluster) handle(m msg) {
	switch m.class {
	case cResponse:
		r := m.payload.(response)
		c.mu.Lock()
		ch := c.waiters[r.ID]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- r:
			default: // duplicate response; one is enough
			}
		}
	case cBeat:
		b := m.payload.(heartbeat)
		c.lastBeat[b.Shard].Store(time.Now().UnixNano())
	case cFloor:
		c.onGossip(m.payload.(floorUpdate))
	}
}

// onGossip folds a worker's evidence into the query's global floor — a
// search.Floor, the same bounded heap and validity argument as the
// single-node pruning floor — and broadcasts a rise to every live
// shard. Evidence is deduped by record index, so replayed spans
// and duplicated messages cannot count one record twice — the floor
// stays valid (K distinct eligible records score ≥ it) under every
// fault the transport can draw.
func (c *Cluster) onGossip(u floorUpdate) {
	c.ct.gossipUpdates.Add(1)
	c.mu.Lock()
	gf := c.floors[u.QID]
	c.mu.Unlock()
	if gf == nil {
		return // query finished (or unpruned); stale evidence
	}
	rose := false
	for _, ev := range u.Evidence {
		if gf.Push(ev.Score, ev.Index) {
			rose = true
		}
	}
	if !rose {
		return
	}
	c.ct.floorBroadcasts.Add(1)
	floor := gf.Get()
	for i := range c.workers {
		if !c.dead[i].Load() {
			c.send(c.masterID(), i, cFloor, floorSet{QID: u.QID, Floor: floor})
		}
	}
}

// shardDead evaluates (and latches) the failure detector's verdict for
// one shard: dead once its lease has expired.
func (c *Cluster) shardDead(i int) bool {
	if c.dead[i].Load() {
		return true
	}
	beat := time.Unix(0, c.lastBeat[i].Load())
	if time.Since(beat) <= c.opt.Lease {
		return false
	}
	if !c.dead[i].Swap(true) {
		c.ct.deadDetected.Add(1)
	}
	return true
}

// survivor picks the lowest-id live shard — deterministic, so every
// span manager replaying work converges on the same target.
func (c *Cluster) survivor() (int, bool) {
	for i := range c.workers {
		if !c.shardDead(i) {
			return i, true
		}
	}
	return 0, false
}

// Search runs one query through the cluster.
func (c *Cluster) Search(ctx context.Context, q bio.Sequence, opt search.Options) (*search.Result, error) {
	brs, err := c.SearchBatch(ctx, []search.BatchQuery{{Seq: q}}, opt)
	if err != nil {
		return nil, err
	}
	if brs[0].Err != nil {
		return nil, brs[0].Err
	}
	return brs[0].Result, nil
}

// SearchBatch scatters the batch to every shard and merges the
// per-shard results. Results are bit-identical to search.RunBatch of
// the same batch over the same database with the same options —
// including under shard kills, message loss, duplication and
// reordering. Per-query contexts propagate: a cancelled query's scan
// work stops on every shard at the next lane-group boundary, and its
// BatchResult carries the context error plus partial diagnostics. The
// queries' FloorHint/OnScore/OnGroup hooks are owned by the shard
// protocol and must be nil.
func (c *Cluster) SearchBatch(ctx context.Context, queries []search.BatchQuery, opt search.Options) ([]search.BatchResult, error) {
	if c.closed.Load() {
		return nil, errors.New("shard: cluster closed")
	}
	if len(queries) == 0 {
		return nil, nil
	}
	for i, bq := range queries {
		if bq.FloorHint != nil || bq.OnScore != nil || bq.OnGroup != nil {
			return nil, fmt.Errorf("shard: query %d sets scan hooks reserved for the shard protocol", i)
		}
	}
	sc := opt.Scoring
	if sc == (bio.Scoring{}) {
		sc = bio.DefaultScoring()
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	c.ct.batches.Add(1)
	c.ct.queries.Add(int64(len(queries)))

	nq := len(queries)
	type qmeta struct {
		qid uint64
		ctx context.Context
		k   int
	}
	metas := make([]qmeta, nq)
	wqs := make([]wireQuery, nq)
	for i, bq := range queries {
		qid := c.qid.Add(1)
		qctx := bq.Ctx
		if qctx == nil {
			qctx = ctx
		}
		k := bq.TopK
		if k <= 0 {
			k = opt.TopK
		}
		if k <= 0 {
			k = 10
		}
		minScore := bq.MinScore
		if minScore == 0 {
			minScore = opt.MinScore
		}
		metas[i] = qmeta{qid: qid, ctx: qctx, k: k}
		wqs[i] = wireQuery{QID: qid, Seq: bq.Seq, TopK: k, MinScore: minScore}
		if opt.Prune {
			c.mu.Lock()
			c.floors[qid] = search.NewFloor(k)
			c.mu.Unlock()
		}
		// Until the batch returns, a query's cancellation fans out to
		// the shards, so a client disconnect stops remote scan work,
		// not just the merge.
		stop := context.AfterFunc(qctx, func() {
			for i := range c.workers {
				if !c.dead[i].Load() {
					c.send(c.masterID(), i, cCancel, cancelMsg{QID: qid})
				}
			}
		})
		defer stop()
	}
	defer func() {
		c.mu.Lock()
		for _, m := range metas {
			delete(c.floors, m.qid)
		}
		c.mu.Unlock()
	}()

	spanResults := make([][]wireResult, len(c.spans))
	spanErrs := make([]error, len(c.spans))
	var wg sync.WaitGroup
	for si := range c.spans {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			spanResults[si], spanErrs[si] = c.runSpan(ctx, si, wqs, opt)
		}(si)
	}
	wg.Wait()
	for _, err := range spanErrs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := make([]search.BatchResult, nq)
	for i := range queries {
		m := metas[i]
		qerr := m.ctx.Err()
		res := &search.Result{}
		var pst *search.PruneStats
		if opt.Prune {
			pst = &search.PruneStats{}
			res.Prune = pst
		}
		var hits []search.Hit
		partial := false
		for si := range c.spans {
			wr := spanResults[si][i]
			res.PaddedCells += wr.Padded
			if pst != nil && wr.Prune != nil {
				pst.Skipped += wr.Prune.Skipped
				pst.Abandoned += wr.Prune.Abandoned
				pst.Scanned += wr.Prune.Scanned
				pst.CellsSaved += wr.Prune.CellsSaved
				if wr.Prune.FloorFinal > pst.FloorFinal {
					// A shard-local floor is globally valid evidence: its
					// K records are records of the full database too.
					pst.FloorFinal = wr.Prune.FloorFinal
				}
			}
			if wr.Cancelled {
				partial = true
			}
			if wr.Cancelled || qerr != nil {
				res.Searched += wr.Searched
				res.Cells += wr.Cells
			} else {
				hits = append(hits, wr.Hits...)
			}
		}
		if qerr == nil && partial {
			// A shard saw this query's cancel but the context has not
			// reported it here yet; it fired either way.
			qerr = context.Canceled
		}
		if qerr != nil {
			out[i] = search.BatchResult{Result: res, Err: qerr}
			continue
		}
		res.Searched = c.db.Size()
		res.Cells = int64(len(queries[i].Seq)) * c.db.TotalBases()
		// Merge under the result order (search.SortHits: score descending,
		// record index ascending on ties), then keep the K best. Every
		// global winner survives its own span's top K, spans are
		// disjoint, and one response per span reached here, so this
		// reproduces the single-node merge bit for bit.
		search.SortHits(hits)
		if len(hits) > m.k {
			hits = hits[:m.k]
		}
		res.Hits = hits
		if pst != nil && len(hits) == m.k && hits[m.k-1].Score > pst.FloorFinal {
			// The final floor comes from the merged hits, not the gossip
			// heap: a full top K is K distinct records scoring ≥ the K-th
			// score — the single-node tracker's exact final value — while
			// the gossip heap only knows whichever floor updates arrived
			// before the spans answered, which would make the reported
			// floor vary with transport delays on replays. Gossip
			// evidence is always ≤ the true K-th best, so the hits
			// dominate anything it could add.
			pst.FloorFinal = hits[m.k-1].Score
		}
		out[i] = search.BatchResult{Result: res}
	}
	if !opt.NoEndpoints {
		// The merged global winners of every query realign in one pool
		// call, sized by the request's worker count like a single-node
		// scan — not per shard, and not query by query.
		if err := search.RealignBatch(ctx, queries, out, c.db.Records(), sc, opt.Workers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runSpan drives one span to completion: send the request once (the
// transport delivers at least once), wait for its response, and replay
// the span on a survivor under a fresh request id once the target's
// lease expires. Exactly one response is accepted, so a false-positive
// death (or a duplicate delivery) can never double the span's records
// into the merge.
func (c *Cluster) runSpan(ctx context.Context, home int, wqs []wireQuery, opt search.Options) ([]wireResult, error) {
	sp := c.spans[home]
	tick := time.NewTicker(c.opt.Heartbeat)
	defer tick.Stop()
	var id uint64
	defer func() {
		c.mu.Lock()
		delete(c.waiters, id)
		c.mu.Unlock()
	}()
	for target := home; ; {
		if c.shardDead(target) {
			nt, ok := c.survivor()
			if !ok {
				return nil, fmt.Errorf("shard: span %v lost: no live shard remains", sp)
			}
			target = nt
			c.ct.reassigns.Add(1)
			c.lat[target].reassigned.Add(1)
		}
		ch := make(chan response, 1)
		c.mu.Lock()
		delete(c.waiters, id) // a dead target's late response finds no waiter
		id = c.rid.Add(1)
		c.waiters[id] = ch
		c.mu.Unlock()
		start := time.Now()
		c.send(c.masterID(), target, cRequest, request{ID: id, Span: home, Queries: wqs, Opt: opt})
	wait:
		for {
			select {
			case r := <-ch:
				c.lat[target].observe(time.Since(start))
				if r.Err != "" {
					return nil, fmt.Errorf("shard %d: %s", r.Shard, r.Err)
				}
				if len(r.Results) != len(wqs) {
					return nil, fmt.Errorf("shard %d: %d results for %d queries", r.Shard, len(r.Results), len(wqs))
				}
				return r.Results, nil
			case <-tick.C:
				if c.shardDead(target) {
					break wait
				}
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-c.stop:
				return nil, errors.New("shard: cluster closed")
			}
		}
	}
}
