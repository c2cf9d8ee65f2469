package shard

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
)

// The wire types. The transport is in-process, so "wire" means "what a
// real RPC would carry": the request holds the span and the resolved
// per-query parameters, the response holds hits already mapped to
// global record indices plus the scan diagnostics. A hit carries, in two
// unexported ints that travel with the value, the end cell the worker's
// scan located and the master's realign walks back from (search.Hit); a
// transport that serialises must carry them, or the master scans whole
// matrices forward again.
// Options rides along
// by value; its Router pointer is deliberately shared — the process is
// the cluster, and one router counting the routes of every shard is the
// resident server's sharing rule applied across shards.

// wireQuery is one query of a scattered batch.
type wireQuery struct {
	QID      uint64 // cluster-global query id: floor gossip and cancels key on it
	Seq      bio.Sequence
	TopK     int
	MinScore int
}

// request asks one shard to scan one span for a query batch. Retries
// resend the same ID (at-least-once); a replay on a survivor uses a
// fresh ID, so worker-side dedup never conflates the two.
type request struct {
	ID      uint64
	Span    Span
	Queries []wireQuery
	Opt     search.Options
}

// wireResult is one query's outcome on one shard.
type wireResult struct {
	QID      uint64
	Hits     []search.Hit // global record indices
	Searched int
	Cells    int64
	Padded   int64
	Prune    *search.PruneStats
	// Cancelled marks a query the master cancelled mid-scan; the
	// diagnostics then cover only the records processed on this shard.
	Cancelled bool
}

// response answers a request. Err carries a non-retryable scan failure
// (invalid options, kernel error) — the master fails the batch rather
// than retrying what cannot succeed.
type response struct {
	ID      uint64
	Shard   int
	Span    Span
	Results []wireResult
	Err     string
}

// scoreEv is one record's floor evidence: a result-eligible exact
// score, keyed by global record index so the master can dedup replays.
type scoreEv struct {
	Score, Index int
}

// floorUpdate gossips evidence from a worker to the master.
type floorUpdate struct {
	QID      uint64
	Evidence []scoreEv
}

// floorSet broadcasts a risen global floor from the master to workers.
type floorSet struct {
	QID   uint64
	Floor int
}

// heartbeat renews a worker's lease at the master.
type heartbeat struct {
	Shard int
	N     uint64
}

// cancelMsg propagates one query's context cancellation to a shard.
type cancelMsg struct {
	QID uint64
}

// doneCap bounds the worker's completed-response cache (at-least-once
// dedup). Eviction only costs work: a retransmit of an evicted request
// re-runs the scan and produces the identical response.
const doneCap = 128

// recentCancelCap bounds the tombstone set remembering cancelled query
// ids that had no live state when the cancel arrived (a replay racing a
// cancel). Eviction only costs work: the replayed scan runs to
// completion and the master discards it anyway.
const recentCancelCap = 1024

// queryState is a worker's per-query shared state: the gossiped floor
// hint, the cancel fan-out, and the cancelled latch. Reference-counted
// by the requests naming the query (the home request plus any replays),
// deleted when the last one finishes.
type queryState struct {
	floor atomic.Int64

	mu        sync.Mutex
	refs      int
	cancelled bool
	cancels   []context.CancelFunc
}

// worker is one shard: a sub-database scanner behind an inbox. Workers
// model crash-stop nodes — a killed worker stops scanning, answering
// and heartbeating, and everything sent to it is dropped.
type worker struct {
	c      *Cluster
	id     int
	ctx    context.Context
	cancel context.CancelFunc

	dead      atomic.Bool
	killAfter int64 // crash after this many per-query group scans (0 = never)
	progress  atomic.Int64

	mu        sync.Mutex
	running   map[uint64]bool
	done      map[uint64]*response
	doneOrder []uint64
	subs      map[Span]*subPart
	qs        map[uint64]*queryState
	recentCan map[uint64]bool
	canOrder  []uint64
}

// subPart is one cached materialized span.
type subPart struct {
	db       *search.DB
	toGlobal []int
}

func newWorker(c *Cluster, id int, killAfter int64) *worker {
	ctx, cancel := context.WithCancel(context.Background())
	return &worker{
		c: c, id: id, ctx: ctx, cancel: cancel, killAfter: killAfter,
		running:   make(map[uint64]bool),
		done:      make(map[uint64]*response),
		subs:      make(map[Span]*subPart),
		qs:        make(map[uint64]*queryState),
		recentCan: make(map[uint64]bool),
	}
}

// loop drains the worker's inbox for the cluster's lifetime. A dead
// worker keeps draining but ignores everything — crash-stop, not
// crash-block.
func (w *worker) loop() {
	for {
		select {
		case <-w.c.stop:
			return
		case m := <-w.c.net.inboxes[w.id]:
			if w.dead.Load() {
				continue
			}
			switch m.class {
			case cRequest:
				w.onRequest(m.payload.(request))
			case cFloor:
				w.onFloor(m.payload.(floorSet))
			case cCancel:
				w.onCancel(m.payload.(cancelMsg))
			}
		}
	}
}

// beats renews the worker's lease until it dies or the cluster stops.
func (w *worker) beats(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	var n uint64
	for {
		select {
		case <-w.c.stop:
			return
		case <-t.C:
			if w.dead.Load() {
				return
			}
			n++
			w.c.send(w.id, w.c.masterID(), cBeat, heartbeat{Shard: w.id, N: n})
		}
	}
}

// crash kills the worker: scans abort at the next group boundary, no
// response is sent, heartbeats stop, the lease expires, the master
// reassigns. Idempotent.
func (w *worker) crash() {
	if w.dead.Swap(true) {
		return
	}
	w.c.ct.kills.Add(1)
	w.cancel()
}

// step advances the kill clock: one per-query group scanned.
func (w *worker) step() {
	if w.killAfter > 0 && w.progress.Add(1) >= w.killAfter {
		w.crash()
	}
}

// onRequest dedups by request id: completed requests re-answer from
// cache (a retransmitted request means the response was lost), running
// ones are ignored (the retransmit raced the scan), new ones start.
func (w *worker) onRequest(req request) {
	w.mu.Lock()
	if resp, ok := w.done[req.ID]; ok {
		w.mu.Unlock()
		w.respond(resp)
		return
	}
	if w.running[req.ID] {
		w.mu.Unlock()
		return
	}
	w.running[req.ID] = true
	w.mu.Unlock()
	go w.run(req)
}

// onFloor applies a broadcast floor to the query's hint. Floors only
// ratchet up; a stale or reordered broadcast is ignored by the max.
// Unknown query ids are dropped — a floor is a speed hint, and the next
// broadcast after the query's request arrives lands normally.
func (w *worker) onFloor(f floorSet) {
	w.mu.Lock()
	st := w.qs[f.QID]
	w.mu.Unlock()
	if st == nil {
		return
	}
	for {
		cur := st.floor.Load()
		if int64(f.Floor) <= cur || st.floor.CompareAndSwap(cur, int64(f.Floor)) {
			return
		}
	}
}

// onCancel cancels the query's scans on this shard. A cancel for a
// query with no live state leaves a bounded tombstone, so a replay
// arriving after the cancel still starts pre-cancelled.
func (w *worker) onCancel(cm cancelMsg) {
	w.mu.Lock()
	st := w.qs[cm.QID]
	if st == nil {
		if !w.recentCan[cm.QID] {
			w.recentCan[cm.QID] = true
			w.canOrder = append(w.canOrder, cm.QID)
			if len(w.canOrder) > recentCancelCap {
				delete(w.recentCan, w.canOrder[0])
				w.canOrder = w.canOrder[1:]
			}
		}
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	st.mu.Lock()
	st.cancelled = true
	cancels := st.cancels
	st.cancels = nil
	st.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// acquireQuery refs (or creates) the query's shared state.
func (w *worker) acquireQuery(qid uint64) *queryState {
	w.mu.Lock()
	st := w.qs[qid]
	if st == nil {
		st = &queryState{}
		if w.recentCan[qid] {
			st.cancelled = true
		}
		w.qs[qid] = st
	}
	st.mu.Lock()
	st.refs++
	st.mu.Unlock()
	w.mu.Unlock()
	return st
}

func (w *worker) releaseQuery(qid uint64, st *queryState) {
	st.mu.Lock()
	st.refs--
	last := st.refs == 0
	st.mu.Unlock()
	if last {
		w.mu.Lock()
		if w.qs[qid] == st {
			delete(w.qs, qid)
		}
		w.mu.Unlock()
	}
}

// subFor materializes (and caches) the span's sub-database.
func (w *worker) subFor(sp Span) (*subPart, error) {
	w.mu.Lock()
	p := w.subs[sp]
	w.mu.Unlock()
	if p != nil {
		return p, nil
	}
	db, toGlobal, err := subDB(w.c.db, sp)
	if err != nil {
		return nil, err
	}
	p = &subPart{db: db, toGlobal: toGlobal}
	w.mu.Lock()
	w.subs[sp] = p
	w.mu.Unlock()
	return p, nil
}

// gossipBuf batches one query's floor evidence between group
// boundaries, so gossip costs one message per group, not per record.
type gossipBuf struct {
	w   *worker
	qid uint64
	mu  sync.Mutex
	ev  []scoreEv
}

func (g *gossipBuf) add(score, globalIdx int) {
	g.mu.Lock()
	g.ev = append(g.ev, scoreEv{Score: score, Index: globalIdx})
	flush := len(g.ev) >= 64
	g.mu.Unlock()
	if flush {
		g.flush()
	}
}

func (g *gossipBuf) flush() {
	g.mu.Lock()
	ev := g.ev
	g.ev = nil
	g.mu.Unlock()
	if len(ev) == 0 || g.w.dead.Load() {
		return
	}
	g.w.c.send(g.w.id, g.w.c.masterID(), cFloor, floorUpdate{QID: g.qid, Evidence: ev})
}

// run scans the requested span and responds. A worker that crashed
// mid-scan answers nothing — the master's lease machinery takes over.
func (w *worker) run(req request) {
	resp := w.scan(req)
	if w.dead.Load() {
		return
	}
	w.mu.Lock()
	delete(w.running, req.ID)
	w.done[req.ID] = resp
	w.doneOrder = append(w.doneOrder, req.ID)
	if len(w.doneOrder) > doneCap {
		delete(w.done, w.doneOrder[0])
		w.doneOrder = w.doneOrder[1:]
	}
	w.mu.Unlock()
	w.respond(resp)
}

func (w *worker) respond(resp *response) {
	w.c.send(w.id, w.c.masterID(), cResponse, *resp)
}

func (w *worker) scan(req request) *response {
	resp := &response{ID: req.ID, Shard: w.id, Span: req.Span}
	part, err := w.subFor(req.Span)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	opt := req.Opt
	// Workers split the host cores: endpoints come from the master's
	// single Realign pass over the merged winners, not per shard.
	opt.NoEndpoints = true
	if opt.Workers <= 0 {
		opt.Workers = max(1, runtime.NumCPU()/len(w.c.workers))
	}
	gossip := opt.Prune && !w.c.opt.NoGossip

	queries := make([]search.BatchQuery, len(req.Queries))
	states := make([]*queryState, len(req.Queries))
	for i, wq := range req.Queries {
		st := w.acquireQuery(wq.QID)
		states[i] = st
		qctx, cancel := context.WithCancel(w.ctx)
		st.mu.Lock()
		if st.cancelled {
			st.mu.Unlock()
			cancel()
		} else {
			st.cancels = append(st.cancels, cancel)
			st.mu.Unlock()
		}
		bq := search.BatchQuery{
			Seq: wq.Seq, Ctx: qctx, TopK: wq.TopK, MinScore: wq.MinScore,
			OnGroup: w.step,
		}
		if gossip {
			buf := &gossipBuf{w: w, qid: wq.QID}
			bq.FloorHint = func() int { return int(st.floor.Load()) }
			bq.OnScore = func(score, idx int) { buf.add(score, part.toGlobal[idx]) }
			bq.OnGroup = func() {
				buf.flush()
				w.step()
			}
		}
		queries[i] = bq
	}
	defer func() {
		for i, st := range states {
			w.releaseQuery(req.Queries[i].QID, st)
		}
	}()

	results, err := search.RunBatch(w.ctx, queries, part.db, opt)
	if err != nil {
		// The worker context only dies by crash; anything else is a real
		// scan failure the master must not retry.
		if w.ctx.Err() == nil {
			resp.Err = err.Error()
		}
		return resp
	}
	resp.Results = make([]wireResult, len(results))
	for i, br := range results {
		wr := wireResult{QID: req.Queries[i].QID}
		if r := br.Result; r != nil {
			wr.Searched = r.Searched
			wr.Cells = r.Cells
			wr.Padded = r.PaddedCells
			wr.Prune = r.Prune
			if br.Err == nil {
				wr.Hits = make([]search.Hit, len(r.Hits))
				for j, h := range r.Hits {
					h.Index = part.toGlobal[h.Index]
					wr.Hits[j] = h
				}
			}
		}
		wr.Cancelled = br.Err != nil
		resp.Results[i] = wr
	}
	return resp
}
