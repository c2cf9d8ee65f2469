package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
)

// The wire types. The transport is in-process, so "wire" means "what a
// real RPC would carry": the request names the span of the plan to scan
// and holds the resolved per-query parameters, the response holds hits
// plus the scan diagnostics. Every record index on the wire — of a hit,
// of floor evidence — is the database's: a span's view scans in the
// database's index space, so no side translates one. A hit carries, in two
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

// request asks one shard to scan one span for a query batch. The master
// sends each ID once; the transport may deliver it twice, and a replay
// on a survivor takes a fresh ID, so worker-side dedup never conflates
// the two.
type request struct {
	ID      uint64
	Span    int // the span's place in the plan: the worker scans Cluster.views[Span]
	Queries []wireQuery
	Opt     search.Options
}

// wireResult is one query's outcome on one shard.
type wireResult struct {
	QID      uint64
	Hits     []search.Hit
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
// than replaying what cannot succeed.
type response struct {
	ID      uint64
	Shard   int
	Results []wireResult
	Err     string
}

// scoreEv is one record's floor evidence: a result-eligible exact
// score, keyed by record index so the master can dedup replays.
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
}

// cancelMsg propagates one query's context cancellation to a shard.
type cancelMsg struct {
	QID uint64
}

// idSet is a bounded set of ids, oldest evicted first. The worker keeps
// two: the request ids it has seen (a duplicated delivery is dropped)
// and the cancelled query ids that had no live state when the cancel
// arrived (a replay racing a cancel). Eviction only costs work: a
// duplicate of an evicted request re-runs the scan and sends an
// identical response nobody waits for, and a replay that missed its
// cancel runs to completion for the master to discard.
type idSet struct {
	has   map[uint64]bool
	order []uint64
}

const idSetCap = 1024

// add inserts id and reports whether it was new.
func (s *idSet) add(id uint64) bool {
	if s.has[id] {
		return false
	}
	if s.has == nil {
		s.has = make(map[uint64]bool)
	}
	s.has[id] = true
	s.order = append(s.order, id)
	if len(s.order) > idSetCap {
		delete(s.has, s.order[0])
		s.order = s.order[1:]
	}
	return true
}

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

// worker is one shard: a scanner of span views behind a handler. Workers
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
	seen      idSet // request ids
	cancelled idSet // query ids cancelled before any of their requests arrived
	qs        map[uint64]*queryState
}

func newWorker(c *Cluster, id int, killAfter int64) *worker {
	ctx, cancel := context.WithCancel(context.Background())
	return &worker{
		c: c, id: id, ctx: ctx, cancel: cancel, killAfter: killAfter,
		qs: make(map[uint64]*queryState),
	}
}

// handle is the worker's message handler; it runs on the sender's
// goroutine and must not block (see transport). A dead worker ignores
// everything — crash-stop.
func (w *worker) handle(m msg) {
	if w.dead.Load() {
		return
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

// beats renews the worker's lease until it dies or the cluster stops.
func (w *worker) beats(every time.Duration) {
	defer w.c.beating.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.c.stop:
			return
		case <-t.C:
			if w.dead.Load() {
				return
			}
			w.c.send(w.id, w.c.masterID(), cBeat, heartbeat{Shard: w.id})
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

// onRequest starts a scan for each request id once; a duplicated
// delivery is dropped, since the first one's response is on its way.
func (w *worker) onRequest(req request) {
	w.mu.Lock()
	fresh := w.seen.add(req.ID)
	w.mu.Unlock()
	if fresh {
		go w.run(req)
	}
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
		w.cancelled.add(cm.QID)
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
		st = &queryState{cancelled: w.cancelled.has[qid]}
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

// gossipBuf batches one query's floor evidence between group
// boundaries, so gossip costs one message per group, not per record.
type gossipBuf struct {
	w   *worker
	qid uint64
	st  *queryState
	mu  sync.Mutex
	ev  []scoreEv
}

// add buffers evidence that can raise the floor. A score at or below
// the query's hint cannot: the hint is a floor the master published,
// so its heap already holds K records scoring ≥ it — Floor.Push's fast
// path, applied before the message is sent.
func (g *gossipBuf) add(score, idx int) {
	if int64(score) <= g.st.floor.Load() {
		return
	}
	g.mu.Lock()
	g.ev = append(g.ev, scoreEv{Score: score, Index: idx})
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
// mid-scan answers nothing — the master's lease machinery takes over. A
// panic in the scan, a bug, becomes the response's Err, which the
// master does not retry: it fails the batch, and the process lives on.
func (w *worker) run(req request) {
	resp := w.contained(req)
	if !w.dead.Load() {
		w.c.send(w.id, w.c.masterID(), cResponse, resp)
	}
}

// contained is scan with a panic turned into the response's Err.
func (w *worker) contained(req request) (resp response) {
	defer func() {
		if r := recover(); r != nil {
			resp = response{ID: req.ID, Shard: w.id, Err: fmt.Sprintf("scan panicked: %v", r)}
		}
	}()
	if TestHookScan != nil {
		TestHookScan(w.id)
	}
	return w.scan(req)
}

// TestHookScan, when non-nil, runs at the start of every request a
// shard worker scans, with the shard's id. It is for tests, which plant
// a panic with it; nothing else sets it.
var TestHookScan func(shard int)

func (w *worker) scan(req request) response {
	resp := response{ID: req.ID, Shard: w.id}
	opt := req.Opt
	// Workers split the host cores: endpoints come from the master's
	// single Realign pass over the merged winners, not per shard.
	opt.NoEndpoints = true
	if opt.Workers <= 0 {
		opt.Workers = max(1, runtime.NumCPU()/len(w.c.workers))
	}

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
		if opt.Prune {
			buf := &gossipBuf{w: w, qid: wq.QID, st: st}
			bq.FloorHint = func() int { return int(st.floor.Load()) }
			bq.OnScore = buf.add
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

	results, err := search.RunBatch(w.ctx, queries, w.c.views[req.Span], opt)
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
				wr.Hits = r.Hits
			}
		}
		wr.Cancelled = br.Err != nil
		resp.Results[i] = wr
	}
	return resp
}
