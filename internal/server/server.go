// Package server is the resident search service: a prepared database
// held in memory behind an HTTP/JSON API. It exists because the scan
// pipeline's fixed costs — FASTA parsing, length sorting, lane
// interleaving, pack validation — dwarf the per-query cost for short
// queries, and a process that pays them per invocation cannot serve
// interactive load. The server pays them once (or loads them from a
// dbpack file) and amortizes the rest per batch: concurrent requests
// with compatible scan options are coalesced into one shared pass over
// the lane groups (search.RunBatch), so the worker pool, group
// traversal and record touch costs are split across the batch.
//
// Endpoints:
//
//	POST /search  — one query or a "queries" array; per-query top-K,
//	                min-score and deadline; optional scan-option
//	                overrides (dispatch, prune, scores_only). Hits
//	                are bit-identical to a direct search.Run with the
//	                same options. A body over 16 MiB gets 413.
//	GET  /healthz — liveness: 200 while serving, 503 while draining.
//	GET  /statsz  — uptime, database shape, query/batch/reject totals,
//	                queue and batch high-water marks, prune aggregates,
//	                re-alignment cells, dispatch route counts, latency
//	                histogram.
//
// Overload and shutdown are explicit protocol, not emergent behavior:
// a bounded admission queue returns 429 when full, a draining server
// returns 503 to new work while every admitted query is still answered,
// and per-query deadlines cancel scan work at lane-group granularity
// (a timed-out query returns 504 with its partial scan diagnostics).
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"genomedsm/internal/dbpack"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
	"genomedsm/internal/shard"
)

// Config configures a Server.
type Config struct {
	// DB is the prepared database to serve (required).
	DB *search.DB
	// Options is the server-wide scan configuration: scoring, kernel
	// selection, pruning, worker count. Requests may override TopK and
	// MinScore per query, and dispatch/prune/scores_only per request.
	// TopK 0 means the search default (10).
	Options search.Options
	// MaxQueue bounds the admission queue: requests beyond it are
	// rejected with 429 instead of queuing without bound (default 64).
	MaxQueue int
	// BatchMax caps how many queries one shared scan carries
	// (default 16).
	BatchMax int
	// Shards, when ≥ 2, serves scans from an in-process shard cluster
	// (internal/shard): the database is partitioned across that many
	// workers and every batch is scattered, pruned under the gossiped
	// floor, and merged bit-identically to a single-node scan. 0 or 1
	// keeps the direct RunBatch path.
	Shards int
	// ShardOptions overrides the cluster's robustness tuning (lease,
	// heartbeat, faults — the Shards field wins over ShardOptions.Shards).
	// Nil uses production defaults; tests inject faults through it.
	ShardOptions *shard.Options
	// Pack, when non-nil, records how the served database was loaded
	// (dbpack.Open fills it: mmap vs copy, mapped and heap-resident
	// bytes). Surfaced verbatim on /statsz; nil reports
	// an in-memory build.
	Pack *dbpack.Info
}

// Server is the resident search service. Build with New, mount
// Handler() on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg     Config
	router  *dispatch.Router // shared router for default-mode scans
	cluster *shard.Cluster   // non-nil when cfg.Shards ≥ 2
	start   time.Time

	mu       sync.Mutex
	queue    []*pending
	draining bool
	notify   chan struct{} // wakes the dispatcher (capacity 1)
	stopped  chan struct{} // closed when the dispatcher has drained and exited
	stop     chan struct{} // closed by Shutdown

	st stats

	// testBatchStart, when non-nil, runs after a batch is popped from
	// the queue and before its scan. Tests block in it to hold the
	// dispatcher busy deterministically — never set outside tests.
	testBatchStart func()
}

// pending is one admitted HTTP request: its queries, the compatibility
// key its scan options hash to, and the channel its handler waits on.
type pending struct {
	key     string
	opt     search.Options
	queries []search.BatchQuery
	out     chan outcome
}

// outcome carries one pending's slice of the shared scan's results.
type outcome struct {
	results   []search.BatchResult
	err       error // batch-level failure (kernel error, invalid options)
	batchSize int   // queries that shared the scan, for observability
}

// latencyBucketsMS are the upper bounds of the /statsz latency
// histogram, in milliseconds; the final +Inf bucket is implicit.
var latencyBucketsMS = [...]int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

type stats struct {
	queries   atomic.Int64 // queries admitted
	batches   atomic.Int64 // shared scans run
	rejected  atomic.Int64 // requests refused with 429
	cancelled atomic.Int64 // queries ended by deadline or disconnect
	served    atomic.Int64 // queries answered with full results
	queueHigh atomic.Int64 // admission queue high-water mark (requests)
	batchMax  atomic.Int64 // largest shared scan (queries)

	pruneSkipped    atomic.Int64
	pruneAbandoned  atomic.Int64
	pruneScanned    atomic.Int64
	pruneCellsSaved atomic.Int64

	realignCells atomic.Int64 // forward cells the re-alignment of hits computed

	latency [len(latencyBucketsMS) + 1]int64 // atomic; +Inf last

	// latencySumMS / latencyCount back the Retry-After estimate on 429:
	// mean request latency times queue depth approximates the backlog's
	// drain time.
	latencySumMS atomic.Int64
	latencyCount atomic.Int64
}

func (st *stats) observeLatency(d time.Duration) {
	ms := d.Milliseconds()
	st.latencySumMS.Add(ms)
	st.latencyCount.Add(1)
	for i, ub := range latencyBucketsMS {
		if ms <= ub {
			atomic.AddInt64(&st.latency[i], 1)
			return
		}
	}
	atomic.AddInt64(&st.latency[len(latencyBucketsMS)], 1)
}

// raise lifts an atomic high-water mark to at least v.
func raise(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// New builds a Server and starts its dispatcher. The config's scan
// options are validated up front so a bad deployment fails at startup,
// not on the first request.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: nil database")
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 16
	}
	mode, err := dispatch.ParseMode(cfg.Options.Dispatch)
	if err != nil {
		return nil, err
	}
	cfg.Options.Dispatch = mode.String() // the spelling requestOptions compares and keys on
	// A resident server always scans with the lane-group layout in
	// place: for a pack this is the mapped (or validated-and-copied)
	// section and costs nothing; for an in-memory build it is one
	// interleaving pass here at startup instead of per scan.
	cfg.DB.EnsureLayout()
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		notify:  make(chan struct{}, 1),
		stopped: make(chan struct{}),
		stop:    make(chan struct{}),
	}
	// One router for the server's lifetime: every default-mode scan
	// feeds the route counters /statsz reports.
	s.router = dispatch.New(mode, nil)
	if cfg.Shards >= 2 {
		co := shard.Options{}
		if cfg.ShardOptions != nil {
			co = *cfg.ShardOptions
		}
		co.Shards = cfg.Shards
		if co.Lease <= 0 {
			// A resident service prefers slow failure detection over false
			// positives: an in-process worker does not silently die, so a
			// long lease only matters under injected faults.
			co.Lease = 30 * time.Second
		}
		cl, err := shard.New(cfg.DB, co)
		if err != nil {
			return nil, fmt.Errorf("server: building shard cluster: %w", err)
		}
		s.cluster = cl
	}
	go s.dispatch()
	return s, nil
}

// ShardStats returns the shard cluster's health and fault counters, or
// nil when the server runs unsharded.
func (s *Server) ShardStats() *shard.Stats {
	if s.cluster == nil {
		return nil
	}
	st := s.cluster.Stats()
	return &st
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// Router exposes the shared dispatch router (for stats and tests).
func (s *Server) Router() *dispatch.Router { return s.router }

// Shutdown drains the server: new requests are refused with 503, every
// already-admitted query still runs to completion (or its own
// deadline), and Shutdown returns when the queue is empty and the last
// shared scan has finished — or when ctx expires, whichever is first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}
	select {
	case <-s.stopped:
		if s.cluster != nil {
			s.cluster.Close()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// dispatch is the batching loop: it owns the admission queue, coalesces
// compatible pendings into one shared scan, and fans results back out.
// One goroutine per server — admission control has already bounded the
// backlog, and the scan itself fans out over the worker pool.
func (s *Server) dispatch() {
	defer close(s.stopped)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 {
			s.mu.Unlock()
			select {
			case <-s.notify:
				s.mu.Lock()
			case <-s.stop:
				// Drain: anything that raced into the queue after the
				// last notify still gets served.
				s.mu.Lock()
				if len(s.queue) == 0 {
					s.mu.Unlock()
					return
				}
			}
		}
		// Coalesce: the head pending plus every queued pending with the
		// same scan-option key, up to BatchMax queries. Order is
		// admission order, so per-request result slices stay contiguous.
		hook := s.testBatchStart
		head := s.queue[0]
		group := []*pending{head}
		total := len(head.queries)
		rest := s.queue[:0]
		for _, p := range s.queue[1:] {
			if p.key == head.key && total+len(p.queries) <= s.cfg.BatchMax {
				group = append(group, p)
				total += len(p.queries)
			} else {
				rest = append(rest, p)
			}
		}
		s.queue = rest
		s.mu.Unlock()

		batch := make([]search.BatchQuery, 0, total)
		for _, p := range group {
			batch = append(batch, p.queries...)
		}
		s.st.batches.Add(1)
		raise(&s.st.batchMax, int64(total))
		if hook != nil {
			hook()
		}
		// The batch context is the server's lifetime, not any one
		// request's: a shared scan must not die with one client, and a
		// draining server finishes admitted work. Per-query contexts
		// (deadline, disconnect) ride inside the BatchQueries — on the
		// sharded path the cluster watches each one and cancels that
		// query's remote scan work on every shard.
		var results []search.BatchResult
		var err error
		if s.cluster != nil {
			results, err = s.cluster.SearchBatch(context.Background(), batch, group[0].opt)
		} else {
			results, err = search.RunBatch(context.Background(), batch, s.cfg.DB, group[0].opt)
		}
		lo := 0
		for _, p := range group {
			o := outcome{err: err, batchSize: total}
			if err == nil {
				o.results = results[lo : lo+len(p.queries)]
			}
			lo += len(p.queries)
			p.out <- o
		}
	}
}

// QueueDepth reports the number of requests currently waiting for a
// shared scan.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// retryAfterSeconds estimates when a rejected client should come back:
// the mean request latency times the backlog it would wait behind,
// clamped to [1, 30] seconds (RFC 7231 permits any delay; a bounded
// hint keeps well-behaved clients from stampeding or stalling).
func (s *Server) retryAfterSeconds() int {
	avgMS := int64(100) // no history yet: assume a fast scan
	if n := s.st.latencyCount.Load(); n > 0 {
		avgMS = s.st.latencySumMS.Load() / n
	}
	secs := (avgMS*int64(s.QueueDepth()) + 999) / 1000
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return int(secs)
}

// admit queues a pending and wakes the dispatcher. It returns an HTTP
// status and error when the request must be refused instead.
func (s *Server) admit(p *pending) (int, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return http.StatusServiceUnavailable, errors.New("server is draining")
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.st.rejected.Add(1)
		return http.StatusTooManyRequests, errors.New("admission queue full")
	}
	s.queue = append(s.queue, p)
	depth := int64(len(s.queue))
	s.mu.Unlock()
	raise(&s.st.queueHigh, depth)
	s.st.queries.Add(int64(len(p.queries)))
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return 0, nil
}
