package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"genomedsm/internal/align"
	"genomedsm/internal/bio"
	"genomedsm/internal/dbpack"
	"genomedsm/internal/dispatch"
	"genomedsm/internal/search"
	"genomedsm/internal/server"
	"genomedsm/internal/shard"
	"genomedsm/internal/swar"
)

// serveOptions mirrors the scan configuration `genomedsm serve` builds
// from its default flags.
func serveOptions(router *dispatch.Router) search.Options {
	return search.Options{TopK: 10, Dispatch: "auto", Prune: true, Router: router}
}

func batchOf(r *request) []search.BatchQuery {
	out := make([]search.BatchQuery, len(r.queries))
	for i, q := range r.queries {
		out[i] = search.BatchQuery{Seq: q.seq, TopK: q.topK}
	}
	return out
}

// exactCounts is the deterministic in-process pass: one worker and a
// router on the static default profile, so that every count repeats
// exactly for a given seed on any host.
func exactCounts(w *workload, in *inputs) (values, error) {
	db := search.NewDB(in.recs)
	db.EnsureLayout()
	router := dispatch.New(dispatch.ModeAuto, dispatch.DefaultProfile())
	// Realign's pairwise scans route through the process-wide router.
	prev := dispatch.Active()
	dispatch.SetActive(router)
	defer dispatch.SetActive(prev)
	opt := serveOptions(router)
	opt.Workers = 1

	var cells, padded, saved, skipped, abandoned, scanned, floor, queries float64
	for i := range in.reqs {
		brs, err := search.RunBatch(context.Background(), batchOf(&in.reqs[i]), db, opt)
		if err != nil {
			return nil, fmt.Errorf("exact counts: %w", err)
		}
		for _, br := range brs {
			if br.Err != nil {
				return nil, fmt.Errorf("exact counts: %w", br.Err)
			}
			res := br.Result
			queries++
			cells += float64(res.Cells)
			padded += float64(res.PaddedCells)
			saved += float64(res.Prune.CellsSaved)
			skipped += float64(res.Prune.Skipped)
			abandoned += float64(res.Prune.Abandoned)
			scanned += float64(res.Prune.Scanned)
			floor += float64(res.Prune.FloorFinal)
		}
	}
	records := skipped + abandoned + scanned
	v := values{
		"search.cells":                 cells / queries,
		"search.padded_cells":          padded / queries,
		"search.padding_share":         1 - (cells-saved)/padded,
		"search.prune_skipped_share":   skipped / records,
		"search.prune_abandoned_share": abandoned / records,
		"search.prune_scanned_share":   scanned / records,
		"search.cells_saved_share":     saved / cells,
		"search.floor_final":           floor / queries,
	}
	v.shares("dispatch.route_share.", groupRoutes, router.GroupCounts())
	v.shares("dispatch.pair_share.", []string{"striped8", "striped16", "scalar"}, router.PairCounts())

	// Share of the full lane groups whose int8 pass saturates for the
	// workload's first query: what forces int16 retries.
	q, sc := in.reqs[0].queries[0].seq, bio.DefaultScoring()
	var al swar.Aligner
	var groups, sat float64
	order := db.Order()
	for lo := 0; lo+bio.PackedLanes8 <= len(order); lo += bio.PackedLanes8 {
		ls, ok := al.Scan8(q, seqsAt(in.recs, order[lo:lo+bio.PackedLanes8]), sc)
		groups++
		if !ok || ls.Saturated != 0 {
			sat++
		}
	}
	v["swar.sat8_share"] = sat / max(groups, 1)

	v["shard.span_imbalance"] = 0
	if w.shards >= 2 {
		var most, total float64
		for _, sp := range shard.PlanSpans(db, w.shards) {
			var bases float64
			for _, idx := range order[sp.Lo:sp.Hi] {
				bases += float64(len(in.recs[idx].Seq))
			}
			most = max(most, bases)
			total += bases
		}
		v["shard.span_imbalance"] = most / (total / float64(w.shards))
	}
	return v, nil
}

var groupRoutes = []string{"inter8", "inter16", "singles", "scalar"}

// shares stores each named count's share of the total under prefix.
func (v values) shares(prefix string, names []string, counts map[string]int64) {
	var total float64
	for _, n := range counts {
		total += float64(n)
	}
	for _, name := range names {
		v[prefix+name] = 0
		if total > 0 {
			v[prefix+name] = float64(counts[name]) / total
		}
	}
}

func seqsAt(recs []bio.Record, idx []int) []bio.Sequence {
	out := make([]bio.Sequence, len(idx))
	for i, j := range idx {
		out[i] = recs[j].Seq
	}
	return out
}

// timeIt returns fn's median wall time in milliseconds: one warming
// call, then as many timed calls as fit the budget, at least 3 and at
// most 30. A zero budget (-smoke) makes the one call the measurement.
func timeIt(budget time.Duration, fn func() error) (float64, error) {
	t0 := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	first := time.Since(t0)
	if budget == 0 {
		return ms(first), nil
	}
	d := make([]float64, min(max(int(budget/max(first, 1)), 3), 30))
	for i := range d {
		t0 = time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = ms(time.Since(t0))
	}
	return median(d), nil
}

func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// layerEnv is the benchmark's in-process copy of what the binary
// serves: the same pack file opened the same way, a router on this
// host's calibration, and a server (and shard cluster) built from them.
type layerEnv struct {
	s       *site
	pack    *dbpack.Pack
	router  *dispatch.Router
	opt     search.Options
	srv     *server.Server
	cluster *shard.Cluster
	newMS   float64 // shard.New wall
}

func openLayers(s *site) (*layerEnv, error) {
	prof := dispatch.Host()
	dispatch.SetActive(dispatch.New(dispatch.ModeAuto, prof))
	e := &layerEnv{s: s, router: dispatch.New(dispatch.ModeAuto, prof)}
	e.opt = serveOptions(e.router)
	var err error
	if e.pack, err = dbpack.Open(s.pack); err != nil {
		return nil, err
	}
	opt := serveOptions(nil)
	if e.srv, err = server.New(server.Config{DB: e.pack.DB, Options: opt, Shards: s.w.shards}); err != nil {
		return nil, err
	}
	if s.w.shards >= 2 {
		t0 := time.Now()
		if e.cluster, err = shard.New(e.pack.DB, shard.Options{Shards: s.w.shards}); err != nil {
			return nil, err
		}
		e.newMS = ms(time.Since(t0))
	}
	return e, nil
}

func (e *layerEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // nothing is in flight
	if e.cluster != nil {
		e.cluster.Close()
	}
	_ = e.pack.Close()
}

// scan runs one request's batch in process and checks that no query
// failed.
func scan(queries []search.BatchQuery, db *search.DB, opt search.Options) ([]search.BatchResult, error) {
	brs, err := search.RunBatch(context.Background(), queries, db, opt)
	if err != nil {
		return nil, err
	}
	for _, br := range brs {
		if br.Err != nil {
			return nil, br.Err
		}
	}
	return brs, nil
}

// traceChunk is how many consecutive ids run one depth before the next
// depth takes its turn: long enough that a depth runs warm, short
// enough that a slow spell of the machine hits every depth alike.
const traceChunk = 4

// depth is one peeled layer of the traced pass.
type depth struct {
	name, parent string // name "" is timed by fn itself and records no span
	fn           func(id int, r *request, queries []search.BatchQuery) error
	countAllocs  bool
	allocs       uint64
	allocBytes   uint64
}

// tracePass peels ids requests depth by depth with no concurrent load:
// the POST to the binary, then the same request through the handler,
// the shard cluster (sharded workload only), RunBatch, and RunBatch's
// two halves — the scan without endpoints and the realign of the final
// hits. It returns the spans, the metrics read from them and the
// self-time rows.
func (e *layerEnv) tracePass(url string, ids int) (*tracer, values, []layerRow, error) {
	in, db := e.s.in, e.pack.DB
	tr := newTracer()
	hc := newClient()
	defer hc.CloseIdleConnections()
	handler := e.srv.Handler()
	scanOpt := e.opt
	scanOpt.NoEndpoints = true

	bodies := make([][]byte, ids)
	plain := make([]float64, ids)
	recs := make([]*httptest.ResponseRecorder, ids)
	scanned := make([][]search.BatchResult, ids)
	doPost := func(id int, r *request, _ []search.BatchQuery) (err error) {
		bodies[id], err = post(hc, url, r.body)
		return err
	}
	handleDepth := &depth{name: "server.handle", parent: "cmd.roundtrip", countAllocs: true,
		fn: func(id int, r *request, _ []search.BatchQuery) error {
			recs[id] = httptest.NewRecorder()
			handler.ServeHTTP(recs[id], httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(r.body)))
			return nil
		}}
	runDepth := &depth{name: "search.run", parent: "server.handle", countAllocs: true,
		fn: func(_ int, _ *request, queries []search.BatchQuery) error {
			_, err := scan(queries, db, e.opt)
			return err
		}}
	depths := []*depth{
		{name: "cmd.roundtrip", fn: doPost},
		// The same requests again with no span recorded around them: the
		// difference is what tracing costs.
		{fn: func(id int, r *request, q []search.BatchQuery) error {
			t0 := time.Now()
			err := doPost(id, r, q)
			plain[id] = float64(time.Since(t0)) / 1e3
			if err == nil {
				err = checkResponse(r, bodies[id])
			}
			return err
		}},
		handleDepth,
	}
	if e.cluster != nil {
		runDepth.parent = "shard.search"
		depths = append(depths, &depth{name: "shard.search", parent: "server.handle",
			fn: func(_ int, _ *request, queries []search.BatchQuery) error {
				_, err := e.cluster.SearchBatch(context.Background(), queries, e.opt)
				return err
			}})
	}
	depths = append(depths, runDepth,
		&depth{name: "search.scan", parent: "search.run",
			fn: func(id int, _ *request, queries []search.BatchQuery) error {
				var err error
				scanned[id], err = scan(queries, db, scanOpt)
				return err
			}},
		&depth{name: "search.realign", parent: "search.run",
			fn: func(id int, _ *request, queries []search.BatchQuery) error {
				for qi, br := range scanned[id] {
					if err := search.Realign(queries[qi].Seq, db.Records(), bio.Scoring{}, br.Result.Hits); err != nil {
						return err
					}
				}
				return nil
			}})

	var runQueries float64
	for lo := 0; lo < ids; lo += traceChunk {
		for _, d := range depths {
			var n0, b0 uint64
			if d.countAllocs {
				n0, b0 = mallocs()
			}
			for id := lo; id < min(lo+traceChunk, ids); id++ {
				r := &in.reqs[id%len(in.reqs)]
				queries := batchOf(r)
				var err error
				if d.name == "" {
					err = d.fn(id, r, queries)
				} else {
					err = tr.record(d.name, d.parent, id, func() error { return d.fn(id, r, queries) })
				}
				if err != nil {
					return nil, nil, nil, fmt.Errorf("traced id %d, %s: %w", id, d.name, err)
				}
				if d == runDepth {
					runQueries += float64(len(queries))
				}
			}
			if d.countAllocs {
				n1, b1 := mallocs()
				d.allocs += n1 - n0
				d.allocBytes += b1 - b0
			}
		}
	}
	var respBytes float64
	for id, rec := range recs {
		respBytes += float64(rec.Body.Len())
		if rec.Code != http.StatusOK {
			return nil, nil, nil, fmt.Errorf("traced id %d, server.handle: status %d: %s", id, rec.Code, rec.Body)
		}
		if err := checkResponse(&in.reqs[id%len(in.reqs)], rec.Body.Bytes()); err != nil {
			return nil, nil, nil, fmt.Errorf("traced id %d, server.handle: %w", id, err)
		}
	}

	n := float64(ids)
	roundtrip, handle := tr.medianUS("cmd.roundtrip"), tr.medianUS("server.handle")
	shardUS, run := tr.medianUS("shard.search"), tr.medianUS("search.run")
	scanUS, realign := tr.medianUS("search.scan"), tr.medianUS("search.realign")
	chain := []layerRow{{name: "cmd.roundtrip", totalU: roundtrip}, {name: "server.handle", totalU: handle}}
	below := run
	if e.cluster != nil {
		chain = append(chain, layerRow{name: "shard.search", totalU: shardUS})
		below = shardUS
	}
	chain = append(chain, layerRow{name: "search.run", totalU: run})
	rows := selfTimes(chain, []layerRow{{name: "search.scan", totalU: scanUS}, {name: "search.realign", totalU: realign}})

	var cells float64
	for i := range in.reqs {
		cells += float64(in.cells(&in.reqs[i]))
	}
	cells /= float64(len(in.reqs))
	v := values{
		"cmd.roundtrip_us":           roundtrip,
		"cmd.roundtrip_self_us":      roundtrip - handle,
		"trace.overhead_share":       roundtrip/median(plain) - 1,
		"server.handle_us":           handle,
		"server.self_us":             handle - below,
		"server.allocs_per_req":      float64(handleDepth.allocs) / n,
		"server.alloc_bytes_per_req": float64(handleDepth.allocBytes) / n,
		"server.resp_bytes_per_req":  respBytes / n,
		"search.run_ms":              run / 1e3,
		"search.scan_ms":             scanUS / 1e3,
		"search.scan_gcups":          cells / (scanUS * 1e3),
		"search.realign_ms":          realign / 1e3,
		"search.allocs_per_query":    float64(runDepth.allocs) / runQueries,
		"shard.search_ms":            shardUS / 1e3,
		"shard.overhead_share":       0,
		"shard.new_ms":               e.newMS,
	}
	if e.cluster != nil {
		v["shard.overhead_share"] = shardUS/run - 1
	}
	return tr, v, rows, nil
}

// probes times single layers on the workload's own inputs: ratios of
// scan variants, kernel rates, and the pack's build, write and open.
func (e *layerEnv) probes(budget time.Duration) (values, error) {
	in, db := e.s.in, e.pack.DB
	v := values{}
	r := &in.reqs[0]
	queries := batchOf(r)
	scanOpt := e.opt
	scanOpt.NoEndpoints = true
	timeScan := func(queries []search.BatchQuery, db *search.DB, opt search.Options) (float64, error) {
		return timeIt(budget, func() error { _, err := scan(queries, db, opt); return err })
	}

	auto, err := timeScan(queries, db, scanOpt)
	if err != nil {
		return nil, err
	}
	one := scanOpt
	one.Workers = 1
	solo, err := timeScan(queries, db, one)
	if err != nil {
		return nil, err
	}
	v["search.worker_speedup"] = solo / auto

	v["search.batch_gain"] = 1
	if len(queries) > 1 {
		var sum float64
		for i := range queries {
			t, err := timeScan(queries[i:i+1], db, scanOpt)
			if err != nil {
				return nil, err
			}
			sum += t
		}
		v["search.batch_gain"] = sum / auto
	}

	fixedOpt := scanOpt
	fixedOpt.Dispatch, fixedOpt.Router = "fixed", nil
	fixed, err := timeScan(queries, db, fixedOpt)
	if err != nil {
		return nil, err
	}
	v["dispatch.auto_vs_fixed"] = fixed / auto

	heap, err := timeScan(queries, search.NewDB(in.recs), scanOpt)
	if err != nil {
		return nil, err
	}
	v["dbpack.scan_vs_heap"] = auto / heap

	if v["search.layout_build_ms"], err = timeIt(budget, func() error {
		search.BuildLayout(search.NewDB(in.recs))
		return nil
	}); err != nil {
		return nil, err
	}
	if v["dispatch.calibrate_ms"], err = timeIt(budget, func() error {
		dispatch.Calibrate()
		return nil
	}); err != nil {
		return nil, err
	}

	// Kernel rates on the workload's own first query against its first
	// full lane group (inter-sequence) or longest record (striped,
	// scalar). A rung that cannot hold the scores reports 0.
	q, sc := r.queries[0].seq, bio.DefaultScoring()
	order := db.Order()
	longest := in.recs[order[0]].Seq
	var al swar.Aligner
	rate := func(name string, targets []bio.Sequence, fn func() bool) error {
		var cells float64
		for _, t := range targets {
			cells += float64(len(q)) * float64(len(t))
		}
		usable := true
		t, err := timeIt(budget, func() error { usable = fn(); return nil })
		v[name] = 0
		if usable {
			v[name] = cells / (t * 1e6)
		}
		return err
	}
	g8 := seqsAt(in.recs, order[:min(bio.PackedLanes8, len(order))])
	g16 := g8[:min(bio.PackedLanes16, len(g8))]
	one1 := []bio.Sequence{longest}
	for _, p := range []struct {
		name    string
		targets []bio.Sequence
		fn      func() bool
	}{
		{"swar.inter8_gcups", g8, func() bool { _, ok := al.Scan8(q, g8, sc); return ok }},
		{"swar.inter16_gcups", g16, func() bool { _, ok := al.Scan16(q, g16, sc); return ok }},
		{"swar.striped8_gcups", one1, func() bool { _, ok := al.StripedScan8(q, longest, sc); return ok }},
		{"swar.striped16_gcups", one1, func() bool { _, ok := al.StripedScan16(q, longest, sc); return ok }},
		{"align.scalar_gcups", one1, func() bool {
			_, err := align.Scan(q, longest, sc, align.ScanOptions{ForceScalar: true})
			return err == nil
		}},
	} {
		if err := rate(p.name, p.targets, p.fn); err != nil {
			return nil, err
		}
	}
	// Share of the scan the int8 kernel itself explains at its probed
	// rate; the rest is plumbing.
	v["swar.kernel_share"] = 0
	if rate8 := v["swar.inter8_gcups"]; rate8 > 0 {
		workers := float64(runtime.NumCPU())
		v["swar.kernel_share"] = float64(in.cells(r)) / (rate8 * 1e9 * workers) / (auto / 1e3)
	}

	// Pack-side costs, each the way `genomedsm index` and `serve` pay it.
	withIndex, err := timeIt(budget, func() error { _, err := dbpack.Build(in.recs, 11); return err })
	if err != nil {
		return nil, err
	}
	noIndex, err := timeIt(budget, func() error { _, err := dbpack.Build(in.recs, 0); return err })
	if err != nil {
		return nil, err
	}
	v["dbpack.build_ms"], v["blast.index_build_ms"] = withIndex, withIndex-noIndex
	built, err := dbpack.Build(in.recs, 11)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(e.s.dir, "probe.pack")
	defer os.Remove(scratch)
	if v["dbpack.write_ms"], err = timeIt(budget, func() error { return dbpack.WriteFileV2(scratch, built) }); err != nil {
		return nil, err
	}
	if v["bio.fasta_parse_ms"], err = timeIt(budget, func() error {
		_, err := bio.ReadFASTA(bytes.NewReader(in.fasta))
		return err
	}); err != nil {
		return nil, err
	}
	open := func() error {
		p, err := dbpack.Open(e.s.pack)
		if err != nil {
			return err
		}
		return p.Close()
	}
	if v["dbpack.open_ms"], err = timeIt(budget, open); err != nil {
		return nil, err
	}
	n0, _ := mallocs()
	if err := open(); err != nil {
		return nil, err
	}
	n1, _ := mallocs()
	v["dbpack.open_allocs"] = float64(n1 - n0)
	info, err := os.Stat(e.s.pack)
	if err != nil {
		return nil, err
	}
	v["dbpack.file_bytes_per_base"] = float64(info.Size()) / float64(in.bases)
	v["dbpack.mapped_bytes"] = float64(e.pack.Info.MappedBytes)
	v["dbpack.heap_bytes"] = float64(e.pack.Info.HeapBytes)
	return v, nil
}

// liveMetrics reads the per-layer numbers only the running binary can
// give: launch timings of the round and /statsz deltas over its
// measured segment.
func liveMetrics(r *round) values {
	before, after := r.statsBefore, r.statsAfter
	qps, gcups := r.seg.rates()
	v := values{
		"load.qps":               qps,
		"load.gcups":             gcups,
		"cmd.index_s":            r.indexS,
		"cmd.serve_ready_ms":     median(r.readyMS),
		"cmd.first_query_ms":     median(r.firstMS),
		"cmd.cold_start_ms":      median(r.coldStartMS),
		"cmd.calibrate_ms":       r.coldReadyMS - median(r.readyMS),
		"cmd.drain_ms":           median(r.drainMS),
		"bench.gen_cpu_share":    r.seg.genCPU.Seconds() / r.seg.wall.Seconds(),
		"load.lat_p90_ms":        0,
		"load.lat_p99_ms":        0,
		"server.batch_size_mean": float64(after.Queries-before.Queries) / float64(max(after.Batches-before.Batches, 1)),
		"server.queue_high":      float64(after.QueueHigh),
		"server.rejected":        float64(after.Rejected - before.Rejected),
		"server.cancelled":       float64(after.Cancelled - before.Cancelled),

		"shard.retries_per_batch":          0,
		"shard.reassigns":                  0,
		"shard.floor_broadcasts_per_batch": 0,
		"shard.gossip_updates_per_batch":   0,
	}
	// What the binary's shared router really chose under the live load;
	// dispatch.route_share.* is the one-worker deterministic count.
	live := map[string]int64{}
	for route, n := range after.Routes.Group {
		live[route] = n - before.Routes.Group[route]
	}
	v.shares("dispatch.live_route_share.", groupRoutes, live)
	for name, p := range map[string]float64{"load.lat_p90_ms": 0.90, "load.lat_p99_ms": 0.99} {
		if val, ok := percentile(r.seg.latencies, p); ok {
			v[name] = val
		}
	}
	if a, b := after.Shards, before.Shards; a != nil && b != nil {
		batches := float64(max(a.Batches-b.Batches, 1))
		v["shard.retries_per_batch"] = float64(a.Retries-b.Retries) / batches
		v["shard.reassigns"] = float64(a.Reassigns - b.Reassigns)
		v["shard.floor_broadcasts_per_batch"] = float64(a.FloorBroadcasts-b.FloorBroadcasts) / batches
		v["shard.gossip_updates_per_batch"] = float64(a.GossipUpdates-b.GossipUpdates) / batches
	}
	return v
}

// merge copies src into dst.
func (dst values) merge(src values) {
	for k, val := range src {
		dst[k] = val
	}
}
