package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"genomedsm/internal/server"
)

// warmupRequests is the least number of requests of the warm-up before
// a measured segment, however slow they are.
const warmupRequests = 5

// segment is the outcome of one closed-loop pass.
type segment struct {
	latencies []time.Duration // one per answered request, any outcome
	good      []answer        // the verified-correct ones
	planned   time.Duration   // the pass's intended length
	wall      time.Duration   // its real length: the last answers end after the deadline
	attempted int
	failed    int // non-200, transport error or oracle mismatch
	firstErr  error
	genCPU    time.Duration // this process's CPU time over the pass
}

// answer is one verified-correct request: when it was sent and fully
// read, relative to the start of the pass, and the work it carried.
type answer struct {
	start, end time.Duration
	queries    int
	cells      int64 // Σ|q|·bases: the full-matrix cells of its queries
}

// rateWindow is the window over which throughput is sampled. A shared
// two-core machine stalls for tens of milliseconds at a time; a rate
// over the whole pass is pulled down by every stall, the median window
// by none that spares most windows.
const rateWindow = 500 * time.Millisecond

// rates returns the pass's throughput in queries/s and 1e9 cells/s:
// the median over its windows, where each answer's work is spread
// evenly over the time it took, so that a window holds fractions of the
// answers that overlap it and slow requests do not quantise the rate.
func (seg *segment) rates() (qps, gcups float64) {
	n := int(seg.planned / rateWindow)
	if n == 0 {
		return 0, 0
	}
	queries, cells := make([]float64, n), make([]float64, n)
	for _, a := range seg.good {
		for w := int(a.start / rateWindow); w < n && time.Duration(w)*rateWindow < a.end; w++ {
			lo, hi := time.Duration(w)*rateWindow, time.Duration(w+1)*rateWindow
			share := float64(min(a.end, hi)-max(a.start, lo)) / float64(a.end-a.start)
			queries[w] += share * float64(a.queries)
			cells[w] += share * float64(a.cells)
		}
	}
	return median(queries) / rateWindow.Seconds(), median(cells) / rateWindow.Seconds() / 1e9
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closedLoop drives url with one client, which sends its next request
// only after it has read the previous answer, until both the duration
// and the request minimum are met. It times a request from send to body
// fully read and verifies it after the timestamp.
//
// One client on every workload: the server's workers already fill the
// two cores, and a second client — tiny_single and mixed_batch_sharded
// had one — made the median follow the host's scheduler (tiny_single
// 0.64..1.28 ms over back-to-back 2 s passes against 0.54..0.60 ms with
// one client).
func closedLoop(in *inputs, url string, d time.Duration, minRequests int) *segment {
	seg := &segment{planned: d}
	hc := newClient()
	defer hc.CloseIdleConnections()
	cpu0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(d)
	for i := 0; time.Now().Before(deadline) || i < minRequests; i++ {
		r := &in.reqs[i%len(in.reqs)]
		start := time.Now()
		raw, err := post(hc, url, r.body)
		end := time.Now()
		seg.latencies = append(seg.latencies, end.Sub(start))
		if err == nil {
			err = checkResponse(r, raw)
		}
		if err != nil {
			seg.failed++
			if seg.firstErr == nil {
				seg.firstErr = err
			}
			continue
		}
		seg.good = append(seg.good, answer{
			start: start.Sub(t0), end: end.Sub(t0),
			queries: len(r.queries), cells: in.cells(r),
		})
	}
	seg.attempted = len(seg.latencies)
	seg.wall = time.Since(t0)
	seg.genCPU = cpuTime() - cpu0
	sort.Slice(seg.latencies, func(i, j int) bool { return seg.latencies[i] < seg.latencies[j] })
	return seg
}

// percentile returns the p-quantile (0 < p < 1) of sorted latencies in
// milliseconds, and whether the sample supports it: a percentile is
// reported only with at least ten samples beyond it.
func percentile(sorted []time.Duration, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(p * float64(n))
	if idx >= n {
		idx = n - 1
	}
	beyond := n - 1 - idx
	return ms(sorted[idx]), p <= 0.5 || beyond >= 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the middle two for an even
// count) without disturbing v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// site is where one workload's files live for a run.
type site struct {
	bin, dir string
	fasta    string
	pack     string
	cacheDir string
	w        *workload
	in       *inputs
}

func newSite(bin, runDir string, w *workload, in *inputs) (*site, error) {
	dir := filepath.Join(runDir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &site{
		bin: bin, dir: dir, w: w, in: in,
		fasta:    filepath.Join(dir, "db.fasta"),
		pack:     filepath.Join(dir, "db.pack"),
		cacheDir: filepath.Join(dir, "dispatch-cache"),
	}
	return s, os.WriteFile(s.fasta, in.fasta, 0o644)
}

// launch is one exec of serve up to its first verified answer.
type launch struct {
	proc    *serveProc
	readyMS float64 // exec → listener announced
	firstMS float64 // listener announced → first verified answer
	totalMS float64
}

// index runs `genomedsm index` on the FASTA file.
func (s *site) index() (time.Duration, error) {
	t0 := time.Now()
	err := runTool(s.dir, s.bin, "index", "-db", s.fasta, "-o", s.pack)
	return time.Since(t0), err
}

// serve launches the binary and waits for its first verified answer.
// With coldCache the dispatch cache directory is emptied first, so the
// process calibrates as a fresh deployment would.
func (s *site) serve(coldCache bool) (*launch, error) {
	if coldCache {
		if err := os.RemoveAll(s.cacheDir); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(s.cacheDir, 0o755); err != nil {
		return nil, err
	}
	var extra []string
	if s.w.shards >= 2 {
		extra = []string{"-shards", strconv.Itoa(s.w.shards)}
	}
	p, err := startServe(s.bin, s.pack, s.cacheDir, extra...)
	if err != nil {
		return nil, err
	}
	first := &s.in.first
	hc := newClient()
	defer hc.CloseIdleConnections()
	raw, err := post(hc, p.url, first.body)
	if err == nil {
		err = checkResponse(first, raw)
	}
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("first answer: %w", err)
	}
	done := time.Now()
	return &launch{
		proc:    p,
		readyMS: ms(p.ready.Sub(p.started)),
		firstMS: ms(done.Sub(p.ready)),
		totalMS: ms(done.Sub(p.started)),
	}, nil
}

// round is one full cycle of a workload: re-index, a cold-cache launch,
// warm relaunches, warm-up, a measured segment, a /statsz scrape and a
// drain.
type round struct {
	setupS      float64
	indexS      float64
	coldReadyMS float64
	coldStartMS []float64 // warm-cache launches
	readyMS     []float64
	firstMS     []float64
	drainMS     []float64
	seg         *segment
	statsBefore server.StatszJSON
	statsAfter  server.StatszJSON
	peakRSSMB   float64
}

func (s *site) runRound(sh shape) (*round, error) {
	r := &round{}
	var l *launch // the running server, if any
	defer func() {
		if l != nil {
			l.proc.kill()
		}
	}()
	stop := func() error {
		if l == nil {
			return nil
		}
		drain, err := l.proc.stop()
		l = nil
		r.drainMS = append(r.drainMS, ms(drain))
		return err
	}

	// The round's set-up sample is the fastest of sh.setups fresh
	// set-ups back to back: the pack's fsync alone swings 0.3..1.2 s on
	// this disk, and a stall only ever adds.
	for i := 0; i < sh.setups; i++ {
		if err := stop(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		idx, err := s.index()
		if err != nil {
			return nil, err
		}
		if l, err = s.serve(true); err != nil {
			return nil, err
		}
		if setup := time.Since(t0).Seconds(); i == 0 || setup < r.setupS {
			r.setupS, r.indexS, r.coldReadyMS = setup, idx.Seconds(), l.readyMS
		}
	}
	for i := 0; i < sh.warmLaunches; i++ {
		err := stop()
		if err == nil {
			l, err = s.serve(false)
		}
		if err != nil {
			return nil, err
		}
		r.coldStartMS = append(r.coldStartMS, l.totalMS)
		r.readyMS = append(r.readyMS, l.readyMS)
		r.firstMS = append(r.firstMS, l.firstMS)
	}

	url := l.proc.url
	if warm := closedLoop(s.in, url, sh.warmup, warmupRequests); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	if err := scrape(url, &r.statsBefore); err != nil {
		return nil, err
	}
	r.seg = closedLoop(s.in, url, sh.segment, 1)
	if err := scrape(url, &r.statsAfter); err != nil {
		return nil, err
	}
	var err error
	if r.peakRSSMB, err = l.proc.peakRSSMB(); err != nil {
		return nil, err
	}
	return r, stop()
}

func scrape(url string, into *server.StatszJSON) error {
	c := newClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get(url + "/statsz")
	if err != nil {
		return fmt.Errorf("statsz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("statsz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("statsz: %w", err)
	}
	return nil
}
