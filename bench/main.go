// Command bench is the repository's system benchmark: it builds
// cmd/genomedsm, generates every input from a seed, drives the real
// `genomedsm index` → `genomedsm serve` binary over loopback with five
// closed-loop workloads, verifies every response against an in-process
// scalar oracle, and reports end-to-end metrics (untraced) and
// per-layer metrics (a separate traced pass). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// The run shape is part of the benchmark's definition, recorded in
// BENCHMARK.json (run_seconds) and README.md, not varied between
// commits: a run is `rounds` cycles per workload, and the measured
// seconds are split evenly over them.
const (
	rounds     = 4
	runSeconds = 16
)

// shape is the run shape; only -smoke changes it.
type shape struct {
	rounds       int
	segment      time.Duration // measured closed-loop pass of a round
	warmup       time.Duration // unmeasured closed-loop pass before it
	setups       int           // fresh set-ups per round; the fastest is the round's setup_s sample
	warmLaunches int           // warm-cache relaunches per round, feeding cmd.cold_start_ms
	traceIDs     int           // requests peeled in the traced pass; 0 = the workload's own count
	probe        time.Duration // time budget of one single-layer probe; 0 = a single call
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "run one workload (default: all five, rounds interleaved)")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives byte-identical FASTA files and request bodies")
		seconds = flag.Int("seconds", runSeconds, "measured seconds per workload, split over the rounds")
		trace   = flag.Int("trace", -1, "0 = untraced end-to-end run, 1 = traced per-layer run (default: both, one after the other)")
		repeat  = flag.Int("repeat", 0, "run K end-to-end sets back to back and check them against the bounds of BENCHMARK.json")
		smoke   = flag.Bool("smoke", false, "1 round, 2 s segments, 5 traced ids: a quick check that everything still runs")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		return 2
	}

	// Whatever ends the run, no server process outlives it.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.Exit(130)
	}()
	defer killAll()

	sh := shape{
		rounds: rounds, segment: time.Duration(*seconds) * time.Second / rounds,
		warmup: time.Second, setups: 2, warmLaunches: 3, probe: 300 * time.Millisecond,
	}
	if *smoke {
		sh = shape{
			rounds: 1, segment: 2 * time.Second,
			warmup: time.Second / 2, setups: 1, warmLaunches: 1, traceIDs: 5,
		}
	}
	b, err := prepare(*name, *seed)
	if err == nil {
		defer b.cleanup()
		switch {
		case *repeat > 0:
			err = b.repeatSets(sh, *repeat)
		default:
			err = b.measure(sh, *trace)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// bench is one prepared run: the built binary and every selected
// workload's inputs, oracle and files.
type bench struct {
	seed     int64
	benchDir string
	runDir   string
	sites    []*site
	prepareS float64
}

// prepare builds the binary and derives every input from the seed. Its
// time is the benchmark's own, not the system's: it is printed as
// bench.prepare_s and excluded from setup_s.
func prepare(name string, seed int64) (*bench, error) {
	t0 := time.Now()
	benchDir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	repoRoot := filepath.Dir(benchDir)
	if _, err := os.Stat(filepath.Join(repoRoot, "cmd", "genomedsm")); err != nil {
		return nil, fmt.Errorf("no program to measure: %w", err)
	}
	selected := workloads
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{*w}
	}
	outDir := filepath.Join(benchDir, "out")
	b := &bench{
		seed:     seed,
		benchDir: benchDir,
		runDir:   filepath.Join(outDir, fmt.Sprintf("run-%d-%d", seed, os.Getpid())),
	}
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildBinary(repoRoot, outDir)
	if err != nil {
		return nil, err
	}
	for i := range selected {
		w := &selected[i]
		in, err := w.generate(seed)
		if err != nil {
			return nil, err
		}
		if err := in.oracle(); err != nil {
			return nil, err
		}
		s, err := newSite(bin, b.runDir, w, in)
		if err != nil {
			return nil, err
		}
		b.sites = append(b.sites, s)
	}
	b.prepareS = time.Since(t0).Seconds()
	return b, nil
}

// cleanup removes the run's inputs (FASTA, packs, dispatch caches) and
// keeps what a reader wants afterwards: results.json and the traces.
func (b *bench) cleanup() {
	for _, s := range b.sites {
		_ = os.RemoveAll(s.dir)
	}
}

// result is one workload's outcome.
type result struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	EndToEnd  values `json:"end_to_end,omitempty"`
	// Series holds the samples each end-to-end metric is taken from, one
	// per round.
	Series   map[string][]float64 `json:"series,omitempty"`
	PerLayer values               `json:"per_layer,omitempty"`
	firstErr error
	last     *round // the last end-to-end round, reused by the traced pass
}

// endToEndPass runs the rounds interleaved — every workload once per
// round — so that a slow spell of the shared machine lands in one round
// of every workload, not in one workload.
func (b *bench) endToEndPass(sh shape) ([]*result, error) {
	per := make([][]*round, len(b.sites))
	for r := 0; r < sh.rounds; r++ {
		for i, s := range b.sites {
			rd, err := s.runRound(sh)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", s.w.name, r, err)
			}
			per[i] = append(per[i], rd)
		}
	}
	out := make([]*result, len(b.sites))
	for i, s := range b.sites {
		out[i] = summarize(s.w.name, per[i])
		out[i].last = per[i][len(per[i])-1]
	}
	return out, nil
}

// summarize turns a workload's rounds into its end-to-end metrics.
//
// On this kind of shared two-core machine noise only ever slows a round,
// and a slow spell can last longer than a whole run, so medians over
// rounds swing with the host (tiny_single's p50 reads 0.6 ms in two
// rounds of three and 1.0 ms in the third). Each metric is therefore
// computed per round and the best round is reported. setup_s alone is
// the median over rounds, as the benchmark contract asks of it.
func summarize(name string, rds []*round) *result {
	res := &result{Workload: name, EndToEnd: values{}, Series: map[string][]float64{}}
	series := res.Series
	for _, r := range rds {
		p50, _ := percentile(r.seg.latencies, 0.5)
		series["setup_s"] = append(series["setup_s"], r.setupS)
		series["lat_p50_ms"] = append(series["lat_p50_ms"], p50)
		series["peak_rss_mb"] = append(series["peak_rss_mb"], r.peakRSSMB)
		res.Attempted += r.seg.attempted
		res.Failed += r.seg.failed
		if res.firstErr == nil {
			res.firstErr = r.seg.firstErr
		}
	}
	for _, m := range endToEnd {
		best, highest := minMax(series[m.name])
		if m.better == "higher" {
			best = highest
		}
		res.EndToEnd[m.name] = best
	}
	res.EndToEnd["setup_s"] = median(series["setup_s"])
	return res
}

// layerPass is the traced run of one workload: a live round for the
// launch timings and /statsz deltas (rd, or a fresh one when nil), the
// peeled trace against that same kind of server, the single-layer
// probes and the exact counts.
func (b *bench) layerPass(s *site, sh shape, rd *round) (*result, error) {
	res := &result{Workload: s.w.name, PerLayer: values{}}
	if rd == nil {
		var err error
		if rd, err = s.runRound(sh); err != nil {
			return nil, err
		}
		res.Attempted, res.Failed, res.firstErr = rd.seg.attempted, rd.seg.failed, rd.seg.firstErr
	}
	res.PerLayer.merge(liveMetrics(rd))

	env, err := openLayers(s)
	if err != nil {
		return nil, err
	}
	defer env.close()
	l, err := s.serve(false)
	if err != nil {
		return nil, err
	}
	defer l.proc.kill()
	ids := s.w.traceIDs
	if sh.traceIDs > 0 {
		ids = sh.traceIDs
	}
	tr, traced, rows, err := env.tracePass(l.proc.url, ids)
	if err != nil {
		return nil, err
	}
	res.Attempted += 2 * ids
	if _, err := l.proc.stop(); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(b.runDir, "trace-"+s.w.name+".json")); err != nil {
		return nil, err
	}
	printSelfTable(s.w.name, rows)
	res.PerLayer.merge(traced)

	probed, err := env.probes(sh.probe)
	if err != nil {
		return nil, err
	}
	res.PerLayer.merge(probed)
	counts, err := exactCounts(s.w, s.in)
	if err != nil {
		return nil, err
	}
	res.PerLayer.merge(counts)
	return res, res.PerLayer.complete(perLayer)
}

// measure is the default command: the end-to-end pass, then the traced
// pass, each unless -trace selects the other. With -workload the last
// line of standard output is the one-object result the driver reads.
func (b *bench) measure(sh shape, trace int) error {
	fmt.Printf("seed %d, %d round(s) of %.1f s per workload, nproc %d, bench.prepare_s %.2f\n",
		b.seed, sh.rounds, sh.segment.Seconds(), runtime.NumCPU(), b.prepareS)
	results := make([]*result, len(b.sites))
	if trace != 1 {
		var err error
		if results, err = b.endToEndPass(sh); err != nil {
			return err
		}
		for _, r := range results {
			if err := r.EndToEnd.complete(endToEnd); err != nil {
				return err
			}
			fmt.Printf("%s: end to end, %d requests, %d failed\n", r.Workload, r.Attempted, r.Failed)
			for _, m := range endToEnd {
				lo, hi := minMax(r.Series[m.name])
				fmt.Printf("  %-34s %14.6g %-10s (%.6g..%.6g over rounds)\n", m.name, r.EndToEnd[m.name], m.unit, lo, hi)
			}
		}
	}
	if trace != 0 {
		for i, s := range b.sites {
			var rd *round
			if results[i] != nil {
				rd = results[i].last
			}
			r, err := b.layerPass(s, sh, rd)
			if err != nil {
				return fmt.Errorf("%s traced: %w", s.w.name, err)
			}
			fmt.Printf("%s: per layer\n", r.Workload)
			for _, m := range perLayer {
				fmt.Printf("  %-34s %14.6g %s\n", m.name, r.PerLayer[m.name], m.unit)
			}
			if e2e := results[i]; e2e != nil {
				r.EndToEnd, r.Series = e2e.EndToEnd, e2e.Series
				r.Attempted += e2e.Attempted
				r.Failed += e2e.Failed
				if e2e.firstErr != nil {
					r.firstErr = e2e.firstErr
				}
			}
			results[i] = r
		}
	}

	raw, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.runDir, "results.json"), raw, 0o644); err != nil {
		return err
	}
	if len(results) == 1 && trace >= 0 {
		if err := printResultLine(results[0], trace); err != nil {
			return err
		}
	}
	var failure error
	for _, r := range results {
		if r.Failed > 0 {
			failure = errors.Join(failure, fmt.Errorf("%s: %d of %d requests failed, first: %w", r.Workload, r.Failed, r.Attempted, r.firstErr))
		}
	}
	return failure
}

// printResultLine prints the driver's contract line: with trace 0 every
// end-to-end metric, with trace 1 every per-layer metric.
func printResultLine(r *result, trace int) error {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decl, v := endToEnd, r.EndToEnd
	if trace == 1 {
		decl, v = perLayer, r.PerLayer
	}
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]reading{}}
	for _, m := range decl {
		line.Metrics[m.name] = reading{Value: v[m.name], Unit: m.unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// benchmarkFile is the part of ../BENCHMARK.json the repeat check
// reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatSets runs k end-to-end sets back to back with the same seed and
// checks the repeatability the bounds rest on: for every workload ×
// end-to-end metric the spread over the sets, as a share of their
// median, stays within the metric's bound; the exact counts are
// identical between sets; nothing failed.
func (b *bench) repeatSets(sh shape, k int) error {
	raw, err := os.ReadFile(filepath.Join(filepath.Dir(b.benchDir), "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bound := map[string]float64{}
	for _, m := range file.EndToEnd {
		bound[m.Name] = m.Bound
	}

	sets := make([][]*result, k)
	counts := make([][][]string, k)
	for i := range sets {
		fmt.Printf("set %d of %d\n", i+1, k)
		if sets[i], err = b.endToEndPass(sh); err != nil {
			return err
		}
		for _, s := range b.sites {
			c, err := exactCounts(s.w, s.in)
			if err != nil {
				return err
			}
			counts[i] = append(counts[i], exactOf(c))
		}
	}

	var breaches int
	for wi, s := range b.sites {
		fmt.Printf("%s\n", s.w.name)
		for _, m := range endToEnd {
			var xs []float64
			for _, set := range sets {
				xs = append(xs, set[wi].EndToEnd[m.name])
			}
			lo, hi := minMax(xs)
			rel := (hi - lo) / median(xs)
			verdict := "ok"
			if rel > bound[m.name] {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("  %-16s spread %6.3f of bound %5.2f  %s  %v\n", m.name, rel, bound[m.name], verdict, xs)
		}
		for i := 1; i < k; i++ {
			if fmt.Sprint(counts[i][wi]) != fmt.Sprint(counts[0][wi]) {
				fmt.Printf("  exact counts differ between set 1 and set %d:\n   %v\n   %v\n", i+1, counts[0][wi], counts[i][wi])
				breaches++
			}
		}
		for i, set := range sets {
			if r := set[wi]; r.Failed > 0 {
				fmt.Printf("  set %d: %d of %d requests failed, first: %v\n", i+1, r.Failed, r.Attempted, r.firstErr)
				breaches++
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d repeatability breach(es)", breaches)
	}
	fmt.Println("all sets agree within the bounds; exact counts identical; nothing failed")
	return nil
}
