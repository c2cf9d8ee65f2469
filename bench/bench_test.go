package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"genomedsm/internal/search"
	"genomedsm/internal/server"
)

// These tests stay fast and launch no process: the pure parts of the
// benchmark, and the agreement between the code and BENCHMARK.json.

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 100, p: 0.50, want: 51, ok: true},
		{n: 3, p: 0.50, want: 2, ok: true},     // a median needs no tail
		{n: 100, p: 0.90, want: 91, ok: false}, // 9 samples beyond
		{n: 110, p: 0.90, want: 100, ok: true}, // 10 samples beyond
		{n: 1000, p: 0.99, want: 991, ok: false},
		{n: 1100, p: 0.99, want: 1090, ok: true},
		{n: 0, p: 0.50, want: 0, ok: false},
	}
	for _, c := range cases {
		got, ok := percentile(sorted(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestBestOfRounds(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 3 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}

	// Slow rounds must not move the reported value: the best round is
	// reported, and the median only for setup_s.
	mkRound := func(latMS int, setup float64) *round {
		seg := &segment{attempted: 4}
		for i := 0; i < 4; i++ {
			seg.latencies = append(seg.latencies, time.Duration(latMS)*time.Millisecond)
		}
		return &round{setupS: setup, seg: seg, peakRSSMB: 7}
	}
	res := summarize("w", []*round{mkRound(10, 1), mkRound(90, 5), mkRound(12, 2)})
	if err := res.EndToEnd.complete(endToEnd); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"lat_p50_ms": 10, "setup_s": 2, "peak_rss_mb": 7,
	} {
		if got := res.EndToEnd[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if lo, hi := minMax(res.Series["lat_p50_ms"]); lo != 10 || hi != 90 {
		t.Errorf("lat_p50_ms ranges over %v..%v, want 10..90", lo, hi)
	}
	if res.Attempted != 12 || res.Failed != 0 {
		t.Errorf("attempted %d failed %d, want 12 and 0", res.Attempted, res.Failed)
	}
}

func TestRatesAreWindowMedians(t *testing.T) {
	const msec = time.Millisecond
	back2back := func(planned time.Duration, lat func(i int) time.Duration) *segment {
		seg := &segment{planned: planned}
		for i, at := 0, time.Duration(0); at < planned; i++ {
			seg.good = append(seg.good, answer{start: at, end: at + lat(i), queries: 2, cells: 3e9})
			at += lat(i)
		}
		return seg
	}
	near := func(got, want float64) bool { return got > want*0.999 && got < want*1.001 }

	// A request slower than a window must not quantise the rate: its
	// work is spread over the windows it overlaps.
	qps, gcups := back2back(3*time.Second, func(int) time.Duration { return 750 * msec }).rates()
	if !near(qps, 2/0.75) || !near(gcups, 3/0.75) {
		t.Errorf("750 ms requests: %v queries/s, %v gcups; want %v and %v", qps, gcups, 2/0.75, 3/0.75)
	}
	// One stall lowers the windows it covers and leaves the median alone.
	qps, _ = back2back(4*time.Second, func(i int) time.Duration {
		if i == 7 {
			return 900 * msec
		}
		return 100 * msec
	}).rates()
	if !near(qps, 20) {
		t.Errorf("a stalled pass reads %v queries/s, want the unstalled 20", qps)
	}
	if qps, gcups := (&segment{planned: 100 * msec}).rates(); qps != 0 || gcups != 0 {
		t.Errorf("a pass shorter than a window reads %v, %v; want 0, 0", qps, gcups)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	rows := selfTimes(
		[]layerRow{{name: "a", totalU: 100}, {name: "b", totalU: 70}, {name: "c", totalU: 60}},
		[]layerRow{{name: "d", totalU: 35}, {name: "e", totalU: 20}},
	)
	want := map[string]float64{"a": 30, "b": 10, "c": 5, "d": 35, "e": 20}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	var sum float64
	for _, r := range rows {
		if r.selfU != want[r.name] {
			t.Errorf("self time of %s = %v, want %v", r.name, r.selfU, want[r.name])
		}
		sum += r.selfU
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the root's 100", sum)
	}
}

func TestOracleComparison(t *testing.T) {
	want := []search.Hit{
		{Index: 3, ID: "rec0003", Score: 17, QBegin: 1, QEnd: 20, TBegin: 5, TEnd: 24},
		{Index: 1, ID: "rec0001", Score: 9, QBegin: 2, QEnd: 12, TBegin: 7, TEnd: 17},
	}
	same := func() []server.HitJSON {
		return []server.HitJSON{
			{Index: 3, ID: "rec0003", Score: 17, QBegin: 1, QEnd: 20, TBegin: 5, TEnd: 24},
			{Index: 1, ID: "rec0001", Score: 9, QBegin: 2, QEnd: 12, TBegin: 7, TEnd: 17},
		}
	}
	if err := compareHits(want, same()); err != nil {
		t.Errorf("identical hits rejected: %v", err)
	}
	for name, mutate := range map[string]func(h []server.HitJSON) []server.HitJSON{
		"index":   func(h []server.HitJSON) []server.HitJSON { h[0].Index = 4; return h },
		"id":      func(h []server.HitJSON) []server.HitJSON { h[1].ID = "x"; return h },
		"score":   func(h []server.HitJSON) []server.HitJSON { h[0].Score++; return h },
		"q_begin": func(h []server.HitJSON) []server.HitJSON { h[0].QBegin++; return h },
		"q_end":   func(h []server.HitJSON) []server.HitJSON { h[0].QEnd++; return h },
		"t_begin": func(h []server.HitJSON) []server.HitJSON { h[1].TBegin++; return h },
		"t_end":   func(h []server.HitJSON) []server.HitJSON { h[1].TEnd++; return h },
		"order":   func(h []server.HitJSON) []server.HitJSON { h[0], h[1] = h[1], h[0]; return h },
		"missing": func(h []server.HitJSON) []server.HitJSON { return h[:1] },
	} {
		if err := compareHits(want, mutate(same())); err == nil {
			t.Errorf("a wrong %s passed the comparison", name)
		}
	}

	r := &request{single: true, queries: []query{{want: want}}}
	good, _ := json.Marshal(server.ResultJSON{Hits: same()})
	if err := checkResponse(r, good); err != nil {
		t.Errorf("good single response rejected: %v", err)
	}
	failed, _ := json.Marshal(server.ResultJSON{Hits: same(), Error: "deadline"})
	if err := checkResponse(r, failed); err == nil {
		t.Error("a response carrying an error passed")
	}
	r.single = false
	if err := checkResponse(r, good); err == nil {
		t.Error("a bare result passed as a batch envelope")
	}
	env, _ := json.Marshal(server.ResponseJSON{Results: []server.ResultJSON{{Hits: same()}}})
	if err := checkResponse(r, env); err != nil {
		t.Errorf("good batch response rejected: %v", err)
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := w.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.generate(7)
		c, _ := w.generate(8)
		if !bytes.Equal(a.fasta, b.fasta) {
			t.Errorf("%s: the same seed gave different FASTA files", w.name)
		}
		if bytes.Equal(a.fasta, c.fasta) {
			t.Errorf("%s: different seeds gave the same FASTA file", w.name)
		}
		if len(a.reqs) != len(b.reqs) || len(a.reqs) != len(c.reqs) {
			t.Fatalf("%s: request counts differ", w.name)
		}
		differs := false
		for j := range a.reqs {
			if !bytes.Equal(a.reqs[j].body, b.reqs[j].body) {
				t.Errorf("%s: the same seed gave different bodies for request %d", w.name, j)
			}
			differs = differs || !bytes.Equal(a.reqs[j].body, c.reqs[j].body)
		}
		if !differs {
			t.Errorf("%s: different seeds gave the same request bodies", w.name)
		}
		if !bytes.Equal(a.first.body, b.first.body) || bytes.Equal(a.first.body, c.first.body) {
			t.Errorf("%s: a launch's first request does not follow the seed", w.name)
		}
		// The database size, and so the work of a scan, does not depend
		// on the seed; only content and arrangement do.
		if a.bases != c.bases || len(a.recs) != len(c.recs) {
			t.Errorf("%s: database size depends on the seed: %d bases vs %d", w.name, a.bases, c.bases)
		}
	}
	other, _ := workloads[1].generate(7)
	first, _ := workloads[0].generate(7)
	if bytes.Equal(first.fasta, other.fasta) {
		t.Error("two workloads share a database at one seed")
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []decl   `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the code's default is %d", file.RunSeconds, runSeconds)
	}
	if n := len(file.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(file.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(file.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(file.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the code runs %d", len(file.Workloads), len(workloads))
	}
	for i, d := range file.Workloads {
		checkName("workload", d.Name)
		w := workloadByName(d.Name)
		if w == nil {
			t.Errorf("workload %q is declared but the code does not run it", d.Name)
			continue
		}
		if i < len(workloads) && workloads[i].name != d.Name {
			t.Errorf("workload %d is %q in the file and %q in the code", i, d.Name, workloads[i].name)
		}
		if d.Why != w.why {
			t.Errorf("workload %q: the file's why differs from the code's", d.Name)
		}
		if d.Why == "" || len(d.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters", d.Name)
		}
	}

	compare := func(kind string, file []decl, code []metric, bounded bool) {
		if len(file) != len(code) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the code emits %d", len(file), kind, len(code))
		}
		byName := map[string]metric{}
		for _, m := range code {
			byName[m.name] = m
		}
		for _, d := range file {
			checkName(kind+" metric", d.Name)
			m, ok := byName[d.Name]
			if !ok {
				t.Errorf("%s metric %q is declared but the code does not emit it", kind, d.Name)
				continue
			}
			delete(byName, d.Name)
			if d.Unit != m.unit || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q in the file, %q in the code", d.Name, d.Unit, m.unit)
			}
			if d.Better != m.better || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s: better %q in the file, %q in the code", d.Name, d.Better, m.better)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25):
				t.Errorf("%s: an end-to-end metric needs a bound in (0, 0.25]", d.Name)
			case !bounded && d.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
		for name := range byName {
			t.Errorf("%s metric %q is emitted but not declared in BENCHMARK.json", kind, name)
		}
	}
	compare("end-to-end", file.EndToEnd, endToEnd, true)
	compare("per-layer", file.PerLayer, perLayer, false)

	var setup *decl
	for i := range file.EndToEnd {
		if file.EndToEnd[i].Name == "setup_s" {
			setup = &file.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("end_to_end must hold setup_s in s, lower is better")
	}
	for _, d := range file.EndToEnd {
		if *d.Bound > *setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}
