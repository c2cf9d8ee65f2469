package main

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `
goos: linux
goarch: amd64
pkg: genomedsm
BenchmarkKernelExactScan-4     	     433	   2772724 ns/op	 364.62 MB/s	 364624052 cells/s
BenchmarkKernelExactScan-4     	     409	   2849246 ns/op	 354.83 MB/s	 354830000 cells/s
BenchmarkKernelHeuristicScan-4 	     100	  11532556 ns/op	  87.66 MB/s	  87660000 cells/s
PASS
ok  	genomedsm	12.3s
`

func TestParseBench(t *testing.T) {
	run, err := readRun(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	snap := collapse(run)
	if len(snap) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %v", len(snap), snap)
	}
	exact, ok := snap["KernelExactScan"]
	if !ok {
		t.Fatalf("KernelExactScan missing (prefix/suffix not stripped?): %v", snap)
	}
	// Best-of across the two runs: max throughput, min ns/op.
	if got := exact["cells/s"]; got != 364624052 {
		t.Errorf("cells/s = %v, want best-of 364624052", got)
	}
	if got := exact["MB/s"]; got != 364.62 {
		t.Errorf("MB/s = %v, want 364.62", got)
	}
	if got := exact["ns/op"]; got != 2772724 {
		t.Errorf("ns/op = %v, want best-of (min) 2772724", got)
	}
}

func TestCommonThroughput(t *testing.T) {
	// A baseline recorded before cells/s existed must compare via MB/s.
	av, bv, unit, ok := commonThroughput(
		Metrics{"MB/s": 66, "ns/op": 15e6},
		Metrics{"cells/s": 95e6, "MB/s": 95, "ns/op": 10e6})
	if !ok || unit != "MB/s" || av != 66 || bv != 95 {
		t.Errorf("got %v %v %s %v, want 66 95 MB/s true", av, bv, unit, ok)
	}
	// ns/op-only snapshots compare inverted.
	av, bv, unit, ok = commonThroughput(Metrics{"ns/op": 4}, Metrics{"ns/op": 2})
	if !ok || unit != "op/ns" || av != 0.25 || bv != 0.5 {
		t.Errorf("got %v %v %s %v, want 0.25 0.5 op/ns true", av, bv, unit, ok)
	}
	if _, _, _, ok = commonThroughput(Metrics{"MB/s": 1}, Metrics{"cells/s": 1}); ok {
		t.Error("disjoint units should not compare")
	}
}

func TestCheck(t *testing.T) {
	base := Snapshot{
		"A": Metrics{"cells/s": 100},
		"B": Metrics{"cells/s": 100},
		"D": Metrics{"cells/s": 100},
	}
	cur := Snapshot{
		"A": Metrics{"cells/s": 95},  // -5%: within 10% tolerance
		"B": Metrics{"cells/s": 80},  // -20%: regression
		"C": Metrics{"cells/s": 123}, // added: reported, not failed
		// D retired: reported as removed, not failed.
	}
	lines, regressions := check(base, cur, 0.10)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if len(regressions) != 1 || regressions[0] != "B" {
		t.Errorf("regressions = %v, want [B]", regressions)
	}
	var added, removed bool
	for _, l := range lines {
		if strings.HasPrefix(l, "C") && strings.Contains(l, "added") {
			added = true
		}
		if strings.HasPrefix(l, "D") && strings.Contains(l, "removed") {
			removed = true
		}
	}
	if !added || !removed {
		t.Errorf("added/removed lines missing:\n%s", strings.Join(lines, "\n"))
	}
}

func TestCheckRoundTrip(t *testing.T) {
	run, err := readRun(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	snap := collapse(run)
	// Identical output against itself: never a regression.
	if _, regressions := check(snap, snap, 0.10); len(regressions) != 0 {
		t.Errorf("self-check regressed: %v", regressions)
	}
}

// benchdiff runs the command on stdin and returns its exit status and
// what it printed.
func benchdiff(t *testing.T, stdin string, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	status = run(append([]string{"-file", filepath.Join(t.TempDir(), "none.json")}, args...),
		strings.NewReader(stdin), &out, &errOut)
	return status, out.String(), errOut.String()
}

func TestRequireGrammar(t *testing.T) {
	for _, line := range []string{
		"A x/y >= 2",
		"A x/y <= 1.3",
		"A cells/s >= 0.9 * B cells/s",
		"  A   cells/s  >=  1.5  *  B  queries/s ",
	} {
		if _, err := parseRequirement(line); err != nil {
			t.Errorf("%q: %v", line, err)
		}
	}
	for _, line := range []string{
		"",
		"A x/y >= ",
		"A x/y => 2",
		"A x/y > 2",
		"A x/y >= two",
		"A x/y >= 2 * B",
		"A x/y >= 2 x B x/y",
		"A x/y >= 2 * B x/y extra",
		"A >= 2 * B x/y",
	} {
		if _, err := parseRequirement(line); err == nil {
			t.Errorf("%q parsed, want an error", line)
		}
		status, stdout, stderr := benchdiff(t, sampleOutput, "-require", line)
		if status != 2 || stdout != "" || !strings.Contains(stderr, "Usage") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want usage and exit 2", line, status, stdout, stderr)
		}
	}
}

const ratioRuns = `
BenchmarkOdd-2    1  100 ns/op  3.0 r
BenchmarkOdd-2    1  100 ns/op  1.0 r
BenchmarkOdd-2    1  100 ns/op  5.0 r
BenchmarkOdd-2    1  100 ns/op  2.0 r
BenchmarkOdd-2    1  100 ns/op  4.0 r
BenchmarkEven-2   1  100 ns/op  4.0 r
BenchmarkEven-2   1  100 ns/op  1.0 r
BenchmarkEven-2   1  100 ns/op  3.0 r
BenchmarkEven-2   1  100 ns/op  2.0 r
`

func TestRequireMedian(t *testing.T) {
	// Odd counts take the middle sample; even counts the lower middle,
	// as awk's v[int((NR+1)/2)] over sorted values did.
	cases := []struct {
		req, line string
		status    int
	}{
		{"Odd r >= 3", "Odd r >= 3: median 3.00 of 5: ok", 0},
		{"Odd r >= 3.01", "Odd r >= 3.01: median 3.00 of 5: FAILED", 1},
		{"Even r >= 2", "Even r >= 2: median 2.00 of 4: ok", 0},
		{"Even r >= 2.5", "Even r >= 2.5: median 2.00 of 4: FAILED", 1},
		{"Even r <= 2", "Even r <= 2: median 2.00 of 4: ok", 0},
		{"Odd r <= 2.99", "Odd r <= 2.99: median 3.00 of 5: FAILED", 1},
	}
	for _, tc := range cases {
		status, stdout, _ := benchdiff(t, ratioRuns, "-require", tc.req)
		if status != tc.status || strings.TrimSpace(stdout) != tc.line {
			t.Errorf("%q: exit %d, printed %q; want %d, %q", tc.req, status, stdout, tc.status, tc.line)
		}
	}
}

const rateRuns = `
BenchmarkFast-2   10  900 ns/op  300 cells/s
BenchmarkFast-2   10  700 ns/op  100 cells/s
BenchmarkFast-2   10  800 ns/op  200 cells/s
BenchmarkSlow-2   10  990 ns/op  150 cells/s
BenchmarkSlow-2   10  999 ns/op  190 cells/s
BenchmarkSlow-2   10  995 ns/op  100 cells/s
`

func TestRequireBestOf(t *testing.T) {
	// Two rows compare through their best samples: the largest rate
	// (300 vs 190) and the smallest time (700 vs 990), not medians.
	cases := []struct {
		req, line string
		status    int
	}{
		{"Fast cells/s >= 1.5 * Slow cells/s", "Fast cells/s >= 1.5 * Slow cells/s: 1.58x (best 300 vs 190): ok", 0},
		{"Fast cells/s >= 1.6 * Slow cells/s", "Fast cells/s >= 1.6 * Slow cells/s: 1.58x (best 300 vs 190): FAILED", 1},
		{"Fast ns/op <= 0.71 * Slow ns/op", "Fast ns/op <= 0.71 * Slow ns/op: 0.71x (best 700 vs 990): ok", 0},
		{"Fast ns/op <= 0.7 * Slow ns/op", "Fast ns/op <= 0.7 * Slow ns/op: 0.71x (best 700 vs 990): FAILED", 1},
	}
	for _, tc := range cases {
		status, stdout, _ := benchdiff(t, rateRuns, "-require", tc.req)
		if status != tc.status || strings.TrimSpace(stdout) != tc.line {
			t.Errorf("%q: exit %d, printed %q; want %d, %q", tc.req, status, stdout, tc.status, tc.line)
		}
	}
}

// cpuRuns is `-cpu 1,2` output: go test prints the -cpu 1 row without a
// suffix and the -cpu 2 row with "-2".
const cpuRuns = `
BenchmarkSearchRealign/long20000x500      1  9 ns/op  100 cells/s
BenchmarkSearchRealign/long20000x500      1  9 ns/op  110 cells/s
BenchmarkSearchRealign/long20000x500-2    1  9 ns/op  150 cells/s
BenchmarkSearchRealign/long20000x500-2    1  9 ns/op  170 cells/s
BenchmarkSearchRealign/short-2            1  9 ns/op  5 cells/s
BenchmarkSearchRealign/short-4            1  9 ns/op  7 cells/s
`

func TestRequireCPURows(t *testing.T) {
	// A name printed exactly wins over the suffix-stripped one, so the
	// -cpu 1 row is not merged with the -2 row.
	status, stdout, _ := benchdiff(t, cpuRuns, "-require",
		"SearchRealign/long20000x500-2 cells/s >= 1.4 * SearchRealign/long20000x500 cells/s")
	want := "SearchRealign/long20000x500-2 cells/s >= 1.4 * SearchRealign/long20000x500 cells/s: 1.55x (best 170 vs 110): ok"
	if status != 0 || strings.TrimSpace(stdout) != want {
		t.Errorf("exit %d, printed %q; want 0, %q", status, stdout, want)
	}
	// A name no row carries exactly pools every suffixed row it names.
	status, stdout, _ = benchdiff(t, cpuRuns, "-require", "SearchRealign/short cells/s >= 5")
	want = "SearchRealign/short cells/s >= 5: median 5.00 of 2: ok"
	if status != 0 || strings.TrimSpace(stdout) != want {
		t.Errorf("exit %d, printed %q; want 0, %q", status, stdout, want)
	}
	// The -check snapshot strips every suffix and keeps the best sample.
	run, err := readRun(strings.NewReader(cpuRuns))
	if err != nil {
		t.Fatal(err)
	}
	if got := collapse(run)["SearchRealign/long20000x500"]["cells/s"]; got != 170 {
		t.Errorf("snapshot cells/s = %v, want 170 over both rows", got)
	}
}

func TestRequireMissing(t *testing.T) {
	cases := []struct{ req, line string }{
		{"Gone r >= 1", "Gone r >= 1: no row Gone: FAILED"},
		{"Odd cells/s >= 1", "Odd cells/s >= 1: row Odd has no cells/s: FAILED"},
		{"Odd r >= 1 * Gone r", "Odd r >= 1 * Gone r: no row Gone: FAILED"},
		{"Odd r >= 1 * Even cells/s", "Odd r >= 1 * Even cells/s: row Even has no cells/s: FAILED"},
	}
	for _, tc := range cases {
		status, stdout, stderr := benchdiff(t, ratioRuns, "-require", tc.req)
		if status != 1 || strings.TrimSpace(stdout) != tc.line || !strings.Contains(stderr, tc.req) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 1, %q and the requirement named",
				tc.req, status, stdout, stderr, tc.line)
		}
	}
	if status, _, _ := benchdiff(t, "PASS\n", "-require", "Odd r >= 1"); status != 1 {
		t.Errorf("no benchmark lines: exit %d, want 1", status)
	}
}

func TestRequireReportsAll(t *testing.T) {
	// Every requirement is evaluated and printed, failing or not, and
	// -check's rows with them, before the one exit.
	file := filepath.Join(t.TempDir(), "bench.json")
	if err := saveFile(file, &File{Snapshots: map[string]Snapshot{
		"baseline": {"Fast": Metrics{"cells/s": 1000}},
	}}); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	status := run([]string{"-file", file, "-check", "-baseline", "baseline",
		"-require", "Gone r >= 1",
		"-require", "Fast cells/s >= 1.5 * Slow cells/s",
		"-require", "Fast cells/s >= 9 * Slow cells/s",
	}, strings.NewReader(rateRuns), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if status != 1 || len(lines) != 5 {
		t.Fatalf("exit %d, %d lines; want 1 and 5:\n%s", status, len(lines), out.String())
	}
	for i, want := range []string{"REGRESSION", "added", ": FAILED", ": ok", ": FAILED"} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %q, want %q in it", i, lines[i], want)
		}
	}
	for _, want := range []string{"1 regression(s)", "2 of 3 requirement(s) failed: Gone r >= 1; Fast cells/s >= 9 * Slow cells/s"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr %q lacks %q", errOut.String(), want)
		}
	}
}
