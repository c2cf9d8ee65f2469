// Command benchdiff maintains the kernel benchmark snapshot file
// (BENCH_kernels.json) and gates benchmark runs, against it and
// against themselves.
//
// It reads `go test -bench` output on stdin and either records it as a
// named snapshot or checks it:
//
//	go test -run '^$' -bench Kernel -count 5 . | benchdiff -snapshot current
//	go test -run '^$' -bench Kernel -count 5 . | benchdiff -check
//	go test -run '^$' -bench Search -count 5 . |
//		benchdiff -require 'SearchDatabasePruned cells/s >= 1.5 * SearchDatabase cells/s'
//	benchdiff -diff seed current
//	benchdiff -list
//
// Repeated runs of the same benchmark (from -count N) collapse to the
// best observation — maximum for throughput metrics, minimum for ns/op —
// which is the standard way to strip scheduler noise from shared
// machines. -check compares the preferred throughput metric (cells/s,
// falling back to MB/s, falling back to inverted ns/op) and fails when
// any benchmark is slower than baseline by more than -max-regress
// percent (default 5).
//
// -require (repeatable) gates rows of the run itself. 'ROW UNIT OP N'
// compares the median of the row's samples of UNIT with N (the lower
// middle sample for an even count); 'ROW UNIT OP K * ROW UNIT' compares
// the best samples of two rows. OP is >= or <=. ROW names a row
// as printed, -GOMAXPROCS suffix included, so the rows of a -cpu 1,2
// run stay apart; a name that no row carries exactly matches the rows
// it names once their suffix is stripped. A missing row or unit fails
// its requirement. Every requirement and every -check row is printed
// before benchdiff exits 1 on any failure.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics maps a metric unit ("ns/op", "MB/s", "cells/s", ...) to its
// best observed value for one benchmark.
type Metrics map[string]float64

// Snapshot maps a benchmark name (without the Benchmark prefix and
// GOMAXPROCS suffix) to its metrics.
type Snapshot map[string]Metrics

// File is the on-disk shape of BENCH_kernels.json.
type File struct {
	Snapshots map[string]Snapshot `json:"snapshots"`
}

// lowerIsBetter reports whether smaller values of the unit are faster.
func lowerIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "/op")
}

// Sample is one value of a `go test -bench` line, under the row name
// as printed: without the Benchmark prefix, with any -GOMAXPROCS suffix.
type Sample struct {
	Row, Unit string
	V         float64
}

// readRun collects every sample of `go test -bench` output, in order.
func readRun(r io.Reader) ([]Sample, error) {
	var run []Sample
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		// f[1] is the iteration count; value/unit pairs follow.
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				run = append(run, Sample{strings.TrimPrefix(f[0], "Benchmark"), f[i+1], v})
			}
		}
	}
	return run, sc.Err()
}

// stripProcs drops a -GOMAXPROCS suffix so snapshots from machines with
// different core counts stay comparable.
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// collapse reduces a run to the best value per metric, keyed by
// suffix-stripped name.
func collapse(run []Sample) Snapshot {
	snap := Snapshot{}
	for _, s := range run {
		m := snap[stripProcs(s.Row)]
		if m == nil {
			m = Metrics{}
			snap[stripProcs(s.Row)] = m
		}
		// Keep the lower value of an ns/op-style unit, else the higher.
		if old, seen := m[s.Unit]; !seen || lowerIsBetter(s.Unit) == (s.V < old) {
			m[s.Unit] = s.V
		}
	}
	return snap
}

// samples returns the values of unit in row, and whether the run has
// the row at all. A row printed exactly as named wins, so `-cpu 1,2`
// output keeps its unsuffixed -cpu 1 row apart from the -2 row;
// otherwise every row whose suffix-stripped name is row pools its
// samples.
func samples(run []Sample, row, unit string) (vs []float64, seen bool) {
	exact := false
	for _, s := range run {
		exact = exact || s.Row == row
	}
	for _, s := range run {
		if s.Row == row || !exact && stripProcs(s.Row) == row {
			seen = true
			if s.Unit == unit {
				vs = append(vs, s.V)
			}
		}
	}
	return vs, seen
}

// commonThroughput picks the best throughput metric present in both
// metric sets, so snapshots recorded before a new metric existed stay
// comparable (e.g. a seed snapshot with only MB/s against a current one
// that also reports cells/s).
func commonThroughput(a, b Metrics) (av, bv float64, unit string, ok bool) {
	for _, u := range []string{"cells/s", "MB/s"} {
		x, okA := a[u]
		y, okB := b[u]
		if okA && okB {
			return x, y, u, true
		}
	}
	x, okA := a["ns/op"]
	y, okB := b["ns/op"]
	if okA && okB && x > 0 && y > 0 {
		return 1 / x, 1 / y, "op/ns", true
	}
	return 0, 0, "", false
}

// check compares cur against base and returns one line per benchmark
// plus the list of regressions beyond tol. Benchmarks present in only
// one snapshot are reported as added or removed but are never
// regressions: a snapshot taken before a benchmark existed must not
// fail the gate, and neither must retiring one.
func check(base, cur Snapshot, tol float64) (lines []string, regressions []string) {
	for _, name := range sortedKeys(cur) {
		bm, ok := base[name]
		if !ok {
			lines = append(lines, fmt.Sprintf("%-30s (added: no baseline yet)", name))
			continue
		}
		bv, cv, unit, ok := commonThroughput(bm, cur[name])
		if !ok || bv <= 0 {
			continue
		}
		ratio := cv / bv
		status := "ok"
		if ratio < 1-tol {
			status = "REGRESSION"
			regressions = append(regressions, name)
		}
		lines = append(lines, fmt.Sprintf("%-30s %12.4g -> %12.4g %-8s %6.2fx  %s",
			name, bv, cv, unit, ratio, status))
	}
	for _, name := range sortedKeys(base) {
		if _, ok := cur[name]; !ok {
			lines = append(lines, fmt.Sprintf("%-30s (removed: only in baseline)", name))
		}
	}
	return lines, regressions
}

func sortedKeys(s Snapshot) []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadFile(path string) (*File, error) {
	f := &File{Snapshots: map[string]Snapshot{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Snapshots == nil {
		f.Snapshots = map[string]Snapshot{}
	}
	return f, nil
}

func saveFile(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// requirement is one -require line, ROW UNIT OP RHS, where RHS is a
// constant or K * ROW UNIT. A constant is compared with the median of
// the row's samples (the lower middle one for an even count); another
// row is compared through each row's best sample.
type requirement struct {
	text        string
	row, unit   string
	op          string
	k           float64
	rrow, runit string // the right-hand row, empty for a constant
}

func parseRequirement(s string) (requirement, error) {
	f := strings.Fields(s)
	r := requirement{text: strings.Join(f, " ")}
	if (len(f) != 4 && len(f) != 7) || (len(f) == 7 && f[4] != "*") || (f[2] != ">=" && f[2] != "<=") {
		return r, fmt.Errorf("want 'ROW UNIT OP N' or 'ROW UNIT OP K * ROW UNIT', OP >= or <=")
	}
	k, err := strconv.ParseFloat(f[3], 64)
	r.row, r.unit, r.op, r.k = f[0], f[1], f[2], k
	if len(f) == 7 {
		r.rrow, r.runit = f[5], f[6]
	}
	return r, err
}

// eval reports the requirement against run as one line, and whether it
// holds. A missing row or unit fails it.
func (r requirement) eval(run []Sample) (string, bool) {
	lv, n, err := reading(run, r.row, r.unit, r.rrow != "")
	rv := 1.0
	if err == nil && r.rrow != "" {
		rv, _, err = reading(run, r.rrow, r.runit, true)
	}
	ok := err == nil && (r.op == ">=" && lv >= r.k*rv || r.op == "<=" && lv <= r.k*rv)
	msg, verdict := "", "FAILED"
	switch {
	case err != nil:
		msg = err.Error()
	case r.rrow == "":
		msg = fmt.Sprintf("median %.2f of %d", lv, n)
	default:
		msg = fmt.Sprintf("%.2fx (best %.4g vs %.4g)", lv/rv, lv, rv)
	}
	if ok {
		verdict = "ok"
	}
	return r.text + ": " + msg + ": " + verdict, ok
}

// reading is row's best sample of unit, or with bestOf false its
// median, and the number of samples it was taken from.
func reading(run []Sample, row, unit string, bestOf bool) (float64, int, error) {
	vs, seen := samples(run, row, unit)
	if !seen {
		return 0, 0, fmt.Errorf("no row %s", row)
	}
	if len(vs) == 0 {
		return 0, 0, fmt.Errorf("row %s has no %s", row, unit)
	}
	sort.Float64s(vs)
	switch {
	case !bestOf:
		return vs[(len(vs)-1)/2], len(vs), nil
	case lowerIsBetter(unit):
		return vs[0], len(vs), nil
	}
	return vs[len(vs)-1], len(vs), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is benchdiff with its arguments and streams given; it returns the
// exit status: 1 for a failed gate or an error, 2 for a usage error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file       = fs.String("file", "BENCH_kernels.json", "snapshot file")
		snapshot   = fs.String("snapshot", "", "record stdin bench output under this snapshot name")
		doCheck    = fs.Bool("check", false, "check stdin bench output against the baseline snapshot")
		baseline   = fs.String("baseline", "current", "baseline snapshot name for -check")
		maxRegress = fs.Float64("max-regress", 5, "allowed per-benchmark throughput regression for -check, in percent")
		doList     = fs.Bool("list", false, "list stored snapshots")
		diff       = fs.Bool("diff", false, "compare two stored snapshots given as arguments: benchdiff -diff OLD NEW")
		require    []requirement
	)
	fs.Func("require", "gate stdin bench output on a line 'ROW UNIT OP N' (the row's median) or 'ROW UNIT OP K * ROW UNIT' (the best of two rows); repeatable", func(s string) error {
		r, err := parseRequirement(s)
		require = append(require, r)
		return err
	})
	if fs.Parse(args) != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}

	f, err := loadFile(*file)
	if err != nil {
		return fail(err)
	}
	var cur []Sample
	if *snapshot != "" || *doCheck || len(require) > 0 {
		if cur, err = readRun(stdin); err == nil && len(cur) == 0 {
			err = fmt.Errorf("no benchmark lines on stdin")
		}
		if err != nil {
			return fail(err)
		}
	}

	switch {
	case *snapshot != "":
		f.Snapshots[*snapshot] = collapse(cur)
		if err := saveFile(*file, f); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "recorded %d benchmarks as %q in %s\n", len(f.Snapshots[*snapshot]), *snapshot, *file)

	case *doCheck || len(require) > 0:
		base, ok := f.Snapshots[*baseline]
		if *doCheck && !ok {
			return fail(fmt.Errorf("%s: no snapshot %q (have %v)", *file, *baseline, mapKeys(f.Snapshots)))
		}
		status := 0
		if *doCheck {
			lines, regressions := check(base, collapse(cur), *maxRegress/100)
			for _, l := range lines {
				fmt.Fprintln(stdout, l)
			}
			if len(regressions) > 0 {
				fmt.Fprintf(stderr, "benchdiff: %d regression(s) beyond %.0f%%: %s\n",
					len(regressions), *maxRegress, strings.Join(regressions, ", "))
				status = 1
			}
		}
		var unmet []string
		for _, r := range require {
			line, ok := r.eval(cur)
			fmt.Fprintln(stdout, line)
			if !ok {
				unmet = append(unmet, r.text)
			}
		}
		if len(unmet) > 0 {
			fmt.Fprintf(stderr, "benchdiff: %d of %d requirement(s) failed: %s\n",
				len(unmet), len(require), strings.Join(unmet, "; "))
			status = 1
		}
		return status

	case *diff:
		args := fs.Args()
		if len(args) != 2 {
			return fail(fmt.Errorf("-diff needs two snapshot names"))
		}
		old, ok := f.Snapshots[args[0]]
		if !ok {
			return fail(fmt.Errorf("no snapshot %q", args[0]))
		}
		cur, ok := f.Snapshots[args[1]]
		if !ok {
			return fail(fmt.Errorf("no snapshot %q", args[1]))
		}
		lines, _ := check(old, cur, math.Inf(1))
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
		}

	case *doList:
		for _, name := range mapKeys(f.Snapshots) {
			fmt.Fprintf(stdout, "%s: %d benchmarks\n", name, len(f.Snapshots[name]))
		}

	default:
		fs.Usage()
		return 2
	}
	return 0
}

func mapKeys(m map[string]Snapshot) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
