package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced interval. Spans of one request share an id; parent
// names the span one depth up. The depths of an id are peeled one after
// another from the benchmark's own code — POST to the binary, then the
// same request through each inner layer in process — so a child's
// interval does not lie inside its parent's: read durations, not
// positions.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record times fn as one span.
func (t *tracer) record(name, parent string, id int, fn func() error) error {
	start := time.Since(t.origin)
	err := fn()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		StartNS: int64(start), EndNS: int64(time.Since(t.origin)),
	})
	return err
}

// medianUS returns the median duration of the named spans in
// microseconds, 0 when there are none.
func (t *tracer) medianUS(name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return median(d)
}

func (t *tracer) write(path string) error {
	raw, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name   string
	totalU float64 // median span duration, us
	selfU  float64 // duration minus the children's
}

// selfTimes turns per-layer median durations, outermost first, into
// self times: a span's duration minus what its child spans cover. The
// last entry of chain may have sibling children (leaves), which are
// subtracted from it together and listed after it with their whole
// duration as self time.
func selfTimes(chain []layerRow, leaves []layerRow) []layerRow {
	var rows []layerRow
	for i, r := range chain {
		r.selfU = r.totalU
		if i+1 < len(chain) {
			r.selfU -= chain[i+1].totalU
		} else {
			for _, l := range leaves {
				r.selfU -= l.totalU
			}
		}
		rows = append(rows, r)
	}
	for _, l := range leaves {
		l.selfU = l.totalU
		rows = append(rows, l)
	}
	return rows
}

// printSelfTable prints the Fig.-10-style split of one request's time
// and the share of the outermost span that the non-negative self times
// account for.
func printSelfTable(workload string, rows []layerRow) {
	if len(rows) == 0 || rows[0].totalU == 0 {
		return
	}
	root := rows[0].totalU
	fmt.Printf("self time per request, %s (medians over the traced ids)\n", workload)
	fmt.Printf("  %-16s %12s %12s %7s\n", "span", "total us", "self us", "share")
	var covered float64
	for _, r := range rows {
		fmt.Printf("  %-16s %12.1f %12.1f %6.1f%%\n", r.name, r.totalU, r.selfU, 100*r.selfU/root)
		if r.selfU > 0 {
			covered += r.selfU
		}
	}
	fmt.Printf("  self times account for %.1f%% of %s\n", 100*covered/root, rows[0].name)
}
