package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSearchCmdDispatchModes pins the routing flag contract: every mode
// returns the identical hit list on the same synthetic database ("fixed"
// is an alias of auto), and an unknown mode and the retired -calibrate
// flag are rejected.
func TestSearchCmdDispatchModes(t *testing.T) {
	hits := func(mode string) []searchJSONHit {
		t.Helper()
		var buf bytes.Buffer
		args := []string{"-n", "350", "-db-size", "40", "-db-len", "250", "-k", "6", "-json", "-dispatch", mode}
		if err := searchCmd(args, &buf); err != nil {
			t.Fatalf("dispatch=%s: %v", mode, err)
		}
		var rep searchJSON
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Hits) == 0 {
			t.Fatalf("dispatch=%s found no hits", mode)
		}
		return rep.Hits
	}
	want := hits("scalar")
	for _, mode := range []string{"auto", "fixed"} {
		got := hits(mode)
		if len(got) != len(want) {
			t.Fatalf("dispatch=%s: %d hits, scalar %d", mode, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("dispatch=%s hit %d: %+v, scalar %+v", mode, i, got[i], want[i])
			}
		}
	}
	var buf bytes.Buffer
	if err := searchCmd([]string{"-dispatch", "warp", "-n", "50", "-db-size", "4"}, &buf); err == nil {
		t.Error("unknown dispatch mode accepted")
	}
	if err := searchCmd([]string{"-calibrate"}, &buf); err == nil {
		t.Error("retired -calibrate flag accepted")
	}
}
