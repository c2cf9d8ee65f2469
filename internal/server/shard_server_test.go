package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"

	"genomedsm/internal/search"
	"genomedsm/internal/shard"
)

// TestShardedServerDifferential pins the serve-over-shards path: a
// server scanning through a 3-shard cluster answers bit-identically to
// a direct search.Run across option shapes.
func TestShardedServerDifferential(t *testing.T) {
	q, recs := testDB(t, 48, 60, 40)
	_, hs := newTestServer(t, recs, Config{Shards: 3, Options: search.Options{Prune: true}})

	for _, k := range []int{3, 10} {
		want, err := search.Run(q, recs, search.Options{TopK: k, Prune: true})
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postSearch(t, hs.URL, RequestJSON{Query: q.String(), TopK: k})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var got ResultJSON
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("bad response %s: %v", body, err)
		}
		if got.Searched != want.Searched || got.Cells != want.Cells {
			t.Errorf("k=%d: searched/cells %d/%d, want %d/%d",
				k, got.Searched, got.Cells, want.Searched, want.Cells)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("k=%d: %d hits, want %d", k, len(got.Hits), len(want.Hits))
		}
		for i, h := range want.Hits {
			g := got.Hits[i]
			if g.Index != h.Index || g.ID != h.ID || g.Score != h.Score ||
				g.QBegin != h.QBegin || g.QEnd != h.QEnd ||
				g.TBegin != h.TBegin || g.TEnd != h.TEnd {
				t.Errorf("k=%d hit %d: %+v, want %+v", k, i, g, h)
			}
		}
	}
}

// TestShardedServerUnderFaults injects transport loss and duplication
// through ShardOptions: the service keeps answering exactly.
func TestShardedServerUnderFaults(t *testing.T) {
	q, recs := testDB(t, 48, 60, 40)
	_, hs := newTestServer(t, recs, Config{
		Shards: 4,
		ShardOptions: &shard.Options{
			Faults: &shard.FaultConfig{Seed: 11, Loss: 0.3, Dup: 0.2},
		},
	})
	want, err := search.Run(q, recs, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postSearch(t, hs.URL, RequestJSON{Query: q.String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ResultJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("%d hits, want %d", len(got.Hits), len(want.Hits))
	}
	for i, h := range want.Hits {
		if got.Hits[i].Score != h.Score || got.Hits[i].Index != h.Index {
			t.Errorf("hit %d: %+v, want %+v", i, got.Hits[i], h)
		}
	}
}

// TestRetryAfterOn429 pins the overload satellite: a request shed by
// the admission queue carries a Retry-After hint within the documented
// clamp.
func TestRetryAfterOn429(t *testing.T) {
	q, recs := testDB(t, 64, 60, 30)
	s, hs := newTestServer(t, recs, Config{MaxQueue: 1})
	release := holdFirstBatch(s)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSearch(t, hs.URL, RequestJSON{Query: q[:24].String()})
	}()
	waitFor(t, "blocker batch to start", func() bool { return s.st.batches.Load() == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSearch(t, hs.URL, RequestJSON{Query: q[:24].String()})
	}()
	waitFor(t, "queue to fill", func() bool { return queueLen(s) == 1 })

	resp, body := postSearch(t, hs.URL, RequestJSON{Query: q[:24].String()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 30 {
		t.Fatalf("Retry-After %q outside the [1,30]s clamp", ra)
	}
	release()
	wg.Wait()
}

// TestStatszShardsAndQueueDepth checks the new observability fields:
// queue_depth always present, the shards section only on a sharded
// server, with per-shard health covering the whole partition.
func TestStatszShardsAndQueueDepth(t *testing.T) {
	q, recs := testDB(t, 48, 60, 40)
	s, hs := newTestServer(t, recs, Config{Shards: 3})
	if _, body := postSearch(t, hs.URL, RequestJSON{Query: q.String()}); len(body) == 0 {
		t.Fatal("empty search response")
	}
	resp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatszJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.QueueDepth != 0 {
		t.Errorf("idle queue depth %d, want 0", st.QueueDepth)
	}
	if st.Shards == nil {
		t.Fatal("sharded server reported no shards section")
	}
	if len(st.Shards.Shards) != 3 {
		t.Fatalf("%d shard healths, want 3", len(st.Shards.Shards))
	}
	covered, bases := 0, int64(0)
	for _, h := range st.Shards.Shards {
		if !h.Alive || h.Killed {
			t.Errorf("shard %d unhealthy on a clean server: %+v", h.Shard, h)
		}
		if h.Records == 0 || h.Bases == 0 {
			// 40 records are five lane groups: the deal gives the
			// three shards two, two and one.
			t.Errorf("shard %d owns %d records / %d bases, want a share", h.Shard, h.Records, h.Bases)
		}
		covered += h.Records
		bases += h.Bases
	}
	if covered != s.cfg.DB.Size() || bases != s.cfg.DB.TotalBases() {
		t.Errorf("shards own %d records / %d bases of %d / %d",
			covered, bases, s.cfg.DB.Size(), s.cfg.DB.TotalBases())
	}
	if st.Shards.Queries < 1 || st.Shards.Batches < 1 {
		t.Errorf("cluster saw %d queries / %d batches, want ≥1", st.Shards.Queries, st.Shards.Batches)
	}

	// An unsharded server must omit the section entirely.
	_, hs2 := newTestServer(t, recs, Config{})
	resp2, err := http.Get(hs2.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["shards"]; ok {
		t.Error("unsharded server emitted a shards section")
	}
	if _, ok := raw["queue_depth"]; !ok {
		t.Error("statsz missing queue_depth")
	}
}
