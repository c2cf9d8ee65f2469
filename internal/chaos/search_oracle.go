package chaos

import (
	"context"
	"fmt"
	"strings"
	"time"

	"genomedsm/internal/bio"
	"genomedsm/internal/search"
	"genomedsm/internal/shard"
)

// SearchOptions configures a CheckShardedSearch sweep: a seeded
// differential oracle for the distributed database-search layer. Every
// schedule derives its own transport fault seed from (Seed, schedule),
// so a divergence report names the exact seed that replays it.
type SearchOptions struct {
	// Seed is the master seed: it derives the synthetic database, the
	// queries, and (via SearchPlanSeed) each schedule's fault seed.
	Seed int64
	// Schedules is how many fault schedules to explore (default 4).
	Schedules int
	// Shards is the cluster width (default 4).
	Shards int
	// Queries per batch (default 2).
	Queries int
	// DBSize is the synthetic database record count (default 48);
	// QueryLen and BaseLen shape the generated sequences (defaults 220
	// and 320).
	DBSize, QueryLen, BaseLen int
	// Loss, Dup and Reorder are per-message transport fault
	// probabilities in [0, 1).
	Loss, Dup, Reorder float64
	// KillShard, when ≥ 0, crashes that worker after KillAfter lane
	// groups of scan progress (KillAfter defaults to 1). The oracle then
	// also asserts the recovery counters prove a kill, a detected death
	// and a reassignment happened. Set NoKill (-1) for a message-fault
	// or clean sweep — the zero value names shard 0, so always set it.
	KillShard int
	KillAfter int
	// Search is the option shape under test (default Prune with TopK 7,
	// exercising the gossiped floor).
	Search *search.Options
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.Schedules <= 0 {
		o.Schedules = 4
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Queries <= 0 {
		o.Queries = 2
	}
	if o.DBSize <= 0 {
		o.DBSize = 48
	}
	if o.QueryLen <= 0 {
		o.QueryLen = 220
	}
	if o.BaseLen <= 0 {
		o.BaseLen = 320
	}
	if o.KillAfter <= 0 {
		o.KillAfter = 1
	}
	if o.Search == nil {
		o.Search = &search.Options{Prune: true, TopK: 7}
	}
	return o
}

// NoKill is the SearchOptions.KillShard value for sweeps without a
// crash schedule.
const NoKill = -1

// SearchPlanSeed derives the fault seed of one schedule. Exported so a
// failure report's seed can be replayed directly against RunShardedOnce.
func SearchPlanSeed(seed int64, schedule int) int64 {
	return int64(hash2(uint64(seed), 0x5ea2c4_0000+uint64(schedule)))
}

// SearchDivergence is one schedule whose sharded result was not
// bit-identical to the single-node scan (or errored, or whose recovery
// counters failed to prove the configured fault fired).
type SearchDivergence struct {
	Schedule  int
	FaultSeed int64
	Detail    string
	Stats     shard.Stats
}

// Error renders the divergence as a replayable failure report.
func (d *SearchDivergence) Error() string {
	return fmt.Sprintf(
		"sharded search divergence: schedule=%d faultSeed=%d\n  %s\n  stats: kills=%d dead=%d reassigns=%d retries=%d duped=%d reordered=%d",
		d.Schedule, d.FaultSeed, d.Detail,
		d.Stats.Kills, d.Stats.DeadDetected, d.Stats.Reassigns, d.Stats.Retries,
		d.Stats.MsgsDuped, d.Stats.MsgsReordered)
}

// SearchReport is the outcome of a CheckShardedSearch sweep.
type SearchReport struct {
	Runs        int
	Divergences []*SearchDivergence
	// Stats aggregates the last schedule's counters (handy for CLI
	// summaries; per-divergence stats ride on the divergence itself).
	Stats shard.Stats
}

// Err returns the first divergence as an error, or nil when every
// schedule was bit-exact.
func (r *SearchReport) Err() error {
	if len(r.Divergences) == 0 {
		return nil
	}
	return r.Divergences[0]
}

// searchInputs synthesizes the query batch and database for a sweep:
// noise records with mutated query fragments planted every eighth, the
// same population the CLI's synthetic mode scans.
func searchInputs(opt SearchOptions) ([]search.BatchQuery, *search.DB) {
	g := bio.NewGenerator(opt.Seed)
	queries := make([]search.BatchQuery, opt.Queries)
	for i := range queries {
		queries[i] = search.BatchQuery{Seq: g.Random(opt.QueryLen)}
	}
	q := queries[0].Seq
	recs := make([]bio.Record, 0, opt.DBSize)
	for i := 0; i < opt.DBSize; i++ {
		if i%8 == 3 && opt.QueryLen >= 2 {
			half := opt.QueryLen / 2
			frag := q[(i*13)%half : half+(i*29)%(half+1)]
			recs = append(recs, bio.Record{
				ID: fmt.Sprintf("hom%d", i), Seq: g.MutatedCopy(frag, bio.DefaultMutationModel()),
			})
			continue
		}
		rl := opt.BaseLen/2 + (i*37)%(opt.BaseLen+1)
		recs = append(recs, bio.Record{ID: fmt.Sprintf("rec%d", i), Seq: g.Random(rl)})
	}
	return queries, search.NewDB(recs)
}

// clusterOptions maps a sweep config onto cluster timing: kill
// schedules need a short lease so the death is detected promptly;
// pure message faults keep a long lease (loss can only delay
// heartbeats, and a false-positive death is legal but noisy).
func clusterOptions(opt SearchOptions, faultSeed int64) shard.Options {
	co := shard.Options{
		Shards: opt.Shards,
		Lease:  10 * time.Second,
	}
	if opt.Loss > 0 || opt.Dup > 0 || opt.Reorder > 0 {
		co.Faults = &shard.FaultConfig{
			Seed: faultSeed, Loss: opt.Loss, Dup: opt.Dup, Reorder: opt.Reorder,
			DelayBase: 100 * time.Microsecond, DelayJitter: time.Millisecond,
		}
	}
	if opt.KillShard >= 0 {
		co.Lease = 250 * time.Millisecond
		co.Heartbeat = 25 * time.Millisecond
		co.Kills = []shard.Kill{{Shard: opt.KillShard, AfterGroups: opt.KillAfter}}
	}
	return co
}

// RunShardedOnce replays a single schedule: same (opt, faultSeed) pair,
// same transport drops and crashes, same result. Returns the sharded
// batch results and the cluster's final counters.
func RunShardedOnce(opt SearchOptions, faultSeed int64) ([]search.BatchResult, shard.Stats, error) {
	opt = opt.withDefaults()
	queries, db := searchInputs(opt)
	c, err := shard.New(db, clusterOptions(opt, faultSeed))
	if err != nil {
		return nil, shard.Stats{}, err
	}
	defer c.Close()
	res, err := c.SearchBatch(context.Background(), queries, *opt.Search)
	return res, c.Stats(), err
}

// CheckShardedSearch is the differential oracle for the shard layer:
// it runs opt.Schedules seeded fault schedules — message loss,
// duplication, reordering and mid-scan worker kills — and asserts each
// sharded batch result is bit-identical (scores, coordinates,
// tie-breaks, Searched, Cells) to a fault-free single-node
// search.RunBatch over the same database. When a kill is configured it
// further asserts the recovery counters prove the crash, the detected
// death and the span reassignment actually occurred, so a vacuous pass
// (kill never fired) is itself a failure.
func CheckShardedSearch(opt SearchOptions) (*SearchReport, error) {
	opt = opt.withDefaults()
	if opt.KillShard >= opt.Shards {
		return nil, fmt.Errorf("chaos: kill shard %d out of range of %d shards", opt.KillShard, opt.Shards)
	}
	queries, db := searchInputs(opt)
	want, err := search.RunBatch(context.Background(), queries, db, *opt.Search)
	if err != nil {
		return nil, fmt.Errorf("chaos: single-node baseline: %w", err)
	}
	rep := &SearchReport{}
	for sched := 0; sched < opt.Schedules; sched++ {
		faultSeed := SearchPlanSeed(opt.Seed, sched)
		rep.Runs++
		got, st, err := RunShardedOnce(opt, faultSeed)
		rep.Stats = st
		if err != nil {
			rep.Divergences = append(rep.Divergences, &SearchDivergence{
				Schedule: sched, FaultSeed: faultSeed, Detail: err.Error(), Stats: st})
			continue
		}
		if detail := compareBatches(got, want); detail != "" {
			rep.Divergences = append(rep.Divergences, &SearchDivergence{
				Schedule: sched, FaultSeed: faultSeed, Detail: detail, Stats: st})
			continue
		}
		if opt.KillShard >= 0 {
			if detail := proveRecovery(st); detail != "" {
				rep.Divergences = append(rep.Divergences, &SearchDivergence{
					Schedule: sched, FaultSeed: faultSeed, Detail: detail, Stats: st})
			}
		}
	}
	return rep, nil
}

// compareBatches checks sharded batch results against the single-node
// baseline, returning "" when bit-exact.
func compareBatches(got, want []search.BatchResult) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d batch results, single-node produced %d", len(got), len(want))
	}
	for i := range want {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			return fmt.Sprintf("query %d: err %v, single-node err %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			continue
		}
		g, w := got[i].Result, want[i].Result
		if g.Searched != w.Searched || g.Cells != w.Cells {
			return fmt.Sprintf("query %d: searched/cells %d/%d, single-node %d/%d",
				i, g.Searched, g.Cells, w.Searched, w.Cells)
		}
		if len(g.Hits) != len(w.Hits) {
			return fmt.Sprintf("query %d: %d hits, single-node found %d", i, len(g.Hits), len(w.Hits))
		}
		for h := range w.Hits {
			if g.Hits[h] != w.Hits[h] {
				return fmt.Sprintf("query %d hit %d: got %+v, single-node %+v", i, h, g.Hits[h], w.Hits[h])
			}
		}
	}
	return ""
}

// proveRecovery asserts the counters witness the configured kill: a
// crash recorded, the lease expiry seen, and the lost span replayed on
// a survivor.
func proveRecovery(st shard.Stats) string {
	var missing []string
	if st.Kills < 1 {
		missing = append(missing, "no kill recorded")
	}
	if st.DeadDetected < 1 {
		missing = append(missing, "death never detected")
	}
	if st.Reassigns < 1 {
		missing = append(missing, "span never reassigned")
	}
	if len(missing) == 0 {
		return ""
	}
	return "recovery not proven: " + strings.Join(missing, ", ")
}

// hash2 mixes two words with the splitmix64 finalizer (the same family
// the shard transport uses for its fault draws).
func hash2(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
