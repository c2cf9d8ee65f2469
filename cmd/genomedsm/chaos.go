package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"genomedsm/internal/chaos"
	"genomedsm/internal/recovery"
)

// chaosCmd implements `genomedsm chaos`: the seeded fault-injection and
// schedule-exploration sweep. Every strategy is run under N explored
// schedules — permuted lock grants, barrier orders and eviction victims,
// plus injected message delays and reordering, and optionally message
// loss/duplication (-loss, -dup) and crash-stop faults with recovery
// (-kill node@point) — and its results are checked bit-for-bit against
// the sequential baseline. A failing interleaving prints its plan seed;
// `-replay` reruns exactly that interleaving and dumps its protocol
// trace, including any crash/recovery events.
func chaosCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("genomedsm chaos", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		seed      = fs.Int64("seed", 1, "master seed: derives the input pair and every schedule's fault plan")
		schedules = fs.Int("schedules", 4, "schedules to explore per strategy")
		strategy  = fs.String("strategy", "all", "strategy to check: noblock | blocked | blockedmp | preprocess | phase2 | all")
		procs     = fs.Int("procs", 4, "simulated cluster size")
		n         = fs.Int("len", 600, "generated sequence length")
		cache     = fs.Int("cache", 4, "per-node page-cache slots (forces eviction traffic; -1 = strategy default)")
		timeout   = fs.Duration("timeout", 60*time.Second, "per-run watchdog; an overrun is reported as a hang")
		noFaults  = fs.Bool("no-faults", false, "disable message faults (schedule exploration only)")
		replay    = fs.Int64("replay", 0, "replay one run with this plan seed (requires a single -strategy) and dump its trace")
		traceTail = fs.Int("trace", 64, "protocol trace events to show for a divergence or replay")
		kill      = fs.String("kill", "", "crash-stop schedule: comma-separated node@point[+delay] specs, e.g. 1@2 or 1@2+0.05 (not applied to blockedmp)")
		loss      = fs.Float64("loss", 0, "per-attempt message-loss probability, all classes (at-least-once delivery with dedup)")
		dup       = fs.Float64("dup", 0, "probability a delivered message arrives twice (duplicate suppressed by sequence numbers)")

		searchMode = fs.Bool("search", false, "check the sharded database-search layer instead of the DSM strategies")
		shards     = fs.Int("shards", 4, "(with -search) shard cluster width")
		queries    = fs.Int("queries", 2, "(with -search) queries per scattered batch")
		reorder    = fs.Float64("reorder", 0, "(with -search) per-message reorder probability")
		killShard  = fs.String("kill-shard", "", "(with -search) crash one worker: shard@groups, e.g. 1@1 kills shard 1 after its first lane group")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if *loss < 0 || *loss >= 1 || *dup < 0 || *dup >= 1 || *reorder < 0 || *reorder >= 1 {
		return fmt.Errorf("-loss, -dup and -reorder must be probabilities in [0, 1)")
	}
	if *searchMode {
		return chaosSearch(w, chaosSearchArgs{
			seed: *seed, schedules: *schedules, shards: *shards, queries: *queries,
			loss: *loss, dup: *dup, reorder: *reorder, killShard: *killShard,
			replay: *replay,
		})
	}

	var sts []chaos.Strategy
	if *strategy == "all" || *strategy == "" {
		sts = chaos.AllStrategies()
	} else {
		for _, name := range strings.Split(*strategy, ",") {
			st, err := chaos.ParseStrategy(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			sts = append(sts, st)
		}
	}
	opt := chaos.Options{
		Seed:      *seed,
		Schedules: *schedules,
		Nprocs:    *procs,
		SeqLen:    *n,
		CacheSlots: func() int {
			if *cache < 0 {
				return -1
			}
			return *cache
		}(),
		Timeout:   *timeout,
		TraceTail: *traceTail,
		UsePlanZero: func() bool {
			return *noFaults
		}(),
	}
	if *noFaults {
		opt.Plan = chaos.PlanConfig{} // all-zero: schedule exploration only
	}
	if *loss > 0 || *dup > 0 {
		// Probabilities ride on the effective plan: the defaults unless
		// -no-faults zeroed the delays.
		if !*noFaults {
			opt.Plan = chaos.DefaultPlanConfig()
		}
		for class := range opt.Plan.Loss {
			opt.Plan.Loss[class] = *loss
			opt.Plan.Dup[class] = *dup
		}
		opt.UsePlanZero = true // the plan is now deliberate; keep it
	}
	if *kill != "" {
		kills, err := recovery.ParseKills(*kill)
		if err != nil {
			return err
		}
		for _, k := range kills {
			if k.Node >= *procs {
				return fmt.Errorf("-kill %s: node %d out of range for -procs %d", k, k.Node, *procs)
			}
		}
		opt.Kills = kills
	}

	if *replay != 0 {
		if len(sts) != 1 {
			return fmt.Errorf("-replay needs exactly one -strategy, got %d", len(sts))
		}
		return chaosReplay(w, sts[0], opt, *replay, *traceTail)
	}

	start := time.Now()
	var divergences []*chaos.Divergence
	runs := 0
	for _, st := range sts {
		stOpt := opt
		stOpt.Strategies = []chaos.Strategy{st}
		rep, err := chaos.CheckStrategies(stOpt)
		if err != nil {
			return fmt.Errorf("strategy %s: %w", st, err)
		}
		runs += rep.Runs
		verdict := "bit-exact vs sequential"
		if len(rep.Divergences) > 0 {
			verdict = fmt.Sprintf("%d DIVERGENT", len(rep.Divergences))
			divergences = append(divergences, rep.Divergences...)
		}
		fmt.Fprintf(w, "%-11s %d schedules: %s\n", st, rep.Runs, verdict)
	}
	fmt.Fprintf(w, "\nseed %d: %d runs, %d divergences (%.2fs wall)\n",
		*seed, runs, len(divergences), time.Since(start).Seconds())
	if len(divergences) > 0 {
		extra := ""
		if *kill != "" {
			extra += fmt.Sprintf(" -kill %s", *kill)
		}
		if *loss > 0 {
			extra += fmt.Sprintf(" -loss %g", *loss)
		}
		if *dup > 0 {
			extra += fmt.Sprintf(" -dup %g", *dup)
		}
		for _, d := range divergences {
			fmt.Fprintln(w, d.Error())
			fmt.Fprintf(w, "  replay: genomedsm chaos -strategy %s -seed %d%s -replay %d\n",
				d.Strategy, *seed, extra, d.PlanSeed)
		}
		return fmt.Errorf("%d of %d runs diverged from the sequential baseline", len(divergences), runs)
	}
	return nil
}

// chaosSearchArgs carries the -search mode flags.
type chaosSearchArgs struct {
	seed      int64
	schedules int
	shards    int
	queries   int
	loss      float64
	dup       float64
	reorder   float64
	killShard string
	replay    int64
}

// chaosSearch runs the sharded-search differential oracle: every
// schedule scatters a query batch across a faulty cluster — message
// loss, duplication, reordering, optionally a worker crashed mid-scan —
// and checks the merged results bit-for-bit against a fault-free
// single-node scan. With a kill configured, the recovery counters must
// additionally prove the crash, detection and reassignment happened.
func chaosSearch(w io.Writer, a chaosSearchArgs) error {
	opt := chaos.SearchOptions{
		Seed: a.seed, Schedules: a.schedules, Shards: a.shards, Queries: a.queries,
		Loss: a.loss, Dup: a.dup, Reorder: a.reorder, KillShard: chaos.NoKill,
	}
	if a.killShard != "" {
		k, err := recovery.ParseKill(a.killShard)
		if err != nil {
			return fmt.Errorf("-kill-shard: %w", err)
		}
		opt.KillShard, opt.KillAfter = k.Node, k.Point
	}
	if a.replay != 0 {
		res, st, err := chaos.RunShardedOnce(opt, a.replay)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "replayed sharded search with fault seed %d: %d queries\n", a.replay, len(res))
		for i, br := range res {
			if br.Err != nil {
				fmt.Fprintf(w, "  query %d: error %v\n", i, br.Err)
				continue
			}
			fmt.Fprintf(w, "  query %d: %d hits over %d records\n", i, len(br.Result.Hits), br.Result.Searched)
		}
		fmt.Fprintf(w, "counters: %d retries (lost attempts), %d kills, %d dead detected, %d reassigns, %d duped, %d reordered\n",
			st.Retries, st.Kills, st.DeadDetected, st.Reassigns, st.MsgsDuped, st.MsgsReordered)
		return nil
	}
	start := time.Now()
	rep, err := chaos.CheckShardedSearch(opt)
	if err != nil {
		return err
	}
	verdict := "bit-exact vs single-node"
	if len(rep.Divergences) > 0 {
		verdict = fmt.Sprintf("%d DIVERGENT", len(rep.Divergences))
	}
	fmt.Fprintf(w, "sharded search (%d shards, %d queries/batch): %d schedules: %s\n",
		a.shards, a.queries, rep.Runs, verdict)
	fmt.Fprintf(w, "seed %d: %d runs, %d divergences (%.2fs wall)\n",
		a.seed, rep.Runs, len(rep.Divergences), time.Since(start).Seconds())
	if len(rep.Divergences) > 0 {
		extra := ""
		if a.killShard != "" {
			extra += fmt.Sprintf(" -kill-shard %s", a.killShard)
		}
		if a.loss > 0 {
			extra += fmt.Sprintf(" -loss %g", a.loss)
		}
		if a.dup > 0 {
			extra += fmt.Sprintf(" -dup %g", a.dup)
		}
		if a.reorder > 0 {
			extra += fmt.Sprintf(" -reorder %g", a.reorder)
		}
		for _, d := range rep.Divergences {
			fmt.Fprintln(w, d.Error())
			fmt.Fprintf(w, "  replay: genomedsm chaos -search -shards %d -seed %d%s -replay %d\n",
				a.shards, a.seed, extra, d.FaultSeed)
		}
		return fmt.Errorf("%d of %d runs diverged from the single-node baseline", len(rep.Divergences), rep.Runs)
	}
	return nil
}

// chaosReplay reruns a single interleaving byte-for-byte from its plan
// seed and prints the comparable result plus the protocol trace tail.
func chaosReplay(w io.Writer, st chaos.Strategy, opt chaos.Options, planSeed int64, tail int) error {
	res, err := chaos.RunOne(st, opt, planSeed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %s with plan seed %d: %d gate picks, %d trace events\n",
		st, planSeed, res.Picks, len(res.Trace))
	switch {
	case res.Pre != nil:
		fmt.Fprintf(w, "preprocess: %d hits, best %d at (%d,%d)\n",
			res.Pre.TotalHits, res.Pre.BestScore, res.Pre.BestI, res.Pre.BestJ)
	case res.Alignments != nil:
		fmt.Fprintf(w, "phase2: %d alignments\n", len(res.Alignments))
	default:
		fmt.Fprintf(w, "wavefront: %d candidates\n", len(res.Candidates))
	}
	fmt.Fprintf(w, "dsm: %s\n", res.Stats.String())
	if len(res.Trace) > 0 {
		shown := res.Trace
		if tail > 0 && len(shown) > tail {
			fmt.Fprintf(w, "trace (last %d of %d events):\n", tail, len(shown))
			shown = shown[len(shown)-tail:]
		} else {
			fmt.Fprintf(w, "trace (%d events):\n", len(shown))
		}
		for _, ev := range shown {
			fmt.Fprintf(w, "  %s\n", ev.String())
		}
	}
	return nil
}
