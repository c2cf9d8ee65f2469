// Package chaos is a seeded, deterministic fault-injection and
// schedule-exploration harness for the DSM protocol. It plugs into
// cluster.Config.Hooks — the alignment strategies pass the config through
// to dsm.NewSystem untouched, so any strategy can be run adversarially
// without a signature change — and perturbs three things:
//
//   - message timing: per-class extra delay and jitter on page fetches,
//     diff flushes and write-notice deliveries (Plan.Delay);
//   - delivery order: bounded reordering of same-class message batches
//     (Plan.Permute) and of the protocol's own scheduling tie-breaks —
//     lock-grant order, barrier release order, cache-eviction victims
//     (Plan's cluster.ScheduleControl side);
//   - goroutine interleaving: a TokenGate serializes the node goroutines
//     and picks the next runnable node from the same seed, so an entire
//     run is a pure function of (inputs, seed) and any failure replays
//     byte-for-byte.
//
// CheckStrategies is the differential oracle built on top: it runs the
// parallel alignment strategies under many explored schedules and asserts
// their results stay bit-exact against the sequential baselines.
package chaos

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"genomedsm/internal/cluster"
	"genomedsm/internal/recovery"
)

// DelaySpec is the injected delay for one message class: Base extra
// virtual seconds on every message plus a uniform jitter in [0, Jitter).
type DelaySpec struct {
	Base   float64
	Jitter float64
}

// PlanConfig parameterizes a fault plan.
type PlanConfig struct {
	// Delays holds the per-class injected delays, indexed by
	// cluster.MsgClass.
	Delays [cluster.NumMsgClasses]DelaySpec
	// ReorderWindow bounds delivery reordering: a batch of same-class
	// messages is permuted so no message is displaced more than this many
	// positions from its protocol-default slot. Zero disables reordering.
	ReorderWindow int
	// Loss holds the per-class per-attempt loss probability: each
	// transmission attempt of a class-c message is independently lost with
	// probability Loss[c], up to MaxLost consecutive losses (delivery is
	// never suppressed forever — the DSM is at-least-once with dedup).
	Loss [cluster.NumMsgClasses]float64
	// Dup holds the per-class probability that a delivered message
	// arrives twice (the duplicate suppressed by the receiver's sequence
	// numbers).
	Dup [cluster.NumMsgClasses]float64
	// MaxLost caps consecutive lost attempts per message (default 3 when
	// any loss probability is set).
	MaxLost int
}

// DefaultPlanConfig returns delays on the scale of the calibrated 2005
// network's message costs (hundreds of microseconds) with a modest
// reorder window — enough to shuffle timing-dependent tie-breaks without
// drowning the virtual clock.
func DefaultPlanConfig() PlanConfig {
	var cfg PlanConfig
	cfg.Delays[cluster.MsgPageFetch] = DelaySpec{Base: 1e-4, Jitter: 4e-4}
	cfg.Delays[cluster.MsgDiff] = DelaySpec{Base: 1e-4, Jitter: 4e-4}
	cfg.Delays[cluster.MsgNotice] = DelaySpec{Base: 5e-5, Jitter: 2e-4}
	cfg.ReorderWindow = 3
	return cfg
}

// Plan is a seeded fault plan: it implements both cluster.FaultPlan and
// cluster.ScheduleControl. Every answer is a hash of the seed and a
// per-(node, class) call counter, so what a node experiences depends only
// on its own message sequence — never on how the nodes' calls interleave.
// (The global lock/barrier pick counters are safe for the same reason the
// gate exists: schedule-control calls are made by the token holder, so
// their order is itself deterministic.)
type Plan struct {
	seed  int64
	nodes int
	cfg   PlanConfig

	delayCnt []atomic.Uint64 // class*nodes + node
	permCnt  []atomic.Uint64 // class*nodes + node
	evictCnt []atomic.Uint64 // node
	loseCnt  []atomic.Uint64 // class*nodes + node
	dupCnt   []atomic.Uint64 // class*nodes + node
	lockCnt  atomic.Uint64
	barrCnt  atomic.Uint64
}

// NewPlan builds a plan for a cluster of nodes from a single seed.
func NewPlan(seed int64, nodes int, cfg PlanConfig) *Plan {
	if nodes < 1 {
		nodes = 1
	}
	return &Plan{
		seed:     seed,
		nodes:    nodes,
		cfg:      cfg,
		delayCnt: make([]atomic.Uint64, int(cluster.NumMsgClasses)*nodes),
		permCnt:  make([]atomic.Uint64, int(cluster.NumMsgClasses)*nodes),
		evictCnt: make([]atomic.Uint64, nodes),
		loseCnt:  make([]atomic.Uint64, int(cluster.NumMsgClasses)*nodes),
		dupCnt:   make([]atomic.Uint64, int(cluster.NumMsgClasses)*nodes),
	}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() int64 { return p.seed }

// Delay implements cluster.FaultPlan.
func (p *Plan) Delay(class cluster.MsgClass, node int) float64 {
	spec := p.cfg.Delays[class]
	if spec.Base <= 0 && spec.Jitter <= 0 {
		return 0
	}
	k := p.delayCnt[int(class)*p.nodes+node].Add(1)
	u := unit(recovery.Mix64(uint64(p.seed), 0xDE1A, uint64(class), uint64(node), k))
	return spec.Base + spec.Jitter*u
}

// Permute implements cluster.FaultPlan: consecutive runs of at most
// ReorderWindow+1 messages are shuffled, so no message is displaced more
// than ReorderWindow positions.
func (p *Plan) Permute(class cluster.MsgClass, node, k int) []int {
	w := p.cfg.ReorderWindow
	if w <= 0 || k < 2 {
		return nil
	}
	c := p.permCnt[int(class)*p.nodes+node].Add(1)
	rng := rand.New(rand.NewSource(int64(recovery.Mix64(uint64(p.seed), 0x9E12, uint64(class), uint64(node), c))))
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	for lo := 0; lo < k; lo += w + 1 {
		hi := lo + w + 1
		if hi > k {
			hi = k
		}
		rng.Shuffle(hi-lo, func(a, b int) {
			perm[lo+a], perm[lo+b] = perm[lo+b], perm[lo+a]
		})
	}
	return perm
}

// Lose implements cluster.LossPlan: a capped geometric draw — each
// attempt of the node's next class message is independently lost with
// probability Loss[class], at most MaxLost (default 3) times.
func (p *Plan) Lose(class cluster.MsgClass, node int) int {
	prob := p.cfg.Loss[class]
	if prob <= 0 {
		return 0
	}
	cap := p.cfg.MaxLost
	if cap <= 0 {
		cap = 3
	}
	k := p.loseCnt[int(class)*p.nodes+node].Add(1)
	lost := 0
	for lost < cap {
		u := unit(recovery.Mix64(uint64(p.seed), 0x105E, uint64(class), uint64(node), k, uint64(lost)))
		if u >= prob {
			break
		}
		lost++
	}
	return lost
}

// Duplicate implements cluster.LossPlan: a single per-message draw
// against Dup[class].
func (p *Plan) Duplicate(class cluster.MsgClass, node int) bool {
	prob := p.cfg.Dup[class]
	if prob <= 0 {
		return false
	}
	k := p.dupCnt[int(class)*p.nodes+node].Add(1)
	return unit(recovery.Mix64(uint64(p.seed), 0xD0B1, uint64(class), uint64(node), k)) < prob
}

// PickLockGrant implements cluster.ScheduleControl.
func (p *Plan) PickLockGrant(lock, k int) int {
	if k < 2 {
		return 0
	}
	c := p.lockCnt.Add(1)
	return int(recovery.Mix64(uint64(p.seed), 0x10C4, uint64(lock), c) % uint64(k))
}

// PickBarrierOrder implements cluster.ScheduleControl.
func (p *Plan) PickBarrierOrder(k int) []int {
	if k < 2 {
		return nil
	}
	c := p.barrCnt.Add(1)
	rng := rand.New(rand.NewSource(int64(recovery.Mix64(uint64(p.seed), 0xBA22, c))))
	return rng.Perm(k)
}

// PickEvictVictim implements cluster.ScheduleControl.
func (p *Plan) PickEvictVictim(node int, pages []int) int {
	if len(pages) < 2 {
		return 0
	}
	c := p.evictCnt[node].Add(1)
	return int(recovery.Mix64(uint64(p.seed), 0xE71C, uint64(node), c) % uint64(len(pages)))
}

// Hooks bundles the plan, a fresh TokenGate on the same seed, and an
// optional observer into the cluster.Hooks a chaos run rides on.
// cacheSlots > 0 additionally squeezes the per-node page cache to force
// replacement traffic.
func (p *Plan) Hooks(observer any, cacheSlots int) *cluster.Hooks {
	return &cluster.Hooks{
		Faults:     p,
		Sched:      p,
		Gate:       NewTokenGate(p.nodes, p.seed),
		Observer:   observer,
		CacheSlots: cacheSlots,
		Loss:       p,
	}
}

// PlanSeed derives the per-run plan seed CheckStrategies uses for a
// (base seed, strategy, schedule index) triple; exported so a failure
// report's schedule can be replayed in isolation.
func PlanSeed(seed int64, st Strategy, schedule int) int64 {
	return int64(recovery.Mix64(uint64(seed), 0x5EED, uint64(st), uint64(schedule)))
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// String renders the config compactly for reports.
func (c PlanConfig) String() string {
	s := fmt.Sprintf("fetch=%g+%g diff=%g+%g notice=%g+%g window=%d",
		c.Delays[cluster.MsgPageFetch].Base, c.Delays[cluster.MsgPageFetch].Jitter,
		c.Delays[cluster.MsgDiff].Base, c.Delays[cluster.MsgDiff].Jitter,
		c.Delays[cluster.MsgNotice].Base, c.Delays[cluster.MsgNotice].Jitter,
		c.ReorderWindow)
	for class := cluster.MsgClass(0); class < cluster.NumMsgClasses; class++ {
		if c.Loss[class] > 0 {
			s += fmt.Sprintf(" loss[%s]=%g", class, c.Loss[class])
		}
		if c.Dup[class] > 0 {
			s += fmt.Sprintf(" dup[%s]=%g", class, c.Dup[class])
		}
	}
	return s
}
