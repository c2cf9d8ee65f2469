package shard

import (
	"sync/atomic"
	"time"

	"genomedsm/internal/recovery"
)

// The shard layer's messages travel over an in-process transport that
// models the source paper's cluster network the way the DSM layer's
// cluster.LossPlan does: delivery is at-least-once. A send may lose
// attempts, be duplicated, delayed, or held back so later sends
// overtake it, all drawn deterministically from a seed, but every send
// arrives — a lost attempt costs one recovery.Backoff timeout of real
// time, never the message. The protocol above it (seen-id dedup,
// leases, replay) must therefore be correct against every fault the
// chaos oracle can draw — and in production (no FaultConfig) the same
// code paths run with synchronous, reliable delivery: a send calls the
// receiver's handler before it returns, so a floor a worker gossips is
// on every shard before that worker scans its next group. Handlers
// therefore must not block: they take short locks, CAS, send without
// waiting, or start a goroutine, and no lock is held across a send.

// class labels a message for fault draws and dispatch.
type class int

const (
	cRequest class = iota // master → worker: scatter one span's scan
	cResponse
	cFloor  // both directions: gossip evidence up, floor broadcasts down
	cBeat   // worker → master: lease heartbeat
	cCancel // master → worker: per-query cancellation
	numClasses
)

// maxLost caps the lost attempts of one send, as chaos.Plan.Lose's
// default MaxLost does for DSM messages.
const maxLost = 3

// reorderHold is how long a reordered message is held back, so the
// link's later sends overtake it.
const reorderHold = 2 * time.Millisecond

// msg is one datagram.
type msg struct {
	from, to int
	class    class
	payload  any
}

// FaultConfig seeds the transport's fault injection. Probabilities are
// per attempt (loss) or per send (duplication, reorder), and delays are
// real time. The draws are a pure function of (Seed, class, from, to,
// per-link counter) — the same construction as chaos.Plan — so a run's
// fault sequence replays from its seed regardless of wall-clock timing.
type FaultConfig struct {
	Seed        int64
	Loss        float64       // probability an attempt is lost (≤ 3 per send, each costs a backoff)
	Dup         float64       // probability a message is delivered twice
	DelayBase   time.Duration // fixed extra latency per delivery
	DelayJitter time.Duration // uniform extra latency in [0, DelayJitter)
	Reorder     float64       // probability a message is held back 2ms behind later sends
}

// transport carries messages between the master and the workers.
// Node ids 0..shards-1 are workers; node id shards is the master.
type transport struct {
	faults   *FaultConfig
	backoff  recovery.Backoff // retransmission timeouts charged per lost attempt
	handlers []func(msg)      // per node; called inline by deliver
	stop     chan struct{}
	cnt      []atomic.Uint64 // per-(link, class) draw counters

	retries   atomic.Int64 // lost attempts, one retransmission each
	dupped    atomic.Int64
	reordered atomic.Int64
}

func newTransport(handlers []func(msg), faults *FaultConfig, stop chan struct{}) *transport {
	nodes := len(handlers)
	t := &transport{
		faults:   faults,
		backoff:  recovery.DefaultBackoff(),
		handlers: handlers,
		stop:     stop,
		cnt:      make([]atomic.Uint64, nodes*nodes*int(numClasses)),
	}
	if faults != nil {
		t.backoff.Seed = faults.Seed
	}
	return t
}

// draw returns the k-th deterministic uniform in [0,1) for the link.
func (t *transport) draw(m msg, salt uint64) float64 {
	f := t.faults
	h := recovery.Mix64(uint64(f.Seed), uint64(m.class), uint64(m.from), uint64(m.to), salt)
	return float64(h>>11) / float64(1<<53)
}

// lost draws how many attempts of the link's k-th send vanish: a capped
// geometric count, each attempt lost independently with probability
// Loss.
func (t *transport) lost(m msg, k uint64) int {
	n := 0
	for n < maxLost && t.draw(m, recovery.Mix64(k, 1, uint64(n))) < t.faults.Loss {
		n++
	}
	return n
}

func (t *transport) send(m msg) {
	f := t.faults
	if f == nil {
		t.deliver(m)
		return
	}
	link := (m.from*len(t.handlers)+m.to)*int(numClasses) + int(m.class)
	k := t.cnt[link].Add(1)
	var wait time.Duration
	if n := t.lost(m, k); n > 0 {
		t.retries.Add(int64(n))
		wait = time.Duration(t.backoff.Total(uint64(link)<<40^k, n) * float64(time.Second))
	}
	if f.Reorder > 0 && t.draw(m, recovery.Mix64(k, 3)) < f.Reorder {
		t.reordered.Add(1)
		wait += reorderHold
	}
	copies := 1
	if f.Dup > 0 && t.draw(m, recovery.Mix64(k, 2)) < f.Dup {
		copies = 2
		t.dupped.Add(1)
	}
	for c := 0; c < copies; c++ {
		d := wait + f.DelayBase
		if f.DelayJitter > 0 {
			d += time.Duration(t.draw(m, recovery.Mix64(k, 4+uint64(c))) * float64(f.DelayJitter))
		}
		if d > 0 {
			time.AfterFunc(d, func() { t.deliver(m) })
		} else {
			t.deliver(m)
		}
	}
}

// deliver hands m to the receiver's handler on the caller's goroutine.
// A stopped transport drops everything.
func (t *transport) deliver(m msg) {
	select {
	case <-t.stop:
		return
	default:
	}
	t.handlers[m.to](m)
}
