package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"genomedsm/internal/recovery"
)

// The shard layer's messages travel over an in-process transport that
// models an unreliable datagram network: every send may independently
// be lost, duplicated, delayed or reordered behind a later message,
// drawn deterministically from a seed. The protocol above it (retries,
// dedup, leases) must therefore be correct against every fault the
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

// msg is one datagram.
type msg struct {
	from, to int
	class    class
	payload  any
}

// FaultConfig seeds the transport's fault injection. Probabilities are
// per send (loss, duplication, reorder) and delays are real time. The
// draws are a pure function of (Seed, class, from, to, per-link
// counter) — the same construction as chaos.Plan — so a run's fault
// sequence replays from its seed regardless of wall-clock timing.
type FaultConfig struct {
	Seed        int64
	Loss        float64       // probability a message is silently dropped
	Dup         float64       // probability a message is delivered twice
	DelayBase   time.Duration // fixed extra latency per delivery
	DelayJitter time.Duration // uniform extra latency in [0, DelayJitter)
	Reorder     float64       // probability a message is held behind the next same-link send
}

// transport carries messages between the master and the workers.
// Node ids 0..shards-1 are workers; node id shards is the master.
type transport struct {
	faults   *FaultConfig
	handlers []func(msg) // per node; called inline by deliver
	stop     chan struct{}
	cnt      []atomic.Uint64 // per-(link, class) draw counters

	mu   sync.Mutex
	held map[int]msg // per-link message held back for reordering
	has  map[int]bool

	lost      atomic.Int64
	dupped    atomic.Int64
	reordered atomic.Int64
}

func newTransport(handlers []func(msg), faults *FaultConfig, stop chan struct{}) *transport {
	nodes := len(handlers)
	return &transport{
		faults:   faults,
		handlers: handlers,
		stop:     stop,
		cnt:      make([]atomic.Uint64, nodes*nodes*int(numClasses)),
		held:     make(map[int]msg),
		has:      make(map[int]bool),
	}
}

// draw returns the k-th deterministic uniform in [0,1) for the link.
func (t *transport) draw(m msg, salt uint64) float64 {
	f := t.faults
	h := recovery.Mix64(uint64(f.Seed), uint64(m.class), uint64(m.from), uint64(m.to), salt)
	return float64(h>>11) / float64(1<<53)
}

func (t *transport) send(m msg) {
	f := t.faults
	if f == nil {
		t.deliver(m)
		return
	}
	link := (m.from*len(t.handlers)+m.to)*int(numClasses) + int(m.class)
	k := t.cnt[link].Add(1)
	if f.Loss > 0 && t.draw(m, recovery.Mix64(k, 1)) < f.Loss {
		t.lost.Add(1)
		return
	}
	copies := 1
	if f.Dup > 0 && t.draw(m, recovery.Mix64(k, 2)) < f.Dup {
		copies = 2
		t.dupped.Add(1)
	}
	// Reorder: hold this message back; it is released when the next
	// same-link send overtakes it, or by a short flush timer so a quiet
	// link cannot strand it forever.
	if f.Reorder > 0 && t.draw(m, recovery.Mix64(k, 3)) < f.Reorder {
		t.mu.Lock()
		if !t.has[link] {
			t.held[link], t.has[link] = m, true
			t.mu.Unlock()
			t.reordered.Add(1)
			time.AfterFunc(2*time.Millisecond, func() { t.release(link) })
			return
		}
		t.mu.Unlock()
	}
	for c := 0; c < copies; c++ {
		if d := t.delay(m, k, uint64(c)); d > 0 {
			mm := m
			time.AfterFunc(d, func() { t.deliver(mm) })
		} else {
			t.deliver(m)
		}
	}
	t.release(link)
}

func (t *transport) delay(m msg, k, c uint64) time.Duration {
	f := t.faults
	d := f.DelayBase
	if f.DelayJitter > 0 {
		d += time.Duration(t.draw(m, recovery.Mix64(k, 4+c)) * float64(f.DelayJitter))
	}
	return d
}

// release delivers the message held back on link, if any — the overtaken
// half of a reordering.
func (t *transport) release(link int) {
	t.mu.Lock()
	if !t.has[link] {
		t.mu.Unlock()
		return
	}
	m := t.held[link]
	t.has[link] = false
	t.mu.Unlock()
	t.deliver(m)
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
