// Package recovery holds the crash-fault-tolerance primitives shared by
// the cluster and dsm layers: crash-stop fault specifications, the
// retransmission backoff schedule, the failure-detector / recovery
// parameters, and a checksummed checkpoint codec (codec.go).
//
// The package is deliberately dependency-free (standard library only) so
// internal/cluster can expose these types on its chaos hooks without an
// upward dependency on the protocol layers that implement them.
package recovery

import (
	"fmt"
	"strconv"
	"strings"
)

// Kill is one scheduled crash-stop fault: node Node crashes at its
// Point-th recovery point (1-based). Recovery points are the checkpoint
// boundaries of the running strategy — a row boundary in the non-blocked
// wavefront, a tile boundary in the blocked wavefront, a chunk boundary
// in the pre-process strategy, a job boundary in phase 2 — so a crash
// always lands where a checkpoint has just been persisted and volatile
// state (the page cache, twins, pending notices) can be discarded
// without losing committed work.
type Kill struct {
	// Node is the victim node id.
	Node int
	// Point is the 1-based recovery point at which the node dies. Points
	// are counted per node across its whole lifetime, so a point survives
	// a restart and each Kill fires at most once.
	Point int
	// After is extra virtual seconds added to the recovery manager's
	// restart delay before the node comes back (the "optional restart
	// after d" of a kill schedule). Zero restarts after the default
	// delay.
	After float64
}

// String renders the kill in the CLI's spec syntax.
func (k Kill) String() string {
	if k.After > 0 {
		return fmt.Sprintf("%d@%d+%g", k.Node, k.Point, k.After)
	}
	return fmt.Sprintf("%d@%d", k.Node, k.Point)
}

// ParseKill parses one kill spec of the form "node@point" or
// "node@point+delay", e.g. "1@3" (kill node 1 at its 3rd recovery point)
// or "1@3+0.05" (same, restart 50 virtual ms later than the default).
func ParseKill(spec string) (Kill, error) {
	var k Kill
	node, rest, ok := strings.Cut(spec, "@")
	if !ok {
		return k, fmt.Errorf("recovery: kill spec %q: want node@point[+delay]", spec)
	}
	point, delay, hasDelay := strings.Cut(rest, "+")
	var err error
	if k.Node, err = strconv.Atoi(strings.TrimSpace(node)); err != nil || k.Node < 0 {
		return k, fmt.Errorf("recovery: kill spec %q: bad node %q", spec, node)
	}
	if k.Point, err = strconv.Atoi(strings.TrimSpace(point)); err != nil || k.Point < 1 {
		return k, fmt.Errorf("recovery: kill spec %q: bad recovery point %q (1-based)", spec, point)
	}
	if hasDelay {
		if k.After, err = strconv.ParseFloat(strings.TrimSpace(delay), 64); err != nil || k.After < 0 {
			return k, fmt.Errorf("recovery: kill spec %q: bad restart delay %q", spec, delay)
		}
	}
	return k, nil
}

// ParseKills parses a comma-separated list of kill specs.
func ParseKills(specs string) ([]Kill, error) {
	specs = strings.TrimSpace(specs)
	if specs == "" {
		return nil, nil
	}
	var out []Kill
	for _, spec := range strings.Split(specs, ",") {
		k, err := ParseKill(strings.TrimSpace(spec))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Backoff is a capped exponential retransmission schedule with seeded
// jitter: attempt a (0-based) waits min(Cap, Base·Factor^a) plus a
// deterministic jitter fraction. The jitter is a pure function of (Seed,
// key, attempt), so a replayed run charges identical timeouts.
type Backoff struct {
	Base   float64 // first retransmission timeout, virtual seconds
	Factor float64 // multiplier per attempt (>= 1)
	Cap    float64 // ceiling on the un-jittered delay
	Jitter float64 // fraction of the delay added as jitter in [0, Jitter)
	Seed   int64   // jitter seed; runs with equal seeds replay identically
}

// DefaultBackoff returns a schedule on the scale of the calibrated 2005
// network: the first timeout covers a few round trips (~1 ms), doubling
// up to an 8 ms cap with 25% jitter.
func DefaultBackoff() Backoff {
	return Backoff{Base: 1e-3, Factor: 2, Cap: 8e-3, Jitter: 0.25, Seed: 1}
}

// Delay returns the virtual seconds waited before retransmission
// attempt (0-based) of the message identified by key.
func (b Backoff) Delay(key uint64, attempt int) float64 {
	if b.Base <= 0 {
		return 0
	}
	d := b.Base
	f := b.Factor
	if f < 1 {
		f = 1
	}
	for a := 0; a < attempt; a++ {
		d *= f
		if b.Cap > 0 && d >= b.Cap {
			d = b.Cap
			break
		}
	}
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	if b.Jitter > 0 {
		u := float64(Mix64(uint64(b.Seed), key, uint64(attempt))>>11) / float64(1<<53)
		d += d * b.Jitter * u
	}
	return d
}

// Total returns the virtual seconds an at-least-once sender waits
// before the message identified by key gets through after lost
// attempts: one Delay per lost attempt, attempts 0 … lost-1.
func (b Backoff) Total(key uint64, lost int) float64 {
	total := 0.0
	for a := 0; a < lost; a++ {
		total += b.Delay(key, a)
	}
	return total
}

// Params bundles the failure-detector and recovery-manager parameters a
// run uses. The zero value means "defaults" everywhere; WithDefaults
// resolves them.
type Params struct {
	// Lease is the heartbeat lease: a crash is confirmed when a node's
	// lease expires, so detection charges this much virtual time.
	Lease float64
	// HeartbeatEvery is how many protocol operations pass between
	// heartbeats a node sends to its lease holder.
	HeartbeatEvery int
	// RestartDelay is the virtual seconds between crash confirmation and
	// the node rejoining (process restart + DSM re-initialization).
	RestartDelay float64
	// Retry is the retransmission backoff schedule for lost messages.
	Retry Backoff
	// ForceCheckpoints enables the checkpoint facility even when no
	// crash is scheduled, so checkpoint round-trips can be exercised and
	// costed on their own.
	ForceCheckpoints bool
}

// WithDefaults fills every unset field with the calibrated default:
// a 5 ms lease (vs ~150 µs message latency), a heartbeat every 32
// protocol operations, a 10 ms restart, and DefaultBackoff retries.
func (p Params) WithDefaults() Params {
	if p.Lease <= 0 {
		p.Lease = 5e-3
	}
	if p.HeartbeatEvery <= 0 {
		p.HeartbeatEvery = 32
	}
	if p.RestartDelay <= 0 {
		p.RestartDelay = 10e-3
	}
	if p.Retry.Base <= 0 {
		seed := p.Retry.Seed
		p.Retry = DefaultBackoff()
		if seed != 0 {
			p.Retry.Seed = seed
		}
	}
	return p
}

// Mix64 is a splitmix64-style finalizer over a word sequence: the one
// source of seeded, replayable randomness behind this package's backoff
// jitter, chaos.Plan's fault draws and the shard transport's.
func Mix64(words ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range words {
		h ^= w
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}
