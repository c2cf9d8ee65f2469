// Package cluster provides the virtual-time machinery that stands in for
// the paper's physical testbed (8 × Pentium II 350 MHz, 100 Mbps switched
// Ethernet, NFS). Nodes execute the real algorithms on real memory; every
// DSM interaction and every batch of computed cells advances a per-node
// virtual clock according to the models below, and each advance is
// attributed to a category so the Fig.-10 execution-time breakdown can be
// reported.
//
// Simulated parallel time emerges causally: blocking interactions carry
// virtual timestamps (a message is visible at send-time + message cost; a
// barrier releases everyone at the maximum arrival time), which is exactly
// the mechanism that produces the paper's wavefront pipeline effects.
package cluster

import "fmt"

// Category classifies where virtual time is spent, matching the paper's
// Fig. 10 breakdown (computation, communication, lock+cv, barrier) plus
// disk I/O for the pre-process strategy.
type Category int

// Breakdown categories.
const (
	Compute  Category = iota
	Comm              // page fetches, diff propagation
	LockCV            // lock acquire/release and condition-variable waits
	Barrier           // barrier waits
	IO                // disk writes of the pre-process strategy
	Recovery          // failure detection, checkpoint I/O and crash recovery
	numCategories
)

// String names the category as in Fig. 10.
func (c Category) String() string {
	switch c {
	case Compute:
		return "computation"
	case Comm:
		return "communication"
	case LockCV:
		return "lock+cv"
	case Barrier:
		return "barrier"
	case IO:
		return "io"
	case Recovery:
		return "recovery"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// NetworkModel prices messages on the cluster interconnect.
type NetworkModel struct {
	Latency       float64 // seconds end-to-end for a zero-byte message
	Bandwidth     float64 // bytes per second on the wire
	PerMessageCPU float64 // seconds of processing per message at each side
}

// MessageCost returns the virtual seconds between sending a message of the
// given payload size and the receiver being able to act on it.
func (nm NetworkModel) MessageCost(bytes int) float64 {
	cost := nm.Latency + 2*nm.PerMessageCPU
	if nm.Bandwidth > 0 {
		cost += float64(bytes) / nm.Bandwidth
	}
	return cost
}

// RoundTrip prices a request/response exchange where the request carries
// reqBytes and the response respBytes.
func (nm NetworkModel) RoundTrip(reqBytes, respBytes int) float64 {
	return nm.MessageCost(reqBytes) + nm.MessageCost(respBytes)
}

// DiskModel prices the NFS-backed disk of the testbed.
type DiskModel struct {
	Latency   float64 // seconds per operation
	Bandwidth float64 // bytes per second
}

// WriteCost returns the virtual seconds a blocking write of the given size
// takes.
func (dm DiskModel) WriteCost(bytes int) float64 {
	cost := dm.Latency
	if dm.Bandwidth > 0 {
		cost += float64(bytes) / dm.Bandwidth
	}
	return cost
}

// Config bundles all cost models for one simulated cluster.
type Config struct {
	Net  NetworkModel
	Disk DiskModel
	// CellTime is the virtual seconds one dynamic-programming cell takes
	// on a node (calibrated from the paper's serial runs).
	CellTime float64
	// ManagerService is the virtual seconds a lock/barrier/CV manager
	// spends handling one request.
	ManagerService float64
	// PageSize must match the DSM page size so fetch costs are right.
	PageSize int
	// NodeSpeeds, when non-empty, gives per-node relative CPU speeds
	// (1.0 = the calibrated CellTime; 0.5 = half speed). It models the
	// heterogeneous cluster of the paper's future work; empty means a
	// homogeneous cluster.
	NodeSpeeds []float64
	// Hooks carries the optional chaos-layer instrumentation (fault
	// injection, schedule control, deterministic execution gate); nil
	// for normal runs. See faults.go.
	Hooks *Hooks
}

// CellTimeFor returns the per-cell cost on the given node, honouring the
// heterogeneous speed table.
func (c Config) CellTimeFor(node int) float64 {
	if node >= 0 && node < len(c.NodeSpeeds) {
		return c.CellTime / c.NodeSpeeds[node]
	}
	return c.CellTime
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.CellTime < 0 || c.ManagerService < 0 ||
		c.Net.Latency < 0 || c.Net.Bandwidth < 0 || c.Net.PerMessageCPU < 0 ||
		c.Disk.Latency < 0 || c.Disk.Bandwidth < 0 {
		return fmt.Errorf("cluster: negative cost in config %+v", c)
	}
	if c.PageSize <= 0 {
		return fmt.Errorf("cluster: page size must be positive, got %d", c.PageSize)
	}
	for i, s := range c.NodeSpeeds {
		if s <= 0 {
			return fmt.Errorf("cluster: node %d speed %g must be positive", i, s)
		}
	}
	return nil
}

// Calibrated2005 returns the cost model calibrated against the paper's
// testbed:
//
//   - CellTime 1.3 µs: Table 1 reports 3461 s serial for 50 k × 50 k
//     (2.5·10⁹ cells ⇒ 1.38 µs) and 175295 s for 400 k × 400 k (1.10 µs).
//   - 100 Mbps Ethernet ⇒ 12.5 MB/s, ~150 µs small-message latency plus
//     ~50 µs protocol CPU per side (user-level UDP in JIAJIA).
//   - NFS over the same network with client-side buffer caching (the
//     paper credits the buffer cache for immediate I/O being nearly as
//     cheap as deferred): ~0.3 ms per buffered write operation, ~5 MB/s
//     sustained.
//   - 4 KiB pages, the JIAJIA default on x86 Linux.
func Calibrated2005() Config {
	return Config{
		Net:            NetworkModel{Latency: 150e-6, Bandwidth: 12.5e6, PerMessageCPU: 50e-6},
		Disk:           DiskModel{Latency: 0.3e-3, Bandwidth: 5e6},
		CellTime:       1.3e-6,
		ManagerService: 100e-6,
		PageSize:       4096,
	}
}

// Zero returns a config with free communication and computation; useful in
// tests that check protocol behaviour rather than timing.
func Zero() Config {
	return Config{PageSize: 4096}
}
