package dsm

import (
	"fmt"
	"sort"

	"genomedsm/internal/cluster"
	"genomedsm/internal/recovery"
)

// msgHeaderBytes approximates the wire overhead of one protocol message.
const msgHeaderBytes = 32

// noticeBytes approximates the wire size of one write notice (page id +
// version).
const noticeBytes = 12

// cachedPage is one remote page held in a node's cache.
type cachedPage struct {
	data    []byte
	version uint64 // master version at fetch time
	twin    []byte // non-nil after the first write since the last flush
	dirty   bool
	seq     uint64 // insertion order, for FIFO replacement
}

// Node is one cluster workstation running the SPMD program. Its ID is the
// JIAJIA jiapid. All methods must be called from the node's own goroutine
// (the body passed to System.Run).
type Node struct {
	sys   *System
	id    int
	clock cluster.Clock
	stats Stats

	cache   map[int]*cachedPage
	nextSeq uint64
	// dirtyHome tracks pages homed here that this node wrote since its
	// last release/barrier; they need write notices but no diffs.
	dirtyHome map[int]bool
	// pendingNotices holds write notices for diffs flushed outside a
	// synchronization flush — cache evictions and invalidation-forced
	// merges. The diff is already home, but its notice must still ride
	// the next release/barrier or other nodes' stale copies would never
	// learn about the writes.
	pendingNotices map[int]uint64

	// Fault-tolerance state (see recovery.go). ops, points, diffSeq,
	// cvSeq and syncSeq are manipulated only by the node's own
	// goroutine; diffSeq/cvSeq/syncSeq are the sender side of the
	// at-least-once-with-dedup sequence numbering and survive a crash
	// via the checkpoint (reusing a sequence number after restart would
	// make the homes wrongly suppress fresh diffs as duplicates).
	ops         uint64                        // protocol operations, paces heartbeats
	points      int                           // recovery points passed (checkpoint counter)
	incarnation int                           // completed crash recoveries
	diffSeq     map[int]uint64                // per-page outbound diff sequence numbers
	cvSeq       []uint64                      // per-cv outbound signal sequence numbers
	syncSeq     uint64                        // outbound sync-message sequence number
	sendSeq     [cluster.NumMsgClasses]uint64 // per-class message counter (backoff jitter keys)
	restored    *recovery.Reader              // strategy section of the restored checkpoint
}

func newNode(sys *System, id int) *Node {
	return &Node{
		sys:            sys,
		id:             id,
		cache:          make(map[int]*cachedPage),
		dirtyHome:      make(map[int]bool),
		pendingNotices: make(map[int]uint64),
		diffSeq:        make(map[int]uint64),
		cvSeq:          make([]uint64, sys.opts.CondVars),
	}
}

// ID returns the node identifier (jiapid).
func (n *Node) ID() int { return n.id }

// Nprocs returns the number of nodes in the system.
func (n *Node) Nprocs() int { return n.sys.nprocs }

// Clock exposes the node's virtual clock so applications can charge
// computation and I/O.
func (n *Node) Clock() *cluster.Clock { return &n.clock }

// Config returns the cluster cost model.
func (n *Node) Config() cluster.Config { return n.sys.cfg }

// Stats returns a copy of the node's protocol statistics. Safe to call
// from any goroutine, including while the node is running.
func (n *Node) Stats() Stats { return n.stats.snapshot() }

// Gate pass-throughs: no-ops without a configured execution gate. The
// gate serializes node execution at protocol operations so the chaos
// harness can replay one interleaving deterministically from a seed.

// yield offers a scheduling point at the start of a protocol operation.
func (n *Node) yield() {
	n.maybeHeartbeat()
	if g := n.sys.cfg.Gate(); g != nil {
		g.Yield(n.id)
	}
}

// maybeHeartbeat sends a failure-detector heartbeat every HeartbeatEvery
// protocol operations while recovery is active. Survivors use the absence
// of heartbeats past the lease to confirm a crash; the simulation charges
// the send cost here and the lease wait on the recovery path.
func (n *Node) maybeHeartbeat() {
	if !n.sys.recActive {
		return
	}
	every := n.sys.recParams.HeartbeatEvery
	if every <= 0 {
		return
	}
	n.ops++
	if n.ops%uint64(every) != 0 {
		return
	}
	n.clock.Advance(n.sys.cfg.Net.MessageCost(msgHeaderBytes), cluster.Recovery)
	inc(&n.stats.Heartbeats, 1)
	inc(&n.stats.MsgsSent, 1)
	inc(&n.stats.BytesMoved, msgHeaderBytes)
}

// lossRetries charges the at-least-once delivery cost of the node's next
// message of the given class: the loss plan reports how many transmission
// attempts vanish, and each lost attempt costs the sender one
// retransmission timeout from the capped exponential backoff schedule.
// The successful final attempt is the round trip the caller charges.
func (n *Node) lossRetries(class cluster.MsgClass, cat cluster.Category) {
	n.sendSeq[class]++
	lost := n.sys.cfg.LostAttempts(class, n.id)
	if lost == 0 {
		return
	}
	key := uint64(n.id)<<48 ^ uint64(class)<<40 ^ n.sendSeq[class]
	n.clock.Advance(n.sys.recParams.Retry.Total(key, lost), cat)
	inc(&n.stats.Retries, int64(lost))
	inc(&n.stats.MsgsSent, int64(lost))
	n.trace(TraceRetry, -1, -1, fmt.Sprintf("%s x%d", class, lost))
}

// park announces that the node is about to block on a channel receive.
func (n *Node) park() {
	if g := n.sys.cfg.Gate(); g != nil {
		g.Park(n.id)
	}
}

// unpark announces the receive completed; blocks until scheduled again.
func (n *Node) unpark() {
	if g := n.sys.cfg.Gate(); g != nil {
		g.Unpark(n.id)
	}
}

// wake announces that waiter is about to be sent the value it parked on.
func (n *Node) wake(waiter int) {
	if g := n.sys.cfg.Gate(); g != nil {
		g.Wake(waiter)
	}
}

// Compute charges the virtual cost of the given number of
// dynamic-programming cells to the node, honouring heterogeneous node
// speeds when configured.
func (n *Node) Compute(cells int64) {
	n.clock.Advance(float64(cells)*n.sys.cfg.CellTimeFor(n.id), cluster.Compute)
}

// pageSpan iterates over the pages covered by [start, start+length) in the
// absolute shared address space, calling f with (pageID, offset inside
// page, slice bounds into the caller's buffer).
func (n *Node) pageSpan(start, length int, f func(pageID, pageOff, bufOff, count int) error) error {
	ps := n.sys.cfg.PageSize
	done := 0
	for done < length {
		addr := start + done
		pid := addr / ps
		off := addr % ps
		count := ps - off
		if count > length-done {
			count = length - done
		}
		if err := f(pid, off, done, count); err != nil {
			return err
		}
		done += count
	}
	return nil
}

func (r Region) check(off, count int) error {
	if off < 0 || count < 0 || off+count > r.size {
		return fmt.Errorf("dsm: access [%d,%d) outside region of %d bytes", off, off+count, r.size)
	}
	return nil
}

// ReadAt copies len(buf) bytes at offset off of region r into buf. A miss
// on a remote page fetches it from its home (GETP/page reply), charging
// the communication cost.
func (n *Node) ReadAt(r Region, off int, buf []byte) error {
	if err := r.check(off, len(buf)); err != nil {
		return err
	}
	return n.pageSpan(r.start+off, len(buf), func(pid, pageOff, bufOff, count int) error {
		p := n.sys.page(pid)
		if p.home == n.id {
			p.readMaster(pageOff, buf[bufOff:bufOff+count])
			return nil
		}
		cp, err := n.ensureCached(p)
		if err != nil {
			return err
		}
		copy(buf[bufOff:bufOff+count], cp.data[pageOff:pageOff+count])
		return nil
	})
}

// WriteAt writes data at offset off of region r. The first write to a
// remote page since the last flush creates a twin (the multiple-writer
// protocol); home pages are written in place.
func (n *Node) WriteAt(r Region, off int, data []byte) error {
	if err := r.check(off, len(data)); err != nil {
		return err
	}
	return n.pageSpan(r.start+off, len(data), func(pid, pageOff, bufOff, count int) error {
		p := n.sys.page(pid)
		if p.home == n.id {
			p.writeMaster(pageOff, data[bufOff:bufOff+count], n.id)
			n.dirtyHome[pid] = true
			return nil
		}
		cp, err := n.ensureCached(p)
		if err != nil {
			return err
		}
		if cp.twin == nil {
			cp.twin = make([]byte, len(cp.data))
			copy(cp.twin, cp.data)
			inc(&n.stats.Twins, 1)
		}
		copy(cp.data[pageOff:pageOff+count], data[bufOff:bufOff+count])
		cp.dirty = true
		return nil
	})
}

// ensureCached returns the node's valid copy of remote page p, fetching it
// from the home on a miss and running the replacement algorithm when the
// remote-page area is full.
func (n *Node) ensureCached(p *page) (*cachedPage, error) {
	if cp, ok := n.cache[p.id]; ok {
		return cp, nil
	}
	// A miss talks to the home node: a scheduling point for the gate.
	n.yield()
	if len(n.cache) >= n.sys.opts.CacheSlots {
		if err := n.evictOne(); err != nil {
			return nil, err
		}
	}
	// GETP request to the home; reply carries the page.
	n.lossRetries(cluster.MsgPageFetch, cluster.Comm)
	data, version := p.snapshot()
	n.clock.Advance(n.sys.cfg.Net.RoundTrip(msgHeaderBytes, msgHeaderBytes+len(data))+
		n.sys.cfg.FaultDelay(cluster.MsgPageFetch, n.id), cluster.Comm)
	inc(&n.stats.PageFetches, 1)
	inc(&n.stats.MsgsSent, 2)
	inc(&n.stats.BytesMoved, int64(2*msgHeaderBytes+len(data)))
	if n.sys.cfg.Duplicated(cluster.MsgPageFetch, n.id) {
		// A duplicated page reply carries the same snapshot; the requester
		// matches replies to outstanding GETPs and drops the straggler.
		inc(&n.stats.DupsSuppressed, 1)
		n.trace(TraceDup, p.id, -1, "page reply")
	}
	cp := &cachedPage{data: data, version: version, seq: n.nextSeq}
	n.nextSeq++
	n.cache[p.id] = cp
	n.trace(TraceFetch, p.id, -1, fmt.Sprintf("v%d from home %d", version, p.home))
	return cp, nil
}

// evictOne runs the replacement algorithm: the victim is the oldest
// cached page by default (JIAJIA's policy), or whichever candidate the
// schedule-control hook picks; its modifications are flushed home first.
func (n *Node) evictOne() error {
	if len(n.cache) == 0 {
		return fmt.Errorf("dsm: node %d cache empty during eviction", n.id)
	}
	candidates := make([]int, 0, len(n.cache))
	for id := range n.cache {
		candidates = append(candidates, id)
	}
	// Oldest-first order (unique insertion seqs make this total), so the
	// default pick and the hook's candidate list are both deterministic.
	sort.Slice(candidates, func(a, b int) bool {
		return n.cache[candidates[a]].seq < n.cache[candidates[b]].seq
	})
	pick := 0
	if sched := n.sys.cfg.Sched(); sched != nil {
		if i := sched.PickEvictVictim(n.id, candidates); i >= 0 && i < len(candidates) {
			pick = i
		}
	}
	victimID := candidates[pick]
	victim := n.cache[victimID]
	if victim.dirty {
		n.flushPage(victimID, victim, n.pendingNotices)
	}
	delete(n.cache, victimID)
	inc(&n.stats.Evictions, 1)
	n.trace(TraceEvict, victimID, -1, "")
	return nil
}

// flushPage diffs the cached copy against its twin, sends the diff to the
// home (DIFF/DIFFGRANT exchange) and records a write notice in notices
// when non-nil.
func (n *Node) flushPage(pid int, cp *cachedPage, notices map[int]uint64) {
	d := makeDiff(pid, cp.twin, cp.data)
	cp.twin = nil
	cp.dirty = false
	if d.empty() {
		return
	}
	p := n.sys.page(pid)
	n.diffSeq[pid]++
	seq := n.diffSeq[pid]
	version, _ := p.applyDiff(d, n.id, seq)
	// Deliberately leave cp.version at its fetch-time value: the cached
	// copy does not contain writes other nodes (including the home) made
	// meanwhile, so the write notice for this very diff must be able to
	// invalidate it — as JIAJIA does, where written pages fall back to
	// invalid at the next synchronization unless the node is the home.
	n.lossRetries(cluster.MsgDiff, cluster.Comm)
	n.clock.Advance(n.sys.cfg.Net.RoundTrip(d.wireSize()+msgHeaderBytes, msgHeaderBytes)+
		n.sys.cfg.FaultDelay(cluster.MsgDiff, n.id), cluster.Comm)
	inc(&n.stats.DiffsSent, 1)
	inc(&n.stats.DiffBytes, int64(d.wireSize()))
	inc(&n.stats.MsgsSent, 2)
	inc(&n.stats.BytesMoved, int64(d.wireSize()+2*msgHeaderBytes))
	n.trace(TraceDiff, pid, -1, fmt.Sprintf("%dB -> v%d", d.wireSize(), version))
	if n.sys.cfg.Duplicated(cluster.MsgDiff, n.id) {
		// Duplicated delivery: the home sees the same sequence number
		// again and must drop it, or the diff would apply twice and its
		// version bump would masquerade as a fresh write.
		if _, applied := p.applyDiff(d, n.id, seq); !applied {
			inc(&n.stats.DupsSuppressed, 1)
			n.trace(TraceDup, pid, -1, fmt.Sprintf("diff seq %d", seq))
		}
	}
	if notices != nil {
		notices[pid] = version
	}
}

// flushAll generates diffs for every modified page (remote and home) and
// returns the write notices, as both the lock release and the barrier
// arrival do. Dirty pages flush in ascending page-id order — map order
// would leak the runtime's hash seed into diff-arrival order at the
// homes, wrecking seed replay — optionally re-permuted (bounded) by the
// fault plan to explore alternative legal diff orderings.
func (n *Node) flushAll() map[int]uint64 {
	notices := make(map[int]uint64)
	// Deliver notices orphaned by evictions and forced merges first; a
	// fresher flush of the same page below simply overwrites the entry.
	for pid, v := range n.pendingNotices {
		notices[pid] = v
		delete(n.pendingNotices, pid)
	}
	var dirty []int
	for pid, cp := range n.cache {
		if cp.dirty {
			dirty = append(dirty, pid)
		}
	}
	sort.Ints(dirty)
	if perm := n.sys.cfg.FaultPermute(cluster.MsgDiff, n.id, len(dirty)); perm != nil {
		reordered := make([]int, len(dirty))
		for i, j := range perm {
			reordered[i] = dirty[j]
		}
		dirty = reordered
	}
	for _, pid := range dirty {
		n.flushPage(pid, n.cache[pid], notices)
	}
	var home []int
	for pid := range n.dirtyHome {
		home = append(home, pid)
	}
	sort.Ints(home)
	for _, pid := range home {
		p := n.sys.page(pid)
		p.mu.Lock()
		notices[pid] = p.version
		p.mu.Unlock()
		delete(n.dirtyHome, pid)
	}
	return notices
}

// applyNotices brings cached copies that the write notices prove stale
// back in line: under write-invalidate they are dropped (refetched on the
// next access); under write-update they are patched in place with the
// home's retained diffs when the history reaches back far enough.
// Notices apply in ascending page-id order (deterministic), optionally
// re-permuted (bounded) by the fault plan, and the fault plan may charge
// an extra per-class delivery delay for the batch.
func (n *Node) applyNotices(notices map[int]uint64) {
	if len(notices) == 0 {
		return
	}
	n.lossRetries(cluster.MsgNotice, cluster.Comm)
	if d := n.sys.cfg.FaultDelay(cluster.MsgNotice, n.id); d > 0 {
		n.clock.Advance(d, cluster.Comm)
	}
	pids := make([]int, 0, len(notices))
	for pid := range notices {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	if perm := n.sys.cfg.FaultPermute(cluster.MsgNotice, n.id, len(pids)); perm != nil {
		reordered := make([]int, len(pids))
		for i, j := range perm {
			reordered[i] = pids[j]
		}
		pids = reordered
	}
	for _, pid := range pids {
		version := notices[pid]
		cp, ok := n.cache[pid]
		if !ok || cp.version >= version {
			continue
		}
		if n.sys.opts.Protocol == WriteUpdate {
			if n.patchPage(pid, cp) {
				continue
			}
		}
		if cp.dirty {
			// Concurrent writer under a different lock: push our own
			// modifications home before dropping the copy, so they are
			// not lost (multiple-writer merge).
			n.flushPage(pid, cp, n.pendingNotices)
		}
		delete(n.cache, pid)
		inc(&n.stats.Invalidations, 1)
		n.trace(TraceInval, pid, -1, "")
	}
}

// patchPage applies the home's retained diffs to the cached copy,
// reporting false when the history is too short (caller falls back to
// invalidation). Patching the twin as well keeps this node's next diff
// limited to its own writes.
func (n *Node) patchPage(pid int, cp *cachedPage) bool {
	p := n.sys.page(pid)
	diffs, ok := p.diffsSince(cp.version)
	if !ok {
		return false
	}
	bytes := 0
	for _, vd := range diffs {
		for _, run := range vd.d.runs {
			copy(cp.data[run.off:run.off+len(run.data)], run.data)
			if cp.twin != nil {
				copy(cp.twin[run.off:run.off+len(run.data)], run.data)
			}
		}
		bytes += vd.d.wireSize()
		cp.version = vd.version
	}
	if len(diffs) > 0 {
		n.clock.Advance(n.sys.cfg.Net.RoundTrip(msgHeaderBytes, msgHeaderBytes+bytes), cluster.Comm)
		inc(&n.stats.MsgsSent, 2)
		inc(&n.stats.BytesMoved, int64(2*msgHeaderBytes+bytes))
	}
	inc(&n.stats.Updates, 1)
	n.trace(TraceUpdate, pid, -1, fmt.Sprintf("%d diffs", len(diffs)))
	return true
}
