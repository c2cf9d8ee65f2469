package shard

import (
	"sync/atomic"
	"time"
)

// ShardHealth is one shard's view in Stats: the master's lease-based
// liveness verdict, the worker's own crash flag (ground truth in
// tests), and the request/latency history of the spans it answered.
type ShardHealth struct {
	Shard int `json:"shard"`
	// Alive is the master's failure-detector verdict: false once the
	// shard's heartbeat lease expired. A false positive (slow, not dead)
	// costs duplicate work, never correctness.
	Alive bool `json:"alive"`
	// Killed reports the worker actually crashed (fault injection).
	Killed bool `json:"killed"`
	// Records and Bases measure the shard's home partition: the
	// records it owns and their summed length, which a scan's cells
	// follow.
	Records int   `json:"records"`
	Bases   int64 `json:"bases"`
	// Answered counts span requests this shard completed.
	Answered int64 `json:"answered"`
	// ReassignedTo counts dead shards' spans replayed on this shard.
	ReassignedTo int64 `json:"reassigned_to"`
	// LastBeatMS is milliseconds since the last heartbeat (-1 = never).
	LastBeatMS int64 `json:"last_beat_ms"`
	// AvgLatencyMS / MaxLatencyMS cover the span requests this shard
	// answered, measured at the master from send to response.
	AvgLatencyMS float64 `json:"avg_latency_ms"`
	MaxLatencyMS float64 `json:"max_latency_ms"`
}

// Stats is a snapshot of the cluster's health and fault counters.
type Stats struct {
	Shards []ShardHealth `json:"shards"`

	Queries int64 `json:"queries"`
	Batches int64 `json:"batches"`
	// Retries counts retransmissions: every attempt the transport lost
	// before the message got through, as dsm.Stats.Retries counts them.
	Retries int64 `json:"retries"`
	// Kills counts workers that crashed (injected faults).
	Kills int64 `json:"kills"`
	// DeadDetected counts shards whose lease the master saw expire.
	DeadDetected int64 `json:"dead_detected"`
	// Reassigns counts span replays moved to a survivor.
	Reassigns int64 `json:"reassigns"`
	// FloorBroadcasts counts floor rises pushed to the shards;
	// GossipUpdates counts evidence batches received from them.
	FloorBroadcasts int64 `json:"floor_broadcasts"`
	GossipUpdates   int64 `json:"gossip_updates"`
	// Transport-level fault counters.
	MsgsDuped     int64 `json:"msgs_duped"`
	MsgsReordered int64 `json:"msgs_reordered"`
}

// counters is the cluster's atomic counter block.
type counters struct {
	queries         atomic.Int64
	batches         atomic.Int64
	kills           atomic.Int64
	deadDetected    atomic.Int64
	reassigns       atomic.Int64
	floorBroadcasts atomic.Int64
	gossipUpdates   atomic.Int64
}

// latAgg aggregates one shard's answered-request latency.
type latAgg struct {
	answered   atomic.Int64
	reassigned atomic.Int64
	sumMicros  atomic.Int64
	maxMicros  atomic.Int64
}

func (l *latAgg) observe(d time.Duration) {
	l.answered.Add(1)
	us := d.Microseconds()
	l.sumMicros.Add(us)
	for {
		cur := l.maxMicros.Load()
		if us <= cur || l.maxMicros.CompareAndSwap(cur, us) {
			return
		}
	}
}

// Stats returns a point-in-time snapshot; safe to call concurrently
// with searches.
func (c *Cluster) Stats() Stats {
	s := Stats{
		Queries:         c.ct.queries.Load(),
		Batches:         c.ct.batches.Load(),
		Retries:         c.net.retries.Load(),
		Kills:           c.ct.kills.Load(),
		DeadDetected:    c.ct.deadDetected.Load(),
		Reassigns:       c.ct.reassigns.Load(),
		FloorBroadcasts: c.ct.floorBroadcasts.Load(),
		GossipUpdates:   c.ct.gossipUpdates.Load(),
		MsgsDuped:       c.net.dupped.Load(),
		MsgsReordered:   c.net.reordered.Load(),
	}
	now := time.Now()
	for i, w := range c.workers {
		h := ShardHealth{
			Shard:        i,
			Records:      c.views[i].Size(),
			Bases:        c.views[i].TotalBases(),
			Alive:        !c.dead[i].Load(),
			Killed:       w.dead.Load(),
			Answered:     c.lat[i].answered.Load(),
			ReassignedTo: c.lat[i].reassigned.Load(),
			LastBeatMS:   -1,
		}
		if beat := c.lastBeat[i].Load(); beat != 0 {
			h.LastBeatMS = now.Sub(time.Unix(0, beat)).Milliseconds()
		}
		if n := h.Answered; n > 0 {
			h.AvgLatencyMS = float64(c.lat[i].sumMicros.Load()) / float64(n) / 1e3
		}
		h.MaxLatencyMS = float64(c.lat[i].maxMicros.Load()) / 1e3
		s.Shards = append(s.Shards, h)
	}
	return s
}
