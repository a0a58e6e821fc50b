package replbe

import "time"

// ReplicaStats is one replica's health snapshot, rendered into the
// /statusz replica table and the gvfs_backend_replica_* metrics.
type ReplicaStats struct {
	Name          string `json:"name"`
	Backend       string `json:"backend"` // the child's Caps().Name
	State         string `json:"state"`   // healthy | down
	ReadOnly      bool   `json:"read_only,omitempty"`
	EWMALatencyNs int64  `json:"ewma_latency_ns"`
	Ops           uint64 `json:"ops"`
	Errors        uint64 `json:"errors"`
	HedgeWins     uint64 `json:"hedge_wins"`
	PendingRepl   int    `json:"pending_repl"` // queued replication ops
	StaleFiles    int    `json:"stale_files"`  // files awaiting read-repair
	DownSinceNs   int64  `json:"down_since_ns,omitempty"`
	Transitions   uint64 `json:"down_transitions"`
}

// ScrubStats is the background scrub's cumulative counters.
type ScrubStats struct {
	Passes          uint64 `json:"passes"`
	FilesScrubbed   uint64 `json:"files_scrubbed"`
	BlocksScrubbed  uint64 `json:"blocks_scrubbed"`
	BlocksDivergent uint64 `json:"blocks_divergent"`
	BlocksRepaired  uint64 `json:"blocks_repaired"`
	RepairErrors    uint64 `json:"repair_errors"`
}

// Stats is the composite's full snapshot.
type Stats struct {
	Quorum       bool           `json:"quorum,omitempty"`
	Reads        uint64         `json:"reads"`
	Failovers    uint64         `json:"failovers"`
	HedgesFired  uint64         `json:"hedges_fired"`
	HedgesWon    uint64         `json:"hedges_won"`
	HedgeDelayNs int64          `json:"hedge_delay_ns"` // currently armed delay (0 = warming up)
	Replicas     []ReplicaStats `json:"replicas"`
	Scrub        ScrubStats     `json:"scrub"`
}

// Stats snapshots the composite.
func (c *Backend) Stats() Stats {
	s := Stats{
		Quorum:      c.cfg.Quorum,
		Reads:       c.reads.Load(),
		Failovers:   c.failovers.Load(),
		HedgesFired: c.hedgesFired.Load(),
		HedgesWon:   c.hedgesWon.Load(),
		Scrub: ScrubStats{
			Passes:          c.scrub.passes.Load(),
			FilesScrubbed:   c.scrub.filesSeen.Load(),
			BlocksScrubbed:  c.scrub.blocks.Load(),
			BlocksDivergent: c.scrub.divergent.Load(),
			BlocksRepaired:  c.scrub.repaired.Load(),
			RepairErrors:    c.scrub.repairErr.Load(),
		},
	}
	if c.lat.count() >= hedgeWarmup {
		s.HedgeDelayNs = int64(c.lat.quantile(c.cfg.HedgeQuantile))
	}
	for i := range c.reps {
		s.Replicas = append(s.Replicas, c.replicaStats(i))
	}
	return s
}

func (c *Backend) replicaStats(i int) ReplicaStats {
	r := c.reps[i]
	rs := ReplicaStats{
		Name:          r.name,
		Backend:       r.b.Caps().Name,
		State:         r.state(),
		ReadOnly:      r.readOnly,
		EWMALatencyNs: r.ewmaNs.Load(),
		Ops:           r.ops.Load(),
		Errors:        r.errs.Load(),
		HedgeWins:     r.hedgeWins.Load(),
		StaleFiles:    r.staleCount(),
	}
	if r.q != nil {
		rs.PendingRepl = r.q.depth()
	}
	since, transitions := r.br.State()
	if !since.IsZero() {
		rs.DownSinceNs = since.UnixNano()
	}
	rs.Transitions = transitions
	return rs
}

// Per-replica accessors for collection-time metric bridges, so a
// callback reads one atomic instead of building a full Stats.

// ReplicaCount returns the number of replicas.
func (c *Backend) ReplicaCount() int { return len(c.reps) }

// ReplicaName returns replica i's label.
func (c *Backend) ReplicaName(i int) string { return c.reps[i].name }

// ReplicaUp reports 1 when replica i is healthy, 0 when down.
func (c *Backend) ReplicaUp(i int) float64 {
	if c.reps[i].isDown() {
		return 0
	}
	return 1
}

// ReplicaEWMASeconds returns replica i's EWMA op latency in seconds.
func (c *Backend) ReplicaEWMASeconds(i int) float64 {
	return time.Duration(c.reps[i].ewmaNs.Load()).Seconds()
}

// ReplicaOps returns replica i's op count.
func (c *Backend) ReplicaOps(i int) uint64 { return c.reps[i].ops.Load() }

// ReplicaErrors returns replica i's error count.
func (c *Backend) ReplicaErrors(i int) uint64 { return c.reps[i].errs.Load() }

// Failovers returns the total re-routed operations.
func (c *Backend) Failovers() uint64 { return c.failovers.Load() }

// HedgesFired returns the total hedged reads issued.
func (c *Backend) HedgesFired() uint64 { return c.hedgesFired.Load() }

// HedgesWon returns the hedges where the second read answered first.
func (c *Backend) HedgesWon() uint64 { return c.hedgesWon.Load() }

// ScrubDivergent returns the total divergent blocks detected.
func (c *Backend) ScrubDivergent() uint64 { return c.scrub.divergent.Load() }

// ScrubRepaired returns the total blocks repaired.
func (c *Backend) ScrubRepaired() uint64 { return c.scrub.repaired.Load() }
