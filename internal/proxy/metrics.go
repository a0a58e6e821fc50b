package proxy

import (
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/replbe"
	"gvfs/internal/cachean"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/sunrpc"
)

// counters holds the proxy's instruments in the unified obs registry.
// The hot-path fields are plain obs.Counters — one atomic add each,
// the same cost as the free-standing atomic block they replaced — and
// the per-procedure / per-outcome histogram children are resolved once
// here so HandleCall never takes the registry lock.
type counters struct {
	registry *obs.Registry

	calls            *obs.Counter
	forwarded        *obs.Counter
	readHits         *obs.Counter
	readMisses       *obs.Counter
	zeroFiltered     *obs.Counter
	fileChanReads    *obs.Counter
	fileChanFetch    *obs.Counter
	writesAbsorbed   *obs.Counter
	writesForwarded  *obs.Counter
	prefetched       *obs.Counter
	breakerOpens     *obs.Counter
	breakerFastFails *obs.Counter
	probes           *obs.Counter
	replays          *obs.Counter
	degradedReads    *obs.Counter
	journalRecovered *obs.Counter
	brownoutShed     *obs.Counter

	// attrHits/attrMisses[proc]: LOOKUP, GETATTR and READLINK calls the
	// attribute table answered, or could not (nil for other procedures;
	// a proxy without a block cache never asks, so counts neither).
	attrHits, attrMisses [nfs3.ProcReadlink + 1]*obs.Counter

	// dirListings[outcome]: directory listings installed in the table.
	dirListings map[string]*obs.Counter

	// nfsDur[proc] is the handling-latency histogram for that NFS
	// procedure; mountDur and otherDur catch MOUNT and unknown calls.
	nfsDur   [nfs3.ProcCommit + 1]*obs.Histogram
	mountDur *obs.Histogram
	otherDur *obs.Histogram

	// readDur breaks READ latency down by which cache layer answered.
	readDur map[string]*obs.Histogram
}

// readOutcomes are the label values of gvfs_proxy_read_duration_seconds.
var readOutcomes = []string{
	"block_hit", "block_miss", "zero_filter", "file_cache", "forwarded", "error",
}

func newCounters(reg *obs.Registry) *counters {
	c := &counters{registry: reg}
	c.calls = reg.Counter("gvfs_proxy_calls_total", "RPC calls handled by the proxy.")
	c.forwarded = reg.Counter("gvfs_proxy_forwarded_total", "Calls relayed to the upstream hop.")
	c.readHits = reg.Counter("gvfs_proxy_read_hits_total", "Block reads served from the disk cache.")
	c.readMisses = reg.Counter("gvfs_proxy_read_misses_total", "Block reads that went upstream.")
	c.zeroFiltered = reg.Counter("gvfs_proxy_zero_filtered_total", "Reads satisfied from the zero-block map.")
	c.fileChanReads = reg.Counter("gvfs_proxy_filechan_reads_total", "Reads of files fetched through the file channel served from the disk cache.")
	c.fileChanFetch = reg.Counter("gvfs_proxy_filechan_fetches_total", "Whole-file channel transfers performed.")
	c.writesAbsorbed = reg.Counter("gvfs_proxy_writes_absorbed_total", "Writes held by write-back caching.")
	c.writesForwarded = reg.Counter("gvfs_proxy_writes_forwarded_total", "Writes relayed upstream.")
	c.prefetched = reg.Counter("gvfs_proxy_prefetched_total", "Blocks installed ahead of demand, by read-ahead and miss runs.")
	c.breakerOpens = reg.Counter("gvfs_proxy_breaker_opens_total", "Times the upstream circuit breaker tripped open.")
	c.breakerFastFails = reg.Counter("gvfs_proxy_breaker_fastfails_total", "Calls failed fast while the breaker was open.")
	c.probes = reg.Counter("gvfs_proxy_probes_total", "Recovery probes sent while the breaker was open.")
	c.replays = reg.Counter("gvfs_proxy_replays_total", "Post-recovery write-back replays triggered.")
	c.degradedReads = reg.Counter("gvfs_proxy_degraded_reads_total", "Reads served from cache while degraded.")
	c.journalRecovered = reg.Counter("gvfs_proxy_journal_recovered_total", "Dirty blocks rebuilt from the journal after a crash.")
	c.brownoutShed = reg.Counter("gvfs_qos_brownout_shed_total", "Cache misses deferred with NFS3ERR_JUKEBOX during brownout.")

	hits := reg.CounterVec("gvfs_proxy_attr_hits_total", "Calls answered from the session's attribute/lookup table.", "proc")
	misses := reg.CounterVec("gvfs_proxy_attr_misses_total", "Calls the attribute/lookup table could not answer, sent upstream.", "proc")
	for _, proc := range []uint32{nfs3.ProcLookup, nfs3.ProcGetattr, nfs3.ProcReadlink} {
		c.attrHits[proc], c.attrMisses[proc] = hits.With(nfs3.ProcName(proc)), misses.With(nfs3.ProcName(proc))
	}
	listings := reg.CounterVec("gvfs_proxy_dir_listings_total",
		"Directory listings (READDIRPLUS from cookie 0) installed in the attribute table: complete ones answer every LOOKUP in the directory; partial and refused ones leave its misses forwarded.", "result")
	c.dirListings = make(map[string]*obs.Counter, 3)
	for _, r := range []string{listComplete, listPartial, listRefused} {
		c.dirListings[r] = listings.With(r)
	}

	rpcDur := reg.HistogramVec("gvfs_proxy_rpc_duration_seconds",
		"Proxy call handling latency by NFS procedure.", nil, "proc")
	for proc := range c.nfsDur {
		c.nfsDur[proc] = rpcDur.With(nfs3.ProcName(uint32(proc)))
	}
	c.mountDur = rpcDur.With("MOUNT")
	c.otherDur = rpcDur.With("OTHER")

	readDur := reg.HistogramVec("gvfs_proxy_read_duration_seconds",
		"READ handling latency by which cache layer answered.", nil, "outcome")
	c.readDur = make(map[string]*obs.Histogram, len(readOutcomes))
	for _, o := range readOutcomes {
		c.readDur[o] = readDur.With(o)
	}
	return c
}

// rpcHist resolves the per-procedure latency histogram for one call.
func (c *counters) rpcHist(prog, proc uint32) *obs.Histogram {
	switch prog {
	case nfs3.Program:
		if int(proc) < len(c.nfsDur) {
			return c.nfsDur[proc]
		}
		return c.otherDur
	case nfs3.MountProgram:
		return c.mountDur
	}
	return c.otherDur
}

// observeRPC records one handled call into the per-procedure histogram.
func (c *counters) observeRPC(prog, proc uint32, d time.Duration) {
	c.rpcHist(prog, proc).Observe(d)
}

// setExemplar links the latency bucket an observation of d fell into
// to a flight-recorded trace.
func (c *counters) setExemplar(prog, proc uint32, d time.Duration, traceID uint64) {
	c.rpcHist(prog, proc).SetExemplar(d, traceID)
}

// countListing counts one listing's outcome ("" is none).
func (c *counters) countListing(outcome string) {
	if n := c.dirListings[outcome]; n != nil {
		n.Add(1)
	}
}

// observeRead records one READ into the per-outcome histogram.
func (c *counters) observeRead(outcome string, start time.Time) {
	if h, ok := c.readDur[outcome]; ok {
		h.ObserveSince(start)
	}
}

// registerBridges surfaces the subsystems that keep their own internal
// counters — the lock-striped block cache and the fault-tolerant RPC
// client — in the registry via collection-time callbacks, so their
// fast paths stay untouched.
func (p *Proxy) registerBridges(reg *obs.Registry) {
	reg.CounterFunc("gvfs_proxy_accounting_evictions_total",
		"Entries evicted from the bounded per-file/per-client accounting tables.",
		func() uint64 { return p.acct.evictions.Load() })
	if bc := p.cfg.BlockCache; bc != nil {
		reg.CounterFunc("gvfs_blockcache_hits_total", "Block cache hits.",
			func() uint64 { return bc.Stats().Hits })
		reg.CounterFunc("gvfs_blockcache_misses_total", "Block cache misses.",
			func() uint64 { return bc.Stats().Misses })
		reg.CounterFunc("gvfs_blockcache_insertions_total", "Frames inserted into the block cache.",
			func() uint64 { return bc.Stats().Insertions })
		reg.CounterFunc("gvfs_blockcache_evictions_total", "Frames evicted from the block cache.",
			func() uint64 { return bc.Stats().Evictions })
		reg.CounterFunc("gvfs_blockcache_writebacks_total", "Dirty frames propagated upstream.",
			func() uint64 { return bc.Stats().WriteBacks })
		reg.GaugeFunc("gvfs_blockcache_dirty_frames", "Dirty frames currently held.",
			func() float64 { return float64(bc.DirtyCount()) })
		reg.CounterFunc("gvfs_blockcache_checksum_errors_total", "Frame reads failing CRC32C verification.",
			func() uint64 { return bc.Stats().ChecksumErrors })
		if bc.JournalEnabled() {
			reg.CounterFunc("gvfs_journal_appends_total", "Intent records appended to the dirty-block journal.",
				func() uint64 { return bc.JournalStats().Appends })
			reg.CounterFunc("gvfs_journal_syncs_total", "Journal fsyncs (group commit batches many appends into one).",
				func() uint64 { return bc.JournalStats().Syncs })
			reg.CounterFunc("gvfs_journal_commits_total", "Commit records journaled after successful write-back.",
				func() uint64 { return bc.JournalStats().Commits })
			reg.CounterFunc("gvfs_journal_checkpoints_total", "Journal checkpoints (epoch bumps) after the live set drained.",
				func() uint64 { return bc.JournalStats().Checkpoints })
			reg.CounterFunc("gvfs_journal_restores_total", "Blocks rebuilt from journal data during recovery.",
				func() uint64 { return bc.JournalStats().Restores })
			reg.GaugeFunc("gvfs_journal_live_blocks", "Uncommitted blocks currently in the journal.",
				func() float64 { return float64(bc.JournalStats().Live) })
			reg.GaugeFunc("gvfs_journal_size_bytes", "Bytes of journal records since the last checkpoint.",
				func() float64 { return float64(bc.JournalStats().SizeBytes) })
		}
	}
	if bc := p.cfg.BlockCache; bc != nil && bc.DedupEnabled() {
		reg.GaugeFunc("gvfs_dedup_entries", "Distinct contents tracked by the dedup table.",
			func() float64 { return float64(bc.DedupStats().Entries) })
		reg.GaugeFunc("gvfs_dedup_refs", "File-block identities bound to deduplicated contents.",
			func() float64 { return float64(bc.DedupStats().Refs) })
		reg.CounterFunc("gvfs_dedup_hits_total", "Reads served through a dedup alias or content-hash hint.",
			func() uint64 { return bc.DedupStats().Hits })
		reg.CounterFunc("gvfs_dedup_alias_drops_total", "Stale dedup mappings discarded lazily.",
			func() uint64 { return bc.DedupStats().AliasDrops })
	}
	if an := p.cfg.Cachean; an != nil {
		reg.GaugeFunc("gvfs_cachean_hit_ratio",
			"Observed block-cache hit ratio (alias hits included).",
			an.HitRatio)
		pred := reg.GaugeVec("gvfs_cachean_predicted_hit_ratio",
			"Ghost-cache predicted hit ratio at a multiple of current capacity.", "scale")
		for _, s := range cachean.Scales {
			s := s
			pred.WithFunc(func() float64 { return an.PredictedHitRatio(s) }, cachean.ScaleLabel(s))
		}
		reg.GaugeFunc("gvfs_cachean_working_set_bytes",
			"Estimated working-set size over the sliding window (scaled from the sample).",
			func() float64 { return float64(an.WorkingSetBytes()) })
		reg.CounterFunc("gvfs_cachean_sampled_refs_total",
			"Cache references admitted by the spatial sampler.",
			an.SampledRefs)
		reg.CounterFunc("gvfs_cachean_dropped_events_total",
			"Sampled events dropped because the analytics queue was full.",
			an.DroppedEvents)
		reg.GaugeFunc("gvfs_cachean_sampler_busy_seconds",
			"Cumulative CPU time spent in the analytics consumer goroutine.",
			func() float64 { return float64(an.BusyNs()) / 1e9 })
	}
	if ts, ok := p.cfg.Backend.(backend.TransportStatser); ok {
		reg.CounterFunc("gvfs_rpc_retries_total", "Upstream RPC retransmissions.",
			func() uint64 { return ts.TransportStats().Retries })
		reg.CounterFunc("gvfs_rpc_reconnects_total", "Upstream transport reconnects.",
			func() uint64 { return ts.TransportStats().Reconnects })
		reg.CounterFunc("gvfs_rpc_timeouts_total", "Upstream per-call deadline expirations.",
			func() uint64 { return ts.TransportStats().Timeouts })
	}
	if rb, ok := p.cfg.Backend.(*replbe.Backend); ok {
		up := reg.GaugeVec("gvfs_backend_replica_up",
			"Replica health: 1 healthy, 0 down.", "replica")
		ewma := reg.GaugeVec("gvfs_backend_replica_ewma_latency_seconds",
			"EWMA op latency per replica.", "replica")
		ops := reg.CounterVec("gvfs_backend_replica_ops_total",
			"Operations issued per replica.", "replica")
		errs := reg.CounterVec("gvfs_backend_replica_errors_total",
			"Failed operations per replica.", "replica")
		for i := 0; i < rb.ReplicaCount(); i++ {
			i := i
			name := rb.ReplicaName(i)
			up.WithFunc(func() float64 { return rb.ReplicaUp(i) }, name)
			ewma.WithFunc(func() float64 { return rb.ReplicaEWMASeconds(i) }, name)
			ops.WithFunc(func() uint64 { return rb.ReplicaOps(i) }, name)
			errs.WithFunc(func() uint64 { return rb.ReplicaErrors(i) }, name)
		}
		reg.CounterFunc("gvfs_backend_replica_failovers_total",
			"Operations re-routed to another replica after a failover-class error.",
			rb.Failovers)
		reg.CounterFunc("gvfs_backend_replica_hedges_total",
			"Hedged reads fired after the latency-quantile delay.",
			rb.HedgesFired)
		reg.CounterFunc("gvfs_backend_replica_hedge_wins_total",
			"Hedged reads where the second replica answered first.",
			rb.HedgesWon)
		reg.CounterFunc("gvfs_backend_replica_scrub_divergent_total",
			"Divergent blocks detected by the background scrub.",
			rb.ScrubDivergent)
		reg.CounterFunc("gvfs_backend_replica_scrub_repaired_total",
			"Divergent blocks rewritten from a good replica.",
			rb.ScrubRepaired)
	}
}

// MetricsRegistry returns the registry this proxy emits into — the
// unified stats surface. Pass one registry to several components (or
// read this one) and Snapshot() sees them all.
func (p *Proxy) MetricsRegistry() *obs.Registry { return p.stats.registry }

// Tracer returns the proxy's trace ring (nil when tracing is off).
func (p *Proxy) Tracer() *obs.Tracer { return p.cfg.Tracer }

// Flight returns the proxy's flight recorder (nil when disabled).
func (p *Proxy) Flight() *obs.FlightRecorder { return p.cfg.Flight }

// Snapshot reads every instrument the proxy and its bridged subsystems
// publish. This replaces the disjoint Stats surfaces.
func (p *Proxy) Snapshot() obs.Snapshot { return p.stats.registry.Snapshot() }

// startTrace begins (or continues) the trace for an incoming call.
// A call arriving with a trace-context verifier is a downstream hop's
// trace: reuse its ID and hop count. Otherwise this proxy is hop 0 and
// allocates the ID. Returns nil (a no-op Active) when tracing is off.
func (p *Proxy) startTrace(c *sunrpc.Call) *obs.Active {
	t := p.cfg.Tracer
	if t == nil {
		return nil
	}
	proc := procLabel(c.Prog, c.Proc)
	// ID 0 marks a budget-only verifier (deadline propagation without
	// tracing): not a trace to continue.
	if tc, ok := sunrpc.DecodeTraceVerf(c.Verf); ok && tc.ID != 0 {
		return t.Start(tc.ID, tc.Hop, proc)
	}
	return t.Start(t.NewID(), 0, proc)
}

func procLabel(prog, proc uint32) string {
	switch prog {
	case nfs3.Program:
		return nfs3.ProcName(proc)
	case nfs3.MountProgram:
		return "MOUNT"
	}
	return "OTHER"
}

// callOutcome labels an upstream span.
func callOutcome(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}
