package bench

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"gvfs/internal/backend/replbe"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

// RunFailover measures the replicated backend's robustness contract in
// three phases, each over three identically seeded NFS replicas behind
// one proxy:
//
//   - kill: one replica dies (partition + connection kill) in the
//     middle of a mixed read/write workload. Acceptance: zero
//     client-visible failures, and the fault-window p99 stays within
//     3x the steady-state p99. After the link heals, the dead replica
//     must reconverge to the acknowledged content.
//   - hedge: the EWMA-preferred replica stalls. The same stalled
//     workload runs once with hedging disabled and once enabled;
//     acceptance: the hedged p99 beats the unhedged p99.
//   - scrub: blocks on a secondary are corrupted in place; the
//     background scrub must detect the divergence against the write
//     primary and repair the replica byte for byte.
func (o Options) RunFailover() (*Table, error) {
	t := &Table{
		ID:      "failover",
		Title:   "Replicated backend: failover, hedged reads, scrub/read-repair",
		Scale:   o.scale(),
		Columns: []string{"baseline ms", "faulted ms", "ratio", "pass"},
	}

	kill, err := o.runFailoverKill()
	if err != nil {
		return nil, err
	}
	t.AddValueRow("kill p99 (steady/fault)", kill.SteadyP99Ms, kill.FaultP99Ms, kill.Ratio, boolVal(kill.Pass))

	hedge, err := o.runFailoverHedge()
	if err != nil {
		return nil, err
	}
	t.AddValueRow("stall p99 (hedged/unhedged)", hedge.HedgedP99Ms, hedge.UnhedgedP99Ms,
		hedge.UnhedgedP99Ms/hedge.HedgedP99Ms, boolVal(hedge.Pass))

	scrub, err := o.runFailoverScrub()
	if err != nil {
		return nil, err
	}
	t.AddValueRow("scrub (corrupt/repaired)", float64(scrub.BlocksCorrupted),
		float64(scrub.BlocksRepaired), scrub.RepairMs, boolVal(scrub.Pass))

	t.AddNote("kill: %d ops, %d failures, %d failovers, replica reconverged=%v",
		kill.Ops, kill.Failures, kill.Failovers, kill.Reconverged)
	t.AddNote("hedge: %d stalled reads, fired=%d won=%d (unhedged p99 %.1fms -> hedged %.1fms)",
		hedge.StallReads, hedge.HedgesFired, hedge.HedgesWon, hedge.UnhedgedP99Ms, hedge.HedgedP99Ms)
	t.AddNote("scrub: %d divergent blocks found, %d repaired in %.0fms",
		scrub.BlocksDivergent, scrub.BlocksRepaired, scrub.RepairMs)

	report := struct {
		Experiment string        `json:"experiment"`
		Scale      float64       `json:"scale"`
		Kill       failoverKill  `json:"kill"`
		Hedge      failoverHedge `json:"hedge"`
		Scrub      failoverScrub `json:"scrub"`
		Pass       bool          `json:"pass"`
	}{
		Experiment: "failover", Scale: o.scale(),
		Kill: kill, Hedge: hedge, Scrub: scrub,
		Pass: kill.Pass && hedge.Pass && scrub.Pass,
	}
	if err := o.writeResults("BENCH_failover.json", report); err != nil {
		return nil, err
	}
	if !report.Pass {
		return nil, fmt.Errorf("failover: acceptance failed (kill=%v, p99 %.3fms steady, %.3fms faulted; hedge=%v scrub=%v)",
			kill.Pass, kill.SteadyP99Ms, kill.FaultP99Ms, hedge.Pass, scrub.Pass)
	}
	return t, nil
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

type failoverKill struct {
	Ops             int     `json:"ops"`
	Failures        int     `json:"failures"`
	SteadyP99Ms     float64 `json:"steady_p99_ms"`
	FaultP99Ms      float64 `json:"fault_p99_ms"`
	Ratio           float64 `json:"fault_vs_steady_p99"`
	RatioTarget     float64 `json:"ratio_target"`
	Failovers       uint64  `json:"failovers"`
	DownTransitions uint64  `json:"down_transitions"`
	Reconverged     bool    `json:"reconverged"`
	Pass            bool    `json:"pass"`
}

type failoverHedge struct {
	StallReads    int     `json:"stall_reads"`
	UnhedgedP99Ms float64 `json:"unhedged_p99_ms"`
	HedgedP99Ms   float64 `json:"hedged_p99_ms"`
	HedgesFired   uint64  `json:"hedges_fired"`
	HedgesWon     uint64  `json:"hedges_won"`
	Pass          bool    `json:"pass"`
}

type failoverScrub struct {
	BlocksCorrupted int     `json:"blocks_corrupted"`
	BlocksDivergent uint64  `json:"blocks_divergent"`
	BlocksRepaired  uint64  `json:"blocks_repaired"`
	RepairMs        float64 `json:"repair_ms"`
	Pass            bool    `json:"pass"`
}

// failoverPattern builds deterministic position-dependent content so a
// stale or misrouted block shows up as a byte mismatch.
func failoverPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+13) ^ byte(i>>8) ^ seed
	}
	return b
}

// replChain declares the failover topology over seed's files: three
// NFS replicas behind one proxy whose backend is the replbe composite,
// each replica client across a link of its own (Chain.ReplicaLinks),
// so link faults only ever hit the replica data path. The proxy's
// write-through cache is far smaller than the working set: READ/WRITE
// stay on the backend data path and reads keep missing into the
// replica set.
func replChain(profiles []simnet.Profile, seed func(*memfs.FS), rcfg replbe.Config, copts sunrpc.ClientOptions) stack.ChainSpec {
	return stack.ChainSpec{Upstream: stack.Repl, Seed: seed, Replicas: profiles, ReplicaClient: copts,
		Hops: []stack.ProxyOptions{{
			CacheConfig: &cache.Config{Banks: 4, SetsPerBank: 4, Assoc: 1, BlockSize: 8192, Policy: cache.WriteThrough},
			ReplConfig:  rcfg,
		}}}
}

// replStats returns the composite's live stats from the proxy's statusz.
func replStats(c *stack.Chain) *replbe.Stats {
	return c.Hop().Proxy.Statusz().Replication
}

func p99Ms(durs []time.Duration) float64 {
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return percentileMs(sorted, 0.99)
}

// runFailoverKill: kill one of three replicas mid-workload.
func (o Options) runFailoverKill() (failoverKill, error) {
	ph := failoverKill{RatioTarget: 3}
	img := failoverPattern(1<<20, 1)
	out := failoverPattern(64<<10, 2)
	d, err := o.start(replChain(nil, func(fs *memfs.FS) {
		fs.WriteFile("/img", img)
		fs.WriteFile("/out", out)
	}, replbe.Config{
		FailThreshold: 2,
		ProbeInterval: 50 * time.Millisecond,
		ScrubInterval: 100 * time.Millisecond,
		HedgeQuantile: -1, // measure pure failover, not hedging
	}, sunrpc.ClientOptions{CallTimeout: 150 * time.Millisecond, MaxRetries: 1}))
	if err != nil {
		return ph, err
	}
	defer d.Close()

	f, err := d.Session().Open("/img")
	if err != nil {
		return ph, err
	}
	of, err := d.Session().Open("/out")
	if err != nil {
		return ph, err
	}
	want := append([]byte(nil), out...)
	buf := make([]byte, 8192)
	const rounds = 300
	phase := func(start int) ([]time.Duration, error) {
		lats := make([]time.Duration, 0, rounds+rounds/10)
		for i := start; i < start+rounds; i++ {
			boff := int64((i * 37 % 128) * 8192)
			dur, err := timeIt(func() error {
				_, err := f.ReadAt(buf, boff)
				return err
			})
			if err != nil {
				ph.Failures++
				return lats, fmt.Errorf("read at %d: %w", boff, err)
			}
			if !bytes.Equal(buf, img[boff:boff+8192]) {
				return lats, fmt.Errorf("read at %d: wrong content", boff)
			}
			lats = append(lats, dur)
			if i%10 == 0 {
				blk := failoverPattern(8192, byte(3+i))
				woff := int64(i % 8 * 8192)
				dur, err := timeIt(func() error {
					_, err := of.WriteAt(blk, woff)
					return err
				})
				if err != nil {
					ph.Failures++
					return lats, fmt.Errorf("write at %d: %w", woff, err)
				}
				copy(want[woff:], blk)
				lats = append(lats, dur)
			}
			ph.Ops++
		}
		return lats, nil
	}

	steady, err := phase(0)
	if err != nil {
		return ph, fmt.Errorf("failover kill (steady): %w", err)
	}
	d.ReplicaLinks[1].Partition() // redials fail like a dead host...
	d.ReplicaLinks[1].Drop()      // ...and established connections die now
	fault, err := phase(rounds)
	if err != nil {
		return ph, fmt.Errorf("failover kill (replica 1 dead): client-visible failure: %w", err)
	}

	ph.SteadyP99Ms = p99Ms(steady)
	ph.FaultP99Ms = p99Ms(fault)
	// No time in either phase (virtual time): the fault added none. Over a
	// steady 0, the largest finite ratio: JSON holds it, acceptance fails.
	ph.Ratio = 1
	if ph.FaultP99Ms > 0 {
		ph.Ratio = min(ph.FaultP99Ms/ph.SteadyP99Ms, math.MaxFloat64)
	}
	st := replStats(d)
	ph.Failovers = st.Failovers
	ph.DownTransitions = st.Replicas[1].Transitions

	// Heal and require the dead replica to reconverge: probes mark it
	// up, the scrub repairs the files it missed writes for.
	d.ReplicaLinks[1].Heal()
	deadline := time.Now().Add(20 * time.Second)
	for !ph.Reconverged && time.Now().Before(deadline) {
		if got, err := d.Replicas[1].ReadFile("/out"); err == nil && bytes.Equal(got, want) {
			ph.Reconverged = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	ph.Pass = ph.Failures == 0 && ph.Ratio <= ph.RatioTarget && ph.Reconverged
	o.logf("failover kill: %d ops, p99 %.2fms -> %.2fms (%.1fx), failovers=%d, reconverged=%v",
		ph.Ops, ph.SteadyP99Ms, ph.FaultP99Ms, ph.Ratio, ph.Failovers, ph.Reconverged)
	return ph, nil
}

// runFailoverHedge: stall the preferred replica, with and without
// hedged reads.
func (o Options) runFailoverHedge() (failoverHedge, error) {
	ph := failoverHedge{StallReads: 12}
	img := failoverPattern(1<<20, 11)
	near := simnet.Profile{Name: "near", RTT: 4 * time.Millisecond}
	profiles := []simnet.Profile{simnet.Local(), near, near}

	run := func(hedge bool) (float64, *replbe.Stats, error) {
		rcfg := replbe.Config{
			FailThreshold: 100, // keep the stalled replica preferred: measure hedging, not down-marking
			ProbeInterval: 50 * time.Millisecond,
			ScrubInterval: -1,
			HedgeBudget:   0.5,
		}
		if !hedge {
			rcfg.HedgeQuantile = -1
		}
		d, err := o.start(replChain(profiles, func(fs *memfs.FS) { fs.WriteFile("/img", img) },
			rcfg, sunrpc.ClientOptions{CallTimeout: 100 * time.Millisecond, MaxRetries: 1}))
		if err != nil {
			return 0, nil, err
		}
		defer d.Close()
		f, err := d.Session().Open("/img")
		if err != nil {
			return 0, nil, err
		}
		// Warm the latency distribution past the hedge arming threshold
		// on distinct (cache-missing) blocks. Every read skips a block: a
		// miss whose preceding block is absent fetches that block alone,
		// so each read is one upstream READ, where a sequential scan
		// would miss in runs and arm nothing.
		buf := make([]byte, 8192)
		for i := 0; i < 32; i++ {
			if _, err := f.ReadAt(buf, int64(2*i)*8192); err != nil {
				return 0, nil, fmt.Errorf("warm read %d: %w", i, err)
			}
		}
		d.ReplicaLinks[0].Stall(10 * time.Second)
		lats := make([]time.Duration, 0, ph.StallReads)
		for i := 32; i < 32+ph.StallReads; i++ {
			off := int64(2*i) * 8192
			dur, err := timeIt(func() error {
				_, err := f.ReadAt(buf, off)
				return err
			})
			if err != nil {
				return 0, nil, fmt.Errorf("stalled read %d: %w", i, err)
			}
			if !bytes.Equal(buf, img[off:off+8192]) {
				return 0, nil, fmt.Errorf("stalled read %d: wrong content", i)
			}
			lats = append(lats, dur)
		}
		return p99Ms(lats), replStats(d), nil
	}

	var err error
	if ph.UnhedgedP99Ms, _, err = run(false); err != nil {
		return ph, fmt.Errorf("failover hedge (unhedged): %w", err)
	}
	var st *replbe.Stats
	if ph.HedgedP99Ms, st, err = run(true); err != nil {
		return ph, fmt.Errorf("failover hedge (hedged): %w", err)
	}
	ph.HedgesFired = st.HedgesFired
	ph.HedgesWon = st.HedgesWon
	ph.Pass = ph.HedgesFired > 0 && ph.HedgesWon > 0 && ph.HedgedP99Ms < ph.UnhedgedP99Ms
	o.logf("failover hedge: stalled p99 %.1fms unhedged -> %.1fms hedged (fired=%d won=%d)",
		ph.UnhedgedP99Ms, ph.HedgedP99Ms, ph.HedgesFired, ph.HedgesWon)
	return ph, nil
}

// runFailoverScrub: corrupt blocks on a secondary in place; the scrub
// must detect the divergence against the write primary and repair it.
func (o Options) runFailoverScrub() (failoverScrub, error) {
	ph := failoverScrub{BlocksCorrupted: 2}
	img := failoverPattern(256<<10, 21)
	d, err := o.start(replChain(nil, func(fs *memfs.FS) { fs.WriteFile("/img", img) },
		replbe.Config{
			ProbeInterval: 50 * time.Millisecond,
			ScrubInterval: 100 * time.Millisecond,
			HedgeQuantile: -1,
		}, sunrpc.ClientOptions{CallTimeout: 250 * time.Millisecond, MaxRetries: 1}))
	if err != nil {
		return ph, err
	}
	defer d.Close()

	// One pass over the file registers it with the scrub (and proves
	// the content before corruption).
	got, err := d.Session().ReadFile("/img")
	if err != nil || !bytes.Equal(got, img) {
		return ph, fmt.Errorf("baseline read: %v", err)
	}

	// Rot two blocks on replica 1 behind the composite's back.
	fh, err := d.Replicas[1].LookupPath("/img")
	if err != nil {
		return ph, err
	}
	if _, err := d.Replicas[1].Write(fh, 3*8192, failoverPattern(2*8192, 99)); err != nil {
		return ph, err
	}

	start := time.Now()
	deadline := start.Add(15 * time.Second)
	for {
		if got, err := d.Replicas[1].ReadFile("/img"); err == nil && bytes.Equal(got, img) {
			break
		}
		if time.Now().After(deadline) {
			st := replStats(d)
			return ph, fmt.Errorf("scrub never repaired the corrupted replica (scrub=%+v)", st.Scrub)
		}
		time.Sleep(25 * time.Millisecond)
	}
	ph.RepairMs = float64(time.Since(start)) / float64(time.Millisecond)
	st := replStats(d)
	ph.BlocksDivergent = st.Scrub.BlocksDivergent
	ph.BlocksRepaired = st.Scrub.BlocksRepaired
	ph.Pass = ph.BlocksDivergent >= uint64(ph.BlocksCorrupted) &&
		ph.BlocksRepaired >= uint64(ph.BlocksCorrupted)
	o.logf("failover scrub: %d corrupt blocks, %d divergent found, %d repaired in %.0fms",
		ph.BlocksCorrupted, ph.BlocksDivergent, ph.BlocksRepaired, ph.RepairMs)
	return ph, nil
}
