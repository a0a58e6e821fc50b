package bench

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/proxy"
	"gvfs/internal/qos"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

// The noisy-neighbor experiment measures what the QoS admission
// pipeline buys on a shared proxy. Several well-behaved tenants issue
// small paced reads; one unthrottled aggressor runs many closed-loop
// streams of block reads through the same proxy and the same
// bandwidth-limited WAN link. Without admission control the
// aggressor's in-flight bytes queue ahead of everyone on the link and
// polite latency (hence paced goodput) collapses. With per-client
// token buckets and deficit round-robin the aggressor is admitted at
// its budget, bounces off its own queue bound with the retriable
// NFS3ERR_JUKEBOX, and the polite tenants keep nearly their solo
// goodput.

const (
	noisyBlockSize   = 8192
	noisyPoliteRead  = 4096
	noisyPoliteFile  = 4 << 20  // polite working set, far larger than the cache
	noisyNoisyFile   = 16 << 20 // aggressor stream target
	noisyTenants     = 4
	noisyPoliteEvery = 20 * time.Millisecond // 50 paced ops/s per tenant
	noisyStreams     = 32                    // aggressor closed-loop goroutines

	// WAN profile: 10ms RTT, 50 Mbit/s. One aggressor block costs
	// ~1.3ms of link time, so 32 uncontrolled streams keep a deep
	// queue in front of every polite fetch.
	noisyRTT       = 10 * time.Millisecond
	noisyBandwidth = 6.25e6

	// The aggressor's token budget: ~1 MB/s of the ~6 MB/s link. The
	// burst is kept to a few blocks so a refill can't dump a queue's
	// worth of bytes onto the link at once (which would reappear as
	// polite tail latency).
	noisyRate  = 1e6
	noisyBurst = 64 << 10
)

// noisyQoSConfig is the admission policy both protected phases use.
func noisyQoSConfig(reg *obs.Registry) qos.Config {
	return qos.Config{
		MaxConcurrent:  32,
		PerClientQueue: 32,
		RatePerSec:     noisyRate,
		Burst:          noisyBurst,
		// Brownout stays off here: a token-starved aggressor sits in
		// its queue by design, which is admission delay but not proxy
		// overload. The dedicated brownout phase exercises the
		// controller against genuine saturation.
		Metrics: reg,
	}
}

// noisyPhase is one measured phase in the JSON report.
type noisyPhase struct {
	Name            string  `json:"name"`
	Seconds         float64 `json:"seconds"`
	PoliteOps       int     `json:"polite_ops"`
	PoliteGoodput   float64 `json:"polite_goodput_ops_per_s"`
	PoliteP50Ms     float64 `json:"polite_p50_ms"`
	PoliteP99Ms     float64 `json:"polite_p99_ms"`
	PoliteRetries   uint64  `json:"polite_jukebox_retries"`
	AggressorOps    int     `json:"aggressor_ops"`
	AggressorShed   uint64  `json:"aggressor_shed"`
	QoSAdmitted     uint64  `json:"qos_admitted,omitempty"`
	QoSRejected     uint64  `json:"qos_rejected_queue_full,omitempty"`
	QoSExpired      uint64  `json:"qos_deadline_expired,omitempty"`
	BrownoutEntered uint64  `json:"brownout_entered,omitempty"`
	BrownoutExited  uint64  `json:"brownout_exited,omitempty"`
}

type noisyReport struct {
	Experiment           string       `json:"experiment"`
	Scale                float64      `json:"scale"`
	RTT                  string       `json:"upstream_rtt"`
	BandwidthBps         float64      `json:"upstream_bandwidth_bps"`
	Tenants              int          `json:"polite_tenants"`
	AggressorStreams     int          `json:"aggressor_streams"`
	Phases               []noisyPhase `json:"phases"`
	RetainedUnprotected  float64      `json:"retained_goodput_unprotected"`
	RetainedQoS          float64      `json:"retained_goodput_qos"`
	P99RatioUnprotected  float64      `json:"p99_ratio_unprotected"`
	P99RatioQoS          float64      `json:"p99_ratio_qos"`
	BrownoutDemonstrated bool         `json:"brownout_demonstrated"`
}

// noisyDur sizes each measured phase from the scale knob.
func (o Options) noisyDur() time.Duration {
	d := time.Duration(float64(96*time.Second) / o.scale())
	if d < 1200*time.Millisecond {
		d = 1200 * time.Millisecond
	}
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	return d
}

func noisyCred(name string, uid uint32) sunrpc.OpaqueAuth {
	return sunrpc.UnixCred{UID: uid, GID: 100, MachineName: name}.Encode()
}

// noisyRig is one assembled topology: NFS server behind a shaped WAN
// link, a proxy with a small block cache, and optional QoS. The proxy
// comes from proxy.New, not a chain's hop: the polite tenants and the
// aggressor call it in process through sunrpc.Local, so what is measured
// is admission, with no listener or connection of its own in the way.
type noisyRig struct {
	caller   sunrpc.Local
	sched    *qos.Scheduler
	reg      *obs.Registry
	politeFH nfs3.FH
	noisyFH  nfs3.FH
	closers  []func()
}

func (r *noisyRig) Close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

func (o Options) startNoisyRig(qcfg *qos.Config) (*noisyRig, error) {
	rig := &noisyRig{reg: obs.NewRegistry()}
	ok := false
	defer func() {
		if !ok {
			rig.Close()
		}
	}()

	fs := memfs.New()
	pattern := func(n int, seed byte) []byte {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = seed + byte(i%251)
		}
		return buf
	}
	if err := fs.WriteFile("/polite.img", pattern(noisyPoliteFile, 3)); err != nil {
		return nil, err
	}
	if err := fs.WriteFile("/noisy.img", pattern(noisyNoisyFile, 11)); err != nil {
		return nil, err
	}
	// Both directions traverse the shared link: the listener shapes
	// the data-heavy responses, the dialer the requests. The downlink
	// is where an unthrottled aggressor's bytes queue ahead of
	// everyone else's.
	link := simnet.NewLink(simnet.Profile{Name: "noisy-wan", RTT: noisyRTT, Bandwidth: noisyBandwidth})
	origin, err := o.start(stack.ChainSpec{Upstream: stack.NFS, FS: fs, Link: link, NoSession: true})
	if err != nil {
		return nil, err
	}
	rig.closers = append(rig.closers, origin.Close)

	conn, err := stack.Dialer(origin.NFS.Addr, link, nil)()
	if err != nil {
		return nil, err
	}
	up := sunrpc.NewClient(conn)
	rig.closers = append(rig.closers, func() { up.Close() })

	dir, err := os.MkdirTemp(o.WorkDir, "gvfs-noisy-")
	if err != nil {
		return nil, err
	}
	rig.closers = append(rig.closers, func() { os.RemoveAll(dir) })
	// 256 frames of 8 KiB: both working sets stream through, so the
	// phases compare link scheduling, not cache residency.
	bc, err := cache.New(cache.Config{
		Dir: dir, Banks: 4, SetsPerBank: 16, Assoc: 4,
		BlockSize: noisyBlockSize, Policy: cache.WriteThrough,
	})
	if err != nil {
		return nil, err
	}
	rig.closers = append(rig.closers, func() { bc.Close() })

	pcfg := proxy.Config{
		Upstream:   up,
		BlockCache: bc,
		Metrics:    rig.reg,
	}
	if qcfg != nil {
		qc := *qcfg
		qc.Metrics = rig.reg
		rig.sched = qos.New(qc)
		rig.closers = append(rig.closers, rig.sched.Close)
		pcfg.QoS = rig.sched
	}
	p, err := proxy.New(pcfg)
	if err != nil {
		return nil, err
	}
	rig.closers = append(rig.closers, p.Shutdown)
	rig.caller = sunrpc.Local{H: p}

	root, err := mountd.Mount(rig.caller, noisyCred("setup", 0), "/")
	if err != nil {
		return nil, err
	}
	nc := nfs3.NewClient(rig.caller, noisyCred("setup", 0))
	if rig.politeFH, _, err = nc.Lookup(root, "polite.img"); err != nil {
		return nil, err
	}
	if rig.noisyFH, _, err = nc.Lookup(root, "noisy.img"); err != nil {
		return nil, err
	}
	ok = true
	return rig, nil
}

// runNoisyPhase measures one phase: paced polite tenants, plus the
// closed-loop aggressor when withAggressor is set.
func (o Options) runNoisyPhase(name string, qcfg *qos.Config, withAggressor bool) (noisyPhase, error) {
	ph := noisyPhase{Name: name}
	rig, err := o.startNoisyRig(qcfg)
	if err != nil {
		return ph, err
	}
	defer rig.Close()

	dur := o.noisyDur()
	deadline := time.Now().Add(dur)
	var (
		politeOps     atomic.Int64
		politeRetries atomic.Uint64
		aggOps        atomic.Int64
		aggShed       atomic.Uint64
		latMu         sync.Mutex
		latencies     []time.Duration
	)
	errs := make(chan error, noisyTenants+noisyStreams)
	var wg sync.WaitGroup

	for tnt := 0; tnt < noisyTenants; tnt++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nc := nfs3.NewClient(rig.caller, noisyCred(fmt.Sprintf("tenant%d", id), uint32(1000+id)))
			rng := rand.New(rand.NewSource(int64(id)*104729 + 17))
			next := time.Now()
			for time.Now().Before(deadline) {
				next = next.Add(noisyPoliteEvery)
				off := uint64(rng.Intn(noisyPoliteFile/noisyPoliteRead)) * noisyPoliteRead
				opStart := time.Now()
				for {
					_, _, err := nc.Read(rig.politeFH, off, noisyPoliteRead)
					if err == nil {
						break
					}
					if nfs3.StatusOf(err) == nfs3.ErrJukebox {
						// Retriable shed: back off briefly, as a real
						// NFS client would, and try again.
						politeRetries.Add(1)
						time.Sleep(2 * time.Millisecond)
						if time.Now().After(deadline) {
							return
						}
						continue
					}
					errs <- fmt.Errorf("polite tenant %d: %w", id, err)
					return
				}
				politeOps.Add(1)
				lat := time.Since(opStart)
				latMu.Lock()
				latencies = append(latencies, lat)
				latMu.Unlock()
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
		}(tnt)
	}

	if withAggressor {
		for s := 0; s < noisyStreams; s++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				nc := nfs3.NewClient(rig.caller, noisyCred("noisy", 666))
				rng := rand.New(rand.NewSource(int64(id)*7919 + 5))
				for time.Now().Before(deadline) {
					off := uint64(rng.Intn(noisyNoisyFile/noisyBlockSize)) * noisyBlockSize
					_, _, err := nc.Read(rig.noisyFH, off, noisyBlockSize)
					switch {
					case err == nil:
						aggOps.Add(1)
					case nfs3.StatusOf(err) == nfs3.ErrJukebox:
						// An instant bounce; the pause only keeps the
						// shed loop from spinning a CPU core.
						aggShed.Add(1)
						time.Sleep(500 * time.Microsecond)
					default:
						errs <- fmt.Errorf("aggressor stream %d: %w", id, err)
						return
					}
				}
			}(s)
		}
	}

	wg.Wait()
	select {
	case err := <-errs:
		return ph, err
	default:
	}

	ph.Seconds = dur.Seconds()
	ph.PoliteOps = int(politeOps.Load())
	ph.PoliteGoodput = float64(ph.PoliteOps) / dur.Seconds()
	ph.PoliteRetries = politeRetries.Load()
	ph.AggressorOps = int(aggOps.Load())
	ph.AggressorShed = aggShed.Load()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	ph.PoliteP50Ms = percentileMs(latencies, 0.50)
	ph.PoliteP99Ms = percentileMs(latencies, 0.99)
	snap := rig.reg.Snapshot()
	ph.QoSAdmitted = snap.Counters["gvfs_qos_admitted_total"]
	ph.QoSRejected = snap.Counters["gvfs_qos_rejected_queue_full_total"]
	ph.QoSExpired = snap.Counters["gvfs_qos_deadline_expired_total"]
	ph.BrownoutEntered = snap.Counters["gvfs_qos_brownout_entered_total"]
	ph.BrownoutExited = snap.Counters["gvfs_qos_brownout_exited_total"]
	o.logf("noisy %s: polite %.1f ops/s (p99 %.1fms, %d retries), aggressor %d ops / %d shed",
		name, ph.PoliteGoodput, ph.PoliteP99Ms, ph.PoliteRetries, ph.AggressorOps, ph.AggressorShed)
	return ph, nil
}

func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// runNoisyBrownout drives a deliberately undersized scheduler into
// saturation so the brownout controller's enter/exit transitions are
// visible in the gvfs_qos_* metrics, then lets it recover.
func (o Options) runNoisyBrownout() (noisyPhase, error) {
	ph := noisyPhase{Name: "brownout"}
	qcfg := qos.Config{
		MaxConcurrent:  2,
		PerClientQueue: 64,
		BrownoutEnter:  5 * time.Millisecond,
	}
	rig, err := o.startNoisyRig(&qcfg)
	if err != nil {
		return ph, err
	}
	defer rig.Close()

	// Saturate: 16 closed-loop streams against 2 slots of ~10ms WAN
	// reads build queue delay far past the 5ms threshold.
	var wg sync.WaitGroup
	stop := time.Now().Add(1500 * time.Millisecond)
	var served, shed atomic.Int64
	for s := 0; s < 16; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nc := nfs3.NewClient(rig.caller, noisyCred("burst", uint32(2000+id)))
			rng := rand.New(rand.NewSource(int64(id) + 1))
			for time.Now().Before(stop) {
				off := uint64(rng.Intn(noisyNoisyFile/noisyBlockSize)) * noisyBlockSize
				if _, _, err := nc.Read(rig.noisyFH, off, noisyBlockSize); err != nil {
					if nfs3.StatusOf(err) != nfs3.ErrJukebox {
						return
					}
					shed.Add(1)
					time.Sleep(time.Millisecond)
					continue
				}
				served.Add(1)
			}
		}(s)
	}
	wg.Wait()
	if !rig.sched.Brownout() {
		// The burst should have tripped it; poll briefly in case the
		// last admissions are still propagating.
		time.Sleep(100 * time.Millisecond)
	}

	// Idle recovery: the controller's ticker decays the EWMA to the
	// exit threshold with no traffic at all.
	exitBy := time.Now().Add(10 * time.Second)
	for rig.sched.Brownout() && time.Now().Before(exitBy) {
		time.Sleep(50 * time.Millisecond)
	}

	snap := rig.reg.Snapshot()
	ph.AggressorOps = int(served.Load())
	ph.AggressorShed = uint64(shed.Load())
	ph.QoSAdmitted = snap.Counters["gvfs_qos_admitted_total"]
	ph.BrownoutEntered = snap.Counters["gvfs_qos_brownout_entered_total"]
	ph.BrownoutExited = snap.Counters["gvfs_qos_brownout_exited_total"]
	if ph.BrownoutEntered == 0 {
		return ph, fmt.Errorf("noisy/brownout: saturation never tripped the controller")
	}
	if ph.BrownoutExited == 0 {
		return ph, fmt.Errorf("noisy/brownout: controller never recovered after idle")
	}
	o.logf("noisy brownout: %d served, %d shed, %d enter / %d exit transitions",
		ph.AggressorOps, ph.AggressorShed, ph.BrownoutEntered, ph.BrownoutExited)
	return ph, nil
}

// RunNoisy measures polite-tenant goodput retention against an
// unthrottled aggressor — solo baseline, unprotected contention, and
// QoS-protected contention — plus a brownout enter/exit demonstration,
// and writes BENCH_noisy.json when a results directory is configured.
func (o Options) RunNoisy() (*Table, error) {
	report := noisyReport{
		Experiment:       "noisy",
		Scale:            o.scale(),
		RTT:              noisyRTT.String(),
		BandwidthBps:     noisyBandwidth,
		Tenants:          noisyTenants,
		AggressorStreams: noisyStreams,
	}
	qcfg := noisyQoSConfig(nil)

	solo, err := o.runNoisyPhase("solo", &qcfg, false)
	if err != nil {
		return nil, fmt.Errorf("noisy solo: %w", err)
	}
	unprot, err := o.runNoisyPhase("unprotected", nil, true)
	if err != nil {
		return nil, fmt.Errorf("noisy unprotected: %w", err)
	}
	prot, err := o.runNoisyPhase("qos", &qcfg, true)
	if err != nil {
		return nil, fmt.Errorf("noisy qos: %w", err)
	}
	brown, err := o.runNoisyBrownout()
	if err != nil {
		return nil, err
	}
	report.Phases = []noisyPhase{solo, unprot, prot, brown}
	if solo.PoliteGoodput > 0 {
		report.RetainedUnprotected = unprot.PoliteGoodput / solo.PoliteGoodput
		report.RetainedQoS = prot.PoliteGoodput / solo.PoliteGoodput
	}
	if solo.PoliteP99Ms > 0 {
		report.P99RatioUnprotected = unprot.PoliteP99Ms / solo.PoliteP99Ms
		report.P99RatioQoS = prot.PoliteP99Ms / solo.PoliteP99Ms
	}
	report.BrownoutDemonstrated = brown.BrownoutEntered > 0 && brown.BrownoutExited > 0

	table := &Table{
		ID:      "noisy",
		Title:   "Noisy neighbor: polite-tenant goodput with and without QoS admission control",
		Scale:   o.scale(),
		Columns: []string{"polite ops/s", "p50 ms", "p99 ms", "aggressor ops"},
	}
	for _, ph := range report.Phases[:3] {
		table.AddValueRow(ph.Name, ph.PoliteGoodput, ph.PoliteP50Ms, ph.PoliteP99Ms, float64(ph.AggressorOps))
	}
	table.AddNote("retained goodput vs solo: unprotected %.2f, qos %.2f (target >= 0.80)",
		report.RetainedUnprotected, report.RetainedQoS)
	table.AddNote("polite p99 inflation vs solo: unprotected %.1fx, qos %.1fx",
		report.P99RatioUnprotected, report.P99RatioQoS)
	table.AddNote("jukebox: %d polite retries, %d aggressor sheds under qos",
		prot.PoliteRetries, prot.AggressorShed)
	table.AddNote("brownout transitions under saturation: %d enter / %d exit",
		brown.BrownoutEntered, brown.BrownoutExited)

	if err := o.writeResults("BENCH_noisy.json", report); err != nil {
		return nil, err
	}
	return table, nil
}
