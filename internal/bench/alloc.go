package bench

// The alloc experiment measures hot-path memory discipline: the proxy
// sits on every NFS call between a VM and its image server, so the
// steady-state READ/WRITE path must not churn the Go allocator. It
// reports allocs/op, B/op and latency percentiles for warm-cache READ
// and WRITE over a real loopback connection (client marshal → record
// framing → proxy decode → cache bank I/O → encode → client decode),
// and sweeps the WAN read-ahead depth (the runs ahead outstanding on one
// connection).

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

// Seed baselines: allocs/op of this harness at the commit before the
// zero-alloc work, kept for the reduction ratio in the report.
const (
	seedWarmReadAllocsPerOp  = 63.0
	seedWarmWriteAllocsPerOp = 67.0
)

// AllocPath is the measured warm-cache profile of one operation type.
type AllocPath struct {
	Ops         int     `json:"ops"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// AllocSweepPoint is one depth of the WAN read-ahead sweep.
type AllocSweepPoint struct {
	Depth     int     `json:"depth"`
	ScanMs    float64 `json:"scan_ms"`
	ReadP50Ms float64 `json:"read_p50_ms"`
	ReadP99Ms float64 `json:"read_p99_ms"`
}

// AllocReport is the machine-readable result (BENCH_alloc.json).
type AllocReport struct {
	SeedWarmReadAllocsPerOp  float64           `json:"seed_warm_read_allocs_per_op"`
	SeedWarmWriteAllocsPerOp float64           `json:"seed_warm_write_allocs_per_op"`
	WarmRead                 AllocPath         `json:"warm_read"`
	WarmWrite                AllocPath         `json:"warm_write"`
	ReadReductionPct         float64           `json:"read_reduction_pct"`
	WriteReductionPct        float64           `json:"write_reduction_pct"`
	Sweep                    []AllocSweepPoint `json:"readahead_sweep"`
}

// measureWarmAlloc runs the warm-cache READ/WRITE loops over a
// loopback deployment and returns both paths' profiles.
func measureWarmAlloc(ops int) (read, write AllocPath, err error) {
	const bs = 4096
	const blocks = 16
	fs := memfs.New()
	img := make([]byte, 64*bs)
	for i := range img {
		img[i] = byte(i % 251)
	}
	if err := fs.WriteFile("/disk.img", img); err != nil {
		return read, write, err
	}
	srv, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		return read, write, err
	}
	defer srv.Close()
	dir, err := os.MkdirTemp("", "gvfs-alloc")
	if err != nil {
		return read, write, err
	}
	defer os.RemoveAll(dir)
	pnode, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: srv.Addr,
		CacheConfig: &cache.Config{
			Dir: dir, Banks: 4, SetsPerBank: 16, Assoc: 4,
			BlockSize: bs, Policy: cache.WriteBack,
		},
		DisableMeta: true,
		// Analytics on: the measured allocs/op include the sampler tap,
		// so the alloc gate proves the tap is free on the warm path.
		Cachean: true,
	})
	if err != nil {
		return read, write, err
	}
	defer pnode.Close()
	conn, err := stack.Dialer(pnode.Addr, nil, nil)()
	if err != nil {
		return read, write, err
	}
	cl := sunrpc.NewClient(conn)
	defer cl.Close()
	cred := benchCred()
	root, err := mountd.Mount(cl, cred, "/")
	if err != nil {
		return read, write, err
	}
	nc := nfs3.NewClient(cl, cred)
	fh, _, err := nc.Lookup(root, "disk.img")
	if err != nil {
		return read, write, err
	}
	wdata := make([]byte, bs)
	for i := range wdata {
		wdata[i] = byte(i)
	}
	// Warm every measured block once (cache fill, size discovery).
	for b := uint64(0); b < blocks; b++ {
		if _, _, err := nc.Read(fh, b*bs, bs); err != nil {
			return read, write, err
		}
		if _, _, err := nc.Write(fh, b*bs, wdata, nfs3.Unstable); err != nil {
			return read, write, err
		}
	}

	measure := func(f func(i int) error) (AllocPath, error) {
		durs := make([]time.Duration, 0, ops) // preallocated: appends must not count
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < ops; i++ {
			t0 := time.Now()
			if err := f(i); err != nil {
				return AllocPath{}, err
			}
			durs = append(durs, time.Since(t0))
		}
		runtime.ReadMemStats(&m1)
		sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
		return AllocPath{
			Ops:         ops,
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
			P50Ms:       percentileMs(durs, 0.50),
			P99Ms:       percentileMs(durs, 0.99),
		}, nil
	}
	read, err = measure(func(i int) error {
		_, _, err := nc.Read(fh, uint64(i%blocks)*bs, bs)
		return err
	})
	if err != nil {
		return read, write, err
	}
	write, err = measure(func(i int) error {
		_, _, err := nc.Write(fh, uint64(i%blocks)*bs, wdata, nfs3.Unstable)
		return err
	})
	return read, write, err
}

// allocSweepStreams is how many files the sweep scans concurrently —
// the multi-VM case. Read-ahead capacity (16 concurrent runs) is shared;
// a run of four blocks spends one slot, so every stream's runs stay
// outstanding.
const allocSweepStreams = 6

// allocSweepThink is the per-block compute time each sweep stream
// spends between reads — a reader that processes data as it arrives
// (the paper's VM boot workload) rather than a pure bandwidth probe.
// With think time, a prefetcher that keeps the window outstanding
// stays ahead of the reader and demand reads hit cache; one that
// cannot hold its window (slot starvation) leaks full round trips
// into the demand path.
const allocSweepThink = 2 * time.Millisecond

// runAllocSweepPoint scans several files concurrently through a
// WAN-linked proxy with the given read-ahead depth, returning demand
// read latency percentiles and total scan time.
func (o Options) runAllocSweepPoint(depth int) (AllocSweepPoint, error) {
	pt := AllocSweepPoint{Depth: depth}
	const bs = 8192
	const fileBytes = 4 << 20
	fs := memfs.New()
	img := make([]byte, fileBytes)
	for i := range img {
		img[i] = byte((i / bs) * 7)
	}
	for s := 0; s < allocSweepStreams; s++ {
		if err := fs.WriteFile(fmt.Sprintf("/scan%d.bin", s), img); err != nil {
			return pt, err
		}
	}
	// A latency-dominated WAN: the paper's 30 ms RTT with enough
	// bandwidth that queueing does not mask round-trip effects (the
	// regime where keeping the window outstanding matters), time-scaled
	// to keep the sweep fast.
	wanProfile := simnet.Profile{Name: "WAN-lat", RTT: 30 * time.Millisecond, Bandwidth: 40e6, Scale: 2}
	wan := simnet.NewLink(wanProfile)
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: !o.NoEncrypt})
	if err != nil {
		return pt, err
	}
	defer server.Close()
	dir, err := os.MkdirTemp(o.WorkDir, "allocsweep")
	if err != nil {
		return pt, err
	}
	defer os.RemoveAll(dir)
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		UpstreamLink: wan,
		UpstreamKey:  server.Key,
		CacheConfig: &cache.Config{
			Dir: dir, Banks: 16, SetsPerBank: 16, Assoc: 4,
			BlockSize: bs, Policy: cache.WriteBack,
		},
		ReadAhead: depth,
	})
	if err != nil {
		return pt, err
	}
	defer node.Close()
	sess, err := newBenchSession(node.Addr, o)
	if err != nil {
		return pt, err
	}
	defer sess.Close()

	type streamResult struct {
		durs []time.Duration
		err  error
	}
	results := make(chan streamResult, allocSweepStreams)
	scanStart := time.Now()
	for s := 0; s < allocSweepStreams; s++ {
		go func(s int) {
			f, err := sess.Open(fmt.Sprintf("/scan%d.bin", s))
			if err != nil {
				results <- streamResult{err: err}
				return
			}
			defer f.Close()
			buf := make([]byte, bs)
			durs := make([]time.Duration, 0, fileBytes/bs)
			for off := int64(0); off < fileBytes; off += bs {
				t0 := time.Now()
				if _, err := f.ReadAt(buf, off); err != nil {
					results <- streamResult{err: err}
					return
				}
				durs = append(durs, time.Since(t0))
				time.Sleep(allocSweepThink)
			}
			results <- streamResult{durs: durs}
		}(s)
	}
	var durs []time.Duration
	for s := 0; s < allocSweepStreams; s++ {
		r := <-results
		if r.err != nil {
			return pt, r.err
		}
		durs = append(durs, r.durs...)
	}
	pt.ScanMs = float64(time.Since(scanStart)) / float64(time.Millisecond)
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	pt.ReadP50Ms = percentileMs(durs, 0.50)
	pt.ReadP99Ms = percentileMs(durs, 0.99)
	return pt, nil
}

// RunAlloc measures warm-path allocation discipline and the read-ahead
// sweep, writing BENCH_alloc.json when a results directory
// is configured.
func (o Options) RunAlloc() (*Table, error) {
	report := AllocReport{
		SeedWarmReadAllocsPerOp:  seedWarmReadAllocsPerOp,
		SeedWarmWriteAllocsPerOp: seedWarmWriteAllocsPerOp,
	}
	read, write, err := measureWarmAlloc(3000)
	if err != nil {
		return nil, err
	}
	report.WarmRead, report.WarmWrite = read, write
	report.ReadReductionPct = 100 * (1 - read.AllocsPerOp/seedWarmReadAllocsPerOp)
	report.WriteReductionPct = 100 * (1 - write.AllocsPerOp/seedWarmWriteAllocsPerOp)
	o.logf("alloc: warm read %.1f allocs/op (%.0f B/op), warm write %.1f allocs/op (%.0f B/op)",
		read.AllocsPerOp, read.BytesPerOp, write.AllocsPerOp, write.BytesPerOp)

	for _, depth := range []int{2, 4, 8, 16} {
		pt, err := o.runAllocSweepPoint(depth)
		if err != nil {
			return nil, err
		}
		report.Sweep = append(report.Sweep, pt)
		o.logf("alloc: WAN scan depth %d: %.0fms total, read p99 %.1fms",
			depth, pt.ScanMs, pt.ReadP99Ms)
	}

	if err := o.writeResults("BENCH_alloc.json", report); err != nil {
		return nil, err
	}

	// No Scale: the warm path runs over loopback and the sweep pins its
	// own time-scaled WAN profile, so the global scale factor does not
	// apply to these numbers.
	table := &Table{
		ID:      "alloc",
		Title:   "Hot-path allocation discipline and read-ahead",
		Columns: []string{"allocs/op", "B/op", "p50 ms", "p99 ms"},
	}
	table.AddValueRow("warm READ", read.AllocsPerOp, read.BytesPerOp, read.P50Ms, read.P99Ms)
	table.AddValueRow("warm WRITE", write.AllocsPerOp, write.BytesPerOp, write.P50Ms, write.P99Ms)
	for _, pt := range report.Sweep {
		table.AddValueRow(fmt.Sprintf("WAN scan depth %d", pt.Depth),
			0, 0, pt.ReadP50Ms, pt.ReadP99Ms)
	}
	table.AddNote("WAN sweep: %d streams, %v think/block, 15ms effective RTT (30ms profile at 1/2 time scale)",
		allocSweepStreams, allocSweepThink)
	table.AddNote("warm READ allocs/op down %.0f%% vs seed (%.1f -> %.1f); warm WRITE down %.0f%% (%.1f -> %.1f)",
		report.ReadReductionPct, seedWarmReadAllocsPerOp, read.AllocsPerOp,
		report.WriteReductionPct, seedWarmWriteAllocsPerOp, write.AllocsPerOp)
	return table, nil
}
