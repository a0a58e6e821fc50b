package bench

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/proxy"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

// The concurrency experiment measures how the lock-striped cache
// scales: N parallel clients hammer one proxy whose upstream sits
// behind a WAN-class latency link. The workload is read-mostly with
// enough dirty writes that evictions constantly push write-backs over
// the slow link. With striping plus frame pinning those RPCs overlap
// and only the affected frame waits. The single-mutex design this
// replaced (every client stalled behind every eviction) can no longer
// be built; its numbers are the "baseline" rows of the committed
// results/BENCH_concurrency.json.

const (
	concBlockSize   = 4096
	concReadBlocks  = 128 // warmed, resident working set (2 per set)
	concWriteBlocks = 512 // 8 candidates per 4-way set: writes keep evicting dirty victims
)

// concurrencyRun is one measurement in the JSON report.
type concurrencyRun struct {
	Mode       string  `json:"mode"` // always "striped"; matches the rows of the committed baseline file
	Clients    int     `json:"clients"`
	Stripes    int     `json:"stripes"`
	Ops        int     `json:"ops"`
	Reads      int     `json:"reads"`
	Writes     int     `json:"writes"`
	ReadBytes  int64   `json:"read_bytes"`
	Seconds    float64 `json:"seconds"`
	ReadMBps   float64 `json:"aggregate_read_mb_per_s"`
	NsPerOp    float64 `json:"ns_per_op"`
	Hits       uint64  `json:"cache_hits"`
	Misses     uint64  `json:"cache_misses"`
	Evictions  uint64  `json:"cache_evictions"`
	WriteBacks uint64  `json:"cache_write_backs"`
}

type concurrencyReport struct {
	Experiment string           `json:"experiment"`
	Scale      float64          `json:"scale"`
	BlockSize  int              `json:"block_size"`
	RTT        string           `json:"upstream_rtt"`
	Runs       []concurrencyRun `json:"runs"`
}

// concurrencyOps returns the total operation count, split across all
// clients of a run so every run does identical work.
func (o Options) concurrencyOps() int {
	ops := int(8 * 2400 / o.scale())
	if ops < 64 {
		ops = 64
	}
	return ops
}

// runConcurrencyOne deploys server + proxy and times totalOps
// operations split over clients.
func (o Options) runConcurrencyOne(clients, totalOps int) (concurrencyRun, error) {
	run := concurrencyRun{Mode: "striped", Clients: clients}

	fs := memfs.New()
	pattern := func(n int, seed byte) []byte {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = seed + byte(i%251)
		}
		return buf
	}
	if err := fs.WriteFile("/read.img", pattern(concReadBlocks*concBlockSize, 1)); err != nil {
		return run, err
	}
	if err := fs.WriteFile("/write.img", pattern(concWriteBlocks*concBlockSize, 7)); err != nil {
		return run, err
	}
	node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		return run, err
	}
	defer node.Close()

	// WAN-class latency, unlimited bandwidth: the experiment isolates
	// lock-hold time around blocking RPCs, not link serialization.
	link := simnet.NewLink(simnet.Profile{Name: "conc-wan", RTT: 10 * time.Millisecond})
	conn, err := stack.Dialer(node.Addr, link, nil)()
	if err != nil {
		return run, err
	}
	up := sunrpc.NewClient(conn)
	defer up.Close()

	dir, err := os.MkdirTemp(o.WorkDir, "gvfs-conc-")
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(dir)
	// Geometry: 256 frames over 64 sets, smaller than the combined
	// working set so insertions keep evicting dirty victims.
	ccfg := cache.Config{
		Dir: dir, Banks: 4, SetsPerBank: 16, Assoc: 4,
		BlockSize: concBlockSize, Policy: cache.WriteBack,
		FlushConcurrency: 8,
	}
	// 64 sets → the default stripe count covers every set with its own
	// lock.
	run.Stripes = ccfg.Banks * ccfg.SetsPerBank
	bc, err := cache.New(ccfg)
	if err != nil {
		return run, err
	}
	defer bc.Close()

	p, err := proxy.New(proxy.Config{
		Upstream:    up,
		BlockCache:  bc,
		WritePolicy: cache.WriteBack,
		DisableMeta: true,
	})
	if err != nil {
		return run, err
	}
	defer p.Shutdown()

	caller := sunrpc.Local{H: p}
	cred := benchCred()
	root, err := mountd.Mount(caller, cred, "/")
	if err != nil {
		return run, err
	}
	nc := nfs3.NewClient(caller, cred)
	readFH, _, err := nc.Lookup(root, "read.img")
	if err != nil {
		return run, err
	}
	writeFH, _, err := nc.Lookup(root, "write.img")
	if err != nil {
		return run, err
	}

	// Bring the cache to the measured steady state before timing.
	// First dirty the whole write range: the cache fills to capacity
	// with dirty frames, so every later insertion must write back a
	// victim over the slow link. Then warm the read set; reads stay
	// hot under LRU, leaving each set split between resident read
	// blocks and dirty write blocks.
	if err := concParallelFor(16, concWriteBlocks, func(b int) error {
		_, _, werr := nc.Write(writeFH, uint64(b)*concBlockSize, pattern(concBlockSize, byte(b)), nfs3.Unstable)
		return werr
	}); err != nil {
		return run, err
	}
	if err := concParallelFor(16, concReadBlocks, func(b int) error {
		_, _, rerr := nc.Read(readFH, uint64(b)*concBlockSize, concBlockSize)
		return rerr
	}); err != nil {
		return run, err
	}

	before := bc.Stats()
	var readBytes atomic.Int64
	var reads, writes atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		ops := totalOps / clients
		if c == 0 {
			ops += totalOps % clients
		}
		wg.Add(1)
		go func(id, ops int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*7919 + int64(clients)))
			for i := 0; i < ops; i++ {
				if rng.Intn(4) == 0 {
					b := uint64(rng.Intn(concWriteBlocks))
					data := pattern(concBlockSize, byte(id+i))
					if _, _, err := nc.Write(writeFH, b*concBlockSize, data, nfs3.Unstable); err != nil {
						errs <- fmt.Errorf("client %d write: %w", id, err)
						return
					}
					writes.Add(1)
				} else {
					b := uint64(rng.Intn(concReadBlocks))
					data, _, err := nc.Read(readFH, b*concBlockSize, concBlockSize)
					if err != nil {
						errs <- fmt.Errorf("client %d read: %w", id, err)
						return
					}
					readBytes.Add(int64(len(data)))
					reads.Add(1)
				}
			}
		}(c, ops)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return run, err
	default:
	}
	// Settle outside the timed window so every run ends clean.
	if err := p.WriteBack(); err != nil {
		return run, err
	}

	after := bc.Stats()
	run.Ops = totalOps
	run.Reads = int(reads.Load())
	run.Writes = int(writes.Load())
	run.ReadBytes = readBytes.Load()
	run.Seconds = elapsed.Seconds()
	run.ReadMBps = float64(run.ReadBytes) / 1e6 / elapsed.Seconds()
	run.NsPerOp = float64(elapsed.Nanoseconds()) / float64(totalOps)
	run.Hits = after.Hits - before.Hits
	run.Misses = after.Misses - before.Misses
	run.Evictions = after.Evictions - before.Evictions
	run.WriteBacks = after.WriteBacks - before.WriteBacks
	o.logf("concurrency %d clients: %.3fs, %.1f MB/s read, %d evictions",
		clients, run.Seconds, run.ReadMBps, run.Evictions)
	return run, nil
}

// concParallelFor runs f(0..n-1) over at most workers goroutines and
// returns the first error.
func concParallelFor(workers, n int, f func(i int) error) error {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// RunConcurrency runs the striped cache at 1 and 8 parallel clients,
// and writes BENCH_concurrency.json when a results directory is
// configured.
func (o Options) RunConcurrency() (*Table, error) {
	totalOps := o.concurrencyOps()

	report := concurrencyReport{
		Experiment: "concurrency",
		Scale:      o.scale(),
		BlockSize:  concBlockSize,
		RTT:        (10 * time.Millisecond).String(),
	}
	table := &Table{
		ID:      "concurrency",
		Title:   "Parallel clients vs one proxy over the striped cache",
		Scale:   o.scale(),
		Columns: []string{"striped"},
	}
	for _, clients := range []int{1, 8} {
		run, err := o.runConcurrencyOne(clients, totalOps)
		if err != nil {
			return nil, fmt.Errorf("concurrency %d clients: %w", clients, err)
		}
		report.Runs = append(report.Runs, run)
		table.AddRow(fmt.Sprintf("%d client(s)", clients), time.Duration(run.Seconds*float64(time.Second)))
	}
	r1, r8 := report.Runs[0], report.Runs[1]
	table.AddNote("aggregate read throughput: %.1f MB/s at 8 clients vs %.1f MB/s at 1", r8.ReadMBps, r1.ReadMBps)
	table.AddNote("single-mutex baseline: committed results/BENCH_concurrency.json (5.3x slower at 8 clients)")

	if err := o.writeResults("BENCH_concurrency.json", report); err != nil {
		return nil, err
	}
	return table, nil
}
