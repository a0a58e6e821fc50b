package bench

// The crash experiment quantifies what crash consistency costs and
// what recovery buys:
//
// Part 1 — write-path overhead. Concurrent clients re-dirty their own
// blocks in place through an in-process proxy under three journal
// modes: no journal, batched group-fsync (the default), and fsync per
// write. The interesting number is batch vs no-journal: group commit
// amortizes one fsync over every write that arrived while the previous
// fsync was in flight, so the overhead stays bounded even though every
// acknowledged write is durable in the journal.
//
// Part 2 — recovery time vs dirty-set size. A proxy accumulates K
// dirty write-back blocks, "crashes" (the cache is abandoned without
// any flush), and a successor over the same directory rebuilds the
// dirty set from the journal (recovery) and replays it to the server
// (replay). Both phases are timed separately and the server content is
// verified afterwards.

import (
	"bytes"
	"fmt"
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

const (
	crashBlockSize = 4096
	crashWriters   = 16
	// Blocks owned per writer: updates stay in place (no evictions), so
	// part 1 measures journal overhead rather than write-back traffic.
	crashBlocksPerWriter = 8
)

type crashWriteRun struct {
	Mode    string  `json:"mode"` // no-journal | batch | always
	Writers int     `json:"writers"`
	Ops     int     `json:"ops"`
	Seconds float64 `json:"seconds"`
	NsPerOp float64 `json:"ns_per_op"`
	// Journal work done during the run (zero in no-journal mode).
	Appends uint64 `json:"journal_appends"`
	Syncs   uint64 `json:"journal_syncs"`
	// OverheadVsNoJournal is NsPerOp divided by the no-journal NsPerOp.
	OverheadVsNoJournal float64 `json:"overhead_vs_no_journal"`
}

type crashRecoveryRun struct {
	DirtyBlocks     int     `json:"dirty_blocks"`
	DirtyBytes      int     `json:"dirty_bytes"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	ReplaySeconds   float64 `json:"replay_seconds"`
	Restored        int     `json:"restored"`
	Verified        bool    `json:"verified"`
}

type crashReport struct {
	Experiment string             `json:"experiment"`
	Scale      float64            `json:"scale"`
	BlockSize  int                `json:"block_size"`
	Writes     []crashWriteRun    `json:"write_path"`
	Recovery   []crashRecoveryRun `json:"recovery"`
}

// crashWriteOps is the total write count for one part-1 mode.
func (o Options) crashWriteOps() int {
	ops := int(16 * 2400 / o.scale())
	if ops < 256 {
		ops = 256
	}
	return ops
}

// runCrashWriteMode times totalOps re-dirtying writes through a
// proxy on the in-memory network in one journal mode.
func (o Options) runCrashWriteMode(mode string, totalOps int) (crashWriteRun, error) {
	run := crashWriteRun{Mode: mode, Writers: crashWriters, Ops: totalOps}

	fs := memfs.New()
	imgBlocks := crashWriters * crashBlocksPerWriter
	if err := fs.WriteFile("/disk.img", make([]byte, imgBlocks*crashBlockSize)); err != nil {
		return run, err
	}
	// 256 frames over 128 distinct blocks: every write after the first
	// pass is an update in place.
	ccfg := &cache.Config{
		Banks: 4, SetsPerBank: 16, Assoc: 4,
		BlockSize: crashBlockSize, Policy: cache.WriteBack,
	}
	switch mode {
	case "no-journal":
	case "batch":
		ccfg.Journal = true
		ccfg.JournalSync = cache.SyncBatch
	case "always":
		ccfg.Journal = true
		ccfg.JournalSync = cache.SyncAlways
	default:
		return run, fmt.Errorf("unknown journal mode %q", mode)
	}
	c, err := o.start(stack.ChainSpec{Upstream: stack.NFS, FS: fs, NoSession: true,
		Hops: []stack.ProxyOptions{{CacheConfig: ccfg}}})
	if err != nil {
		return run, err
	}
	defer c.Close()
	node := c.Hop()

	// One connection per writer: a round trip per write, and the
	// group commit has concurrent appends to batch.
	cred := benchCred()
	type client struct {
		rpc *sunrpc.Client
		nc  *nfs3.Client
		fh  nfs3.FH
	}
	clients := make([]client, crashWriters)
	for i := range clients {
		conn, err := simnet.Dial(node.Addr, nil)
		if err != nil {
			return run, err
		}
		rpc := sunrpc.NewClient(conn)
		defer rpc.Close()
		root, err := mountd.Mount(rpc, cred, "/")
		if err != nil {
			return run, err
		}
		nc := nfs3.NewClient(rpc, cred)
		fh, _, err := nc.Lookup(root, "disk.img")
		if err != nil {
			return run, err
		}
		clients[i] = client{rpc: rpc, nc: nc, fh: fh}
	}

	payload := make([]byte, crashBlockSize)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	var wg sync.WaitGroup
	errs := make(chan error, crashWriters)
	start := time.Now()
	for w := 0; w < crashWriters; w++ {
		ops := totalOps / crashWriters
		if w == 0 {
			ops += totalOps % crashWriters
		}
		wg.Add(1)
		go func(w, ops int) {
			defer wg.Done()
			cl := clients[w]
			base := uint64(w * crashBlocksPerWriter)
			for i := 0; i < ops; i++ {
				blk := base + uint64(i%crashBlocksPerWriter)
				if _, _, err := cl.nc.Write(cl.fh, blk*crashBlockSize, payload, nfs3.Unstable); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w, ops)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return run, err
	}
	run.Seconds = time.Since(start).Seconds()
	run.NsPerOp = run.Seconds * 1e9 / float64(totalOps)
	js := node.BlockCache.JournalStats()
	run.Appends = js.Appends
	run.Syncs = js.Syncs
	return run, nil
}

// runCrashRecovery accumulates dirtyBlocks of write-back state, crashes
// the cache, and times a successor's journal recovery and replay. Its
// proxies come from proxy.New, not a chain's hop: the successor must
// start over the first one's cache directory, and StartProxy would
// recover the journal inside its start, before either phase is timed.
func (o Options) runCrashRecovery(dirtyBlocks int) (crashRecoveryRun, error) {
	run := crashRecoveryRun{DirtyBlocks: dirtyBlocks, DirtyBytes: dirtyBlocks * crashBlockSize}

	fs := memfs.New()
	if err := fs.WriteFile("/disk.img", make([]byte, dirtyBlocks*crashBlockSize)); err != nil {
		return run, err
	}
	origin, err := o.start(stack.ChainSpec{Upstream: stack.NFS, FS: fs, NoSession: true})
	if err != nil {
		return run, err
	}
	defer origin.Close()
	conn, err := simnet.Dial(origin.NFS.Addr, nil)
	if err != nil {
		return run, err
	}
	up := sunrpc.NewClient(conn)
	defer up.Close()

	dir, err := os.MkdirTemp(o.WorkDir, "gvfs-crashr-")
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(dir)
	banks, assoc := 8, 8
	sets := (dirtyBlocks + banks*assoc - 1) / (banks * assoc)
	if sets < 2 {
		sets = 2
	}
	ccfg := cache.Config{
		Dir: dir, Banks: banks, SetsPerBank: sets, Assoc: assoc,
		BlockSize: crashBlockSize, Policy: cache.WriteBack,
		Journal: true, JournalSync: cache.SyncBatch,
	}
	bc1, err := cache.New(ccfg)
	if err != nil {
		return run, err
	}
	p1, err := proxy.New(proxy.Config{
		Upstream: up, BlockCache: bc1,
	})
	if err != nil {
		bc1.Close()
		return run, err
	}
	caller := sunrpc.Local{H: p1}
	cred := benchCred()
	root, err := mountd.Mount(caller, cred, "/")
	if err != nil {
		bc1.Close()
		return run, err
	}
	nc := nfs3.NewClient(caller, cred)
	fh, _, err := nc.Lookup(root, "disk.img")
	if err != nil {
		bc1.Close()
		return run, err
	}
	want := make([]byte, dirtyBlocks*crashBlockSize)
	if err := parallelFor(16, dirtyBlocks, func(b int) error {
		data := bytes.Repeat([]byte{byte(b%251) + 1}, crashBlockSize)
		copy(want[b*crashBlockSize:], data)
		_, _, werr := nc.Write(fh, uint64(b)*crashBlockSize, data, nfs3.Unstable)
		return werr
	}); err != nil {
		bc1.Close()
		return run, err
	}
	// Crash: abandon the proxy and close the cache without any flush or
	// checkpoint (Close leaves the journal intact by design).
	p1.Shutdown()
	bc1.Close()

	// Successor over the same directory.
	bc2, err := cache.New(ccfg)
	if err != nil {
		return run, err
	}
	defer bc2.Close()
	p2, err := proxy.New(proxy.Config{
		Upstream: up, BlockCache: bc2,
	})
	if err != nil {
		return run, err
	}
	defer p2.Shutdown()

	t0 := time.Now()
	rep, err := bc2.RecoverJournal()
	if err != nil {
		return run, err
	}
	run.RecoverySeconds = time.Since(t0).Seconds()
	run.Restored = rep.Restored
	t1 := time.Now()
	if err := p2.WriteBack(); err != nil {
		return run, err
	}
	run.ReplaySeconds = time.Since(t1).Seconds()

	got, err := fs.ReadFile("/disk.img")
	if err != nil {
		return run, err
	}
	run.Verified = bytes.Equal(got, want)
	if !run.Verified {
		return run, fmt.Errorf("recovered server content does not match acked writes")
	}
	if rep.Dirty != dirtyBlocks {
		return run, fmt.Errorf("recovered %d dirty blocks, wrote %d", rep.Dirty, dirtyBlocks)
	}
	return run, nil
}

// RunCrash measures the journal's write-path overhead and the recovery
// time as a function of dirty-set size.
func (o Options) RunCrash() (*Table, error) {
	t := &Table{
		ID:      "crash",
		Title:   "Crash consistency: journal overhead and recovery time",
		Scale:   o.Scale,
		Columns: []string{"ns/op", "overhead ×", "fsyncs"},
	}
	report := crashReport{Experiment: "crash", Scale: o.Scale, BlockSize: crashBlockSize}

	totalOps := o.crashWriteOps()
	var base float64
	for _, mode := range []string{"no-journal", "batch", "always"} {
		o.logf("crash: write path, mode=%s ops=%d", mode, totalOps)
		run, err := o.runCrashWriteMode(mode, totalOps)
		if err != nil {
			return nil, fmt.Errorf("crash write path (%s): %w", mode, err)
		}
		if mode == "no-journal" {
			base = run.NsPerOp
		}
		if base > 0 {
			run.OverheadVsNoJournal = run.NsPerOp / base
		}
		report.Writes = append(report.Writes, run)
		t.AddValueRow("write "+mode, run.NsPerOp, run.OverheadVsNoJournal, float64(run.Syncs))
	}

	for _, s := range []int{256, 1024, 4096} {
		k := int(float64(s) / o.scale() * 16)
		if k < 8 {
			k = 8
		}
		o.logf("crash: recovery, dirty=%d blocks", k)
		run, err := o.runCrashRecovery(k)
		if err != nil {
			return nil, fmt.Errorf("crash recovery (%d blocks): %w", k, err)
		}
		report.Recovery = append(report.Recovery, run)
		t.AddNote("recovery of %d dirty blocks (%.1f MB): rebuild %.1f ms, replay %.1f ms, verified=%v",
			run.DirtyBlocks, float64(run.DirtyBytes)/1e6,
			run.RecoverySeconds*1e3, run.ReplaySeconds*1e3, run.Verified)
	}

	if len(report.Writes) == 3 {
		t.AddNote("batched group fsync costs %.2fx the no-journal write path (fsync-per-write: %.2fx)",
			report.Writes[1].OverheadVsNoJournal, report.Writes[2].OverheadVsNoJournal)
	}
	if err := o.writeResults("BENCH_crash.json", report); err != nil {
		return nil, err
	}
	return t, nil
}

// parallelFor runs f(0..n-1) over at most workers goroutines and returns
// the first error.
func parallelFor(workers, n int, f func(i int) error) error {
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
