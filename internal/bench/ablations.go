package bench

import (
	"fmt"
	"os"
	"path"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/vm"
	"gvfs/internal/workload"

	gvfs "gvfs"
)

// RunAblationWritePolicy isolates the write-back design choice
// (§3.2.1): a SPECseis-phase-1-like trace write over the WAN with the
// proxy cache in write-through versus write-back mode.
func (o Options) RunAblationWritePolicy() (*Table, error) {
	t := &Table{
		ID:      "ablation-writepolicy",
		Title:   "Write policy ablation: large trace write over WAN (seconds)",
		Scale:   o.scale(),
		Columns: []string{"write time", "flush time", "total"},
	}
	for _, policy := range []cache.Policy{cache.WriteThrough, cache.WriteBack} {
		spec := o.benchVMSpec()
		fs := memfs.New()
		if err := vm.InstallImage(fs, "/vm", spec); err != nil {
			return nil, err
		}
		dep, err := o.deploy(fs, deployConfig{scenario: WANC, blockCache: true, policy: policy})
		if err != nil {
			return nil, err
		}
		disk, err := dep.Session.Open(path.Join("/vm", spec.DiskFile()))
		if err != nil {
			dep.Close()
			return nil, err
		}
		guest, err := workload.NewGuestFS(disk, spec.DiskBytes, dep.Session.BlockSize(), nil)
		if err != nil {
			dep.Close()
			return nil, err
		}
		params := workload.Params{Scale: o.scale()}
		writeDur, err := timeIt(func() error {
			return guest.WriteFile("work/trace", params.ScaledSize(112<<20))
		})
		if err != nil {
			dep.Close()
			return nil, err
		}
		flushDur, err := timeIt(dep.ClientProxy.Proxy.WriteBack)
		if err != nil {
			dep.Close()
			return nil, err
		}
		t.AddRow(policy.String(), writeDur, flushDur, writeDur+flushDur)
		dep.Close()
	}
	wt, _ := t.Value("write-through", "write time")
	wb, _ := t.Value("write-back", "write time")
	if wb > 0 {
		t.AddNote("write-back hides %.1fx of perceived write latency", wt/wb)
	}
	return t, nil
}

// RunAblationMetadata isolates the meta-data mechanisms (§3.2.2) on
// first-clone latency: full meta-data (zero map + file channel), zero
// map only, and no meta-data at all. The proxy uses meta-data whenever
// a file has it, so each arm ablates by input: it rewrites or deletes
// the memory state's meta-data file before the image server starts.
func (o Options) RunAblationMetadata() (*Table, error) {
	t := &Table{
		ID:      "ablation-metadata",
		Title:   "Meta-data ablation: first clone of one VM over WAN (seconds)",
		Scale:   o.scale(),
		Columns: []string{"clone time"},
	}
	type variant struct {
		label       string
		zeroMapOnly bool
		noMeta      bool
	}
	for _, v := range []variant{
		{label: "file channel + zero map"},
		{label: "zero map only", zeroMapOnly: true},
		{label: "no meta-data", noMeta: true},
	} {
		spec := o.cloneVMSpec("img0", 100)
		fs := memfs.New()
		if err := vm.InstallImage(fs, "/images/g0", spec); err != nil {
			return nil, err
		}
		metaName := meta.NameFor(spec.MemStateFile())
		switch {
		case v.zeroMapOnly:
			// Replace the installed meta-data with a zero map that has
			// no file-channel actions.
			mem := spec.GenerateMemState()
			m := meta.GenerateZeroMap(mem, 8192)
			blob, err := m.Encode()
			if err != nil {
				return nil, err
			}
			if err := fs.WriteFile("/images/g0/"+metaName, blob); err != nil {
				return nil, err
			}
		case v.noMeta:
			dir, err := fs.LookupPath("/images/g0")
			if err != nil {
				return nil, err
			}
			if err := fs.Remove(dir, metaName); err != nil {
				return nil, err
			}
		}
		wan := simnet.NewLink(simnet.WAN())
		server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: !o.NoEncrypt})
		if err != nil {
			return nil, err
		}
		blockDir, err := os.MkdirTemp(o.WorkDir, "abl-block")
		if err != nil {
			server.Close()
			return nil, err
		}
		cfg := o.cacheConfig(blockDir, cache.WriteBack)
		node, err := stack.StartProxy(stack.ProxyOptions{
			UpstreamAddr: server.ProxyAddr(),
			UpstreamLink: wan,
			UpstreamKey:  server.Key,
			CacheConfig:  &cfg,
			FileChanAddr: server.FileChanAddr(),
			FileChanLink: wan,
			FileChanKey:  server.Key,
		})
		if err != nil {
			server.Close()
			return nil, err
		}
		sess, err := newBenchSession(node.Addr, o)
		if err == nil {
			durs, cerr := o.sequentialClones(sess, sameImage(1))
			if cerr != nil {
				err = cerr
			} else {
				t.AddRow(v.label, durs[0])
			}
			sess.Close()
		}
		node.Close()
		server.Close()
		os.RemoveAll(blockDir)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RunAblationCacheGeometry sweeps the disk cache's block size and
// associativity, measuring a cold scan plus warm re-scan of a VM disk
// working set over the WAN.
func (o Options) RunAblationCacheGeometry() (*Table, error) {
	t := &Table{
		ID:      "ablation-geometry",
		Title:   "Cache geometry ablation: cold scan + warm re-scan over WAN (seconds)",
		Scale:   o.scale(),
		Columns: []string{"cold scan", "warm scan"},
	}
	type geo struct {
		label     string
		blockSize int
		assoc     int
	}
	for _, g := range []geo{
		{"4KB 16-way", 4096, 16},
		{"8KB 16-way", 8192, 16},
		{"16KB 16-way", 16384, 16},
		{"32KB 16-way", 32768, 16},
		{"8KB direct-mapped", 8192, 1},
	} {
		spec := o.benchVMSpec()
		fs := memfs.New()
		if err := vm.InstallImage(fs, "/vm", spec); err != nil {
			return nil, err
		}
		wan := simnet.NewLink(simnet.WAN())
		server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: !o.NoEncrypt})
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(o.WorkDir, "geo")
		if err != nil {
			server.Close()
			return nil, err
		}
		frames := int(1 << 30 / g.blockSize / int(o.scale()))
		banks := 16
		sets := frames / g.assoc / banks
		if sets < 2 {
			sets = 2
		}
		cfg := cache.Config{Dir: dir, Banks: banks, SetsPerBank: sets, Assoc: g.assoc,
			BlockSize: g.blockSize, Policy: cache.WriteThrough}
		node, err := stack.StartProxy(stack.ProxyOptions{
			UpstreamAddr: server.ProxyAddr(),
			UpstreamLink: wan,
			UpstreamKey:  server.Key,
			CacheConfig:  &cfg,
		})
		if err != nil {
			server.Close()
			return nil, err
		}
		sess, err := newBenchSessionBS(node.Addr, o, uint32(g.blockSize))
		if err != nil {
			node.Close()
			server.Close()
			return nil, err
		}
		scan := func() (time.Duration, error) {
			// Re-reads bypass the session page cache to isolate the
			// proxy cache.
			sess.DropCaches()
			return timeIt(func() error { return scanDisk(sess, "/vm", spec) })
		}
		cold, err := scan()
		if err == nil {
			var warm time.Duration
			warm, err = scan()
			if err == nil {
				t.AddRow(g.label, cold, warm)
			}
		}
		sess.Close()
		node.Close()
		server.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RunAblationTunnel measures the private-channel cost: a working-set
// scan over the WAN with and without SSH-style encryption.
func (o Options) RunAblationTunnel() (*Table, error) {
	t := &Table{
		ID:      "ablation-tunnel",
		Title:   "Tunnel ablation: WAN working-set scan (seconds)",
		Scale:   o.scale(),
		Columns: []string{"cold scan"},
	}
	for _, encrypted := range []bool{false, true} {
		spec := o.benchVMSpec()
		fs := memfs.New()
		if err := vm.InstallImage(fs, "/vm", spec); err != nil {
			return nil, err
		}
		opts := o
		opts.NoEncrypt = !encrypted
		dep, err := opts.deploy(fs, deployConfig{scenario: WAN})
		if err != nil {
			return nil, err
		}
		dur, err := timeIt(func() error { return scanDisk(dep.Session, "/vm", spec) })
		dep.Close()
		if err != nil {
			return nil, err
		}
		label := "plain"
		if encrypted {
			label = "tunneled"
		}
		t.AddRow(label, dur)
	}
	plain, _ := t.Value("plain", "cold scan")
	tun, _ := t.Value("tunneled", "cold scan")
	if plain > 0 {
		t.AddNote("encryption overhead: +%.1f%%", (tun-plain)/plain*100)
	}
	return t, nil
}

func newBenchSession(addr string, o Options) (*gvfs.Session, error) {
	return newBenchSessionBS(addr, o, 0)
}

func newBenchSessionBS(addr string, o Options, bs uint32) (*gvfs.Session, error) {
	return gvfs.Mount(gvfs.SessionConfig{
		Addr:           addr,
		Export:         "/",
		Cred:           benchCred(),
		PageCachePages: o.pagePages(),
		BlockSize:      bs,
	})
}

// scanDisk reads the working set of the image installed at dir — the
// first tenth of its disk — sequentially, one session block at a time.
func scanDisk(sess *gvfs.Session, dir string, spec vm.Spec) error {
	f, err := sess.Open(path.Join(dir, spec.DiskFile()))
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, sess.BlockSize())
	limit := int64(spec.DiskBytes / 10)
	for off := int64(0); off < limit; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil {
			return err
		}
	}
	return nil
}

// RunAblationReadAhead evaluates the future-work prefetching the paper
// proposes ("dynamic profiling of application data access behavior to
// support pre-fetching"): a sequential cold scan of the VM disk working
// set over the WAN, with read-ahead disabled versus enabled, by one VM and
// by six at once. Six VMs share the proxy's 16 read-ahead slots.
func (o Options) RunAblationReadAhead() (*Table, error) {
	t := &Table{
		ID:      "ablation-readahead",
		Title:   "Read-ahead ablation: sequential WAN working-set scan (seconds)",
		Scale:   o.scale(),
		Columns: []string{"cold scan", "6 streams"},
	}
	for _, ahead := range []int{0, 4, 16} {
		var row []time.Duration
		for _, streams := range []int{1, 6} {
			dur, err := o.readAheadScan(ahead, streams)
			if err != nil {
				return nil, err
			}
			row = append(row, dur)
		}
		label := "disabled"
		if ahead > 0 {
			label = fmt.Sprintf("read-ahead %d", ahead)
		}
		t.AddRow(label, row...)
	}
	for _, col := range t.Columns {
		off, _ := t.Value("disabled", col)
		on, _ := t.Value("read-ahead 16", col)
		if on > 0 {
			t.AddNote("%s: 16-block read-ahead speeds sequential cold scans %.1fx", col, off/on)
		}
	}
	return t, nil
}

// readAheadScan times streams concurrent cold scans, each of its own VM
// image, through one client proxy over the WAN with read-ahead depth
// ahead.
func (o Options) readAheadScan(ahead, streams int) (time.Duration, error) {
	spec := o.benchVMSpec()
	fs := memfs.New()
	for i := 0; i < streams; i++ {
		if err := vm.InstallImage(fs, fmt.Sprintf("/vm%d", i), spec); err != nil {
			return 0, err
		}
	}
	wan := simnet.NewLink(simnet.WAN())
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: !o.NoEncrypt})
	if err != nil {
		return 0, err
	}
	defer server.Close()
	dir, err := os.MkdirTemp(o.WorkDir, "ra")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg := o.cacheConfig(dir, cache.WriteBack)
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		UpstreamLink: wan,
		UpstreamKey:  server.Key,
		CacheConfig:  &cfg,
		ReadAhead:    ahead,
	})
	if err != nil {
		return 0, err
	}
	defer node.Close()
	sess, err := newBenchSession(node.Addr, o)
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	return timeIt(func() error {
		errs := make(chan error, streams)
		for i := 0; i < streams; i++ {
			go func(i int) { errs <- scanDisk(sess, fmt.Sprintf("/vm%d", i), spec) }(i)
		}
		var first error
		for i := 0; i < streams; i++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}
