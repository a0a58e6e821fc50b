package bench

import (
	"fmt"
	"path"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
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
		writeDur, flushDur, err := o.tracePolicy(policy)
		if err != nil {
			return nil, err
		}
		t.AddRow(policy.String(), writeDur, flushDur, writeDur+flushDur)
	}
	wt, _ := t.Value("write-through", "write time")
	wb, _ := t.Value("write-back", "write time")
	if wb > 0 {
		t.AddNote("write-back hides %.1fx of perceived write latency", wt/wb)
	}
	return t, nil
}

// tracePolicy times the trace write through a WAN+C chain whose cache
// has policy, and the flush after it.
func (o Options) tracePolicy(policy cache.Policy) (write, flush time.Duration, err error) {
	spec := o.benchVMSpec()
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/vm", spec); err != nil {
		return 0, 0, err
	}
	chain := o.scenario(WANC, fs)
	chain.Hops[0].CacheConfig = o.cacheConfig(policy)
	c, err := o.start(chain)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	disk, err := c.Session().Open(path.Join("/vm", spec.DiskFile()))
	if err != nil {
		return 0, 0, err
	}
	guest, err := workload.NewGuestFS(disk, spec.DiskBytes, c.Session().BlockSize(), nil)
	if err != nil {
		return 0, 0, err
	}
	params := workload.Params{Scale: o.scale()}
	if write, err = timeIt(func() error {
		return guest.WriteFile("work/trace", params.ScaledSize(112<<20))
	}); err != nil {
		return 0, 0, err
	}
	flush, err = timeIt(c.Hop().Proxy.WriteBack)
	return write, flush, err
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
		durs, err := o.clones(o.wanClone(fs), sameImage(1), "seq")
		if err != nil {
			return nil, err
		}
		t.AddRow(v.label, durs[0])
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
		frames := int(1 << 30 / g.blockSize / int(o.scale()))
		banks := 16
		sets := frames / g.assoc / banks
		if sets < 2 {
			sets = 2
		}
		chain := o.scenario(WAN, fs)
		chain.Hops[0].CacheConfig = &cache.Config{Banks: banks, SetsPerBank: sets, Assoc: g.assoc,
			BlockSize: g.blockSize, Policy: cache.WriteThrough}
		chain.Session.BlockSize = uint32(g.blockSize)
		c, err := o.start(chain)
		if err != nil {
			return nil, err
		}
		scan := func() (time.Duration, error) {
			// Re-reads bypass the session page cache to isolate the
			// proxy cache.
			c.Session().DropCaches()
			return timeIt(func() error { return scanDisk(c.Session(), "/vm", spec) })
		}
		cold, err := scan()
		if err == nil {
			var warm time.Duration
			warm, err = scan()
			t.AddRow(g.label, cold, warm)
		}
		c.Close()
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RunAblationTunnel measures the private-channel cost: a working-set
// scan over the WAN with and without the SSH-style tunnel, which
// encrypts every frame and, as the link holds its writer back, deflates
// those that compress (the scanned disk pages do).
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
		c, err := opts.start(opts.scenario(WAN, fs))
		if err != nil {
			return nil, err
		}
		dur, err := timeIt(func() error { return scanDisk(c.Session(), "/vm", spec) })
		c.Close()
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
		t.AddNote("tunnel overhead (encryption, less what deflation saves): %+.1f%%", (tun-plain)/plain*100)
	}
	return t, nil
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
	chain := o.scenario(WANC, fs)
	chain.Hops[0].ReadAhead = ahead
	c, err := o.start(chain)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	sess := c.Session()
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
