package bench

import (
	"fmt"
	"path"
	"time"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/clone"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/vm"
)

// cloneVMSpec is the §4.3 VM: 320 MB of memory, 1.6 GB virtual disk.
func (o Options) cloneVMSpec(name string, seed int64) vm.Spec {
	return vm.Spec{
		Name:        name,
		MemoryBytes: uint64(320 << 20 / o.scale()),
		DiskBytes:   uint64(16 << 27 / o.scale()), // 1.6 GiB-ish (paper: 1.6 GB)
		Seed:        seed,
	}
}

// wanClone declares the WAN-S1/S2 chain over fs: the image server across
// the WAN and a compute server's proxy for cloning, with a write-back
// block cache, and meta-data handling with the file channel that fills
// it.
func (o Options) wanClone(fs *memfs.FS) stack.ChainSpec {
	return stack.ChainSpec{FS: fs, Link: simnet.NewLink(simnet.WAN()), Encrypt: !o.NoEncrypt, FileChan: true, Session: o.session(),
		Hops: []stack.ProxyOptions{{CacheConfig: o.cacheConfig(cache.WriteBack)}}}
}

// computeServer declares one more compute server on a running upstream:
// a clone proxy whose upstream and file channel up names.
func (o Options) computeServer(up stack.ProxyOptions) stack.ChainSpec {
	hop := up
	hop.CacheConfig = o.cacheConfig(cache.WriteBack)
	return stack.ChainSpec{Upstream: stack.Own, Hops: []stack.ProxyOptions{hop}, Session: o.session()}
}

// clones starts spec's chain, clones targets in order through its
// session into /clones/<prefix>N, and closes it.
func (o Options) clones(spec stack.ChainSpec, targets []cloneTarget, prefix string) ([]time.Duration, error) {
	c, err := o.start(spec)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return o.sequentialClones(c.Session(), targets, prefix)
}

// installImages writes n golden images (distinct specs) under /images.
func (o Options) installImages(fs *memfs.FS, n int) ([]vm.Spec, error) {
	specs := make([]vm.Spec, n)
	for i := 0; i < n; i++ {
		specs[i] = o.cloneVMSpec(fmt.Sprintf("img%d", i), int64(100+i))
		if err := vm.InstallImage(fs, fmt.Sprintf("/images/g%d", i), specs[i]); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// RunFig6 regenerates Figure 6: per-clone times for a sequence of 8
// VM images under Local, WAN-S1 (one image, temporal locality),
// WAN-S2 (eight distinct images) and WAN-S3 (second-level LAN cache),
// plus the SCP and non-enhanced-NFS baselines.
func (o Options) RunFig6() (*Table, error) {
	const n = 8
	t := &Table{
		ID:    "fig6",
		Title: "VM cloning times (seconds) for a sequence of 8 images",
		Scale: o.scale(),
	}
	for i := 1; i <= n; i++ {
		t.Columns = append(t.Columns, fmt.Sprintf("clone %d", i))
	}

	var scpBaseline, nfsBaseline time.Duration
	for _, arm := range []struct {
		label   string
		images  int
		targets []cloneTarget
	}{
		{"Local", 1, sameImage(n)},
		{"WAN-S1", 1, sameImage(n)},      // one image cloned eight times
		{"WAN-S2", n, distinctImages(n)}, // eight distinct images, no locality
	} {
		o.logf("fig6: %s", arm.label)
		fs := memfs.New()
		if _, err := o.installImages(fs, arm.images); err != nil {
			return nil, err
		}
		spec := o.wanClone(fs)
		if arm.label == "Local" {
			spec = o.scenario(Local, fs)
		}
		durs, err := o.clones(spec, arm.targets, "seq")
		if err != nil {
			return nil, err
		}
		t.AddRow(arm.label, durs...)
		if arm.label == "WAN-S2" {
			// Baselines over the same WAN profile, on fresh links.
			if scpBaseline, err = o.scpBaselineTime(fs); err != nil {
				return nil, err
			}
			if nfsBaseline, err = o.plainNFSBaseline(fs); err != nil {
				return nil, err
			}
		}
	}

	// WAN-S3: eight distinct images through a warm LAN cache.
	o.logf("fig6: WAN-S3")
	durs, err := o.runS3(n)
	if err != nil {
		return nil, err
	}
	t.AddRow("WAN-S3", durs...)

	t.AddNote("SCP full-image copy baseline: %.2f s (paper: 1127 s)", scpBaseline.Seconds())
	t.AddNote("non-enhanced NFS clone baseline: %.2f s (paper: 2060 s)", nfsBaseline.Seconds())
	return t, nil
}

// cloneTarget names one cloning in a sequence.
type cloneTarget struct {
	golden string
	name   string
}

func sameImage(n int) []cloneTarget {
	out := make([]cloneTarget, n)
	for i := range out {
		out[i] = cloneTarget{golden: "/images/g0", name: "img0"}
	}
	return out
}

func distinctImages(n int) []cloneTarget {
	out := make([]cloneTarget, n)
	for i := range out {
		out[i] = cloneTarget{golden: fmt.Sprintf("/images/g%d", i), name: fmt.Sprintf("img%d", i)}
	}
	return out
}

// sequentialClones clones each target in order into /clones/<prefix>N,
// timing each.
func (o Options) sequentialClones(sess *gvfs.Session, targets []cloneTarget, prefix string) ([]time.Duration, error) {
	durs := make([]time.Duration, len(targets))
	for i, tgt := range targets {
		res, err := clone.Clone(sess, clone.Options{
			GoldenDir: tgt.golden,
			CloneDir:  fmt.Sprintf("/clones/%s%d", prefix, i),
			Name:      tgt.name,
			User:      fmt.Sprintf("user%d", i),
		})
		if err != nil {
			return nil, fmt.Errorf("clone %d: %w", i, err)
		}
		durs[i] = res.Duration
	}
	return durs, nil
}

// scpBaselineTime copies one full image over a fresh WAN link, through
// the plain file channel of an image server of its own.
func (o Options) scpBaselineTime(fs *memfs.FS) (time.Duration, error) {
	wan := simnet.NewLink(simnet.WAN())
	c, err := o.start(stack.ChainSpec{FS: fs, Link: wan, NoSession: true})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	_, dur, err := clone.SCPCopy(stack.Dialer(c.Server.FileChanAddr(), wan, nil), "/images/g0", "img0")
	return dur, err
}

// plainNFSBaseline resumes a VM over a WAN NFS mount with no GVFS
// support at all (paper: 2060 s).
func (o Options) plainNFSBaseline(fs *memfs.FS) (time.Duration, error) {
	c, err := o.start(stack.ChainSpec{Upstream: stack.NFS, FS: fs, Link: simnet.NewLink(simnet.WAN()), Session: o.session()})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return clone.PlainNFSResume(c.Session(), "/images/g0", "img0")
}

// runS3 builds the WAN-S3 topology: image server across the WAN, a
// LAN cache server (a second-level caching proxy, and the file-channel
// relay that serves through it) and a compute server on the LAN. The
// LAN cache is warmed by a prior compute server's clonings, then a fresh
// compute server measures.
func (o Options) runS3(n int) ([]time.Duration, error) {
	fs := memfs.New()
	if _, err := o.installImages(fs, n); err != nil {
		return nil, err
	}
	wan := simnet.NewLink(simnet.WAN())
	lan := simnet.NewLink(simnet.LAN())
	// LAN cache server: second-level proxy disk cache (write-through;
	// it caches read traffic for many compute servers) + file relay.
	lanCache, err := o.start(stack.ChainSpec{FS: fs, Link: wan, Encrypt: !o.NoEncrypt, FileChan: true, NoSession: true,
		Hops: []stack.ProxyOptions{{CacheConfig: o.cacheConfig(cache.WriteThrough), ListenLink: lan}}})
	if err != nil {
		return nil, err
	}
	defer lanCache.Close()
	server := lanCache.Server
	relay, err := stack.StartFileChanRelay(lanCache.Hop(),
		stack.Dialer(server.FileChanAddr(), wan, server.Key), lan, nil)
	if err != nil {
		return nil, err
	}
	defer relay.Close()
	up := stack.ProxyOptions{UpstreamAddr: lanCache.Hop().Addr, UpstreamLink: lan, FileChanAddr: relay.Addr, FileChanLink: lan}

	// Warm-up: a different compute server in the same LAN clones the
	// images first ("pre-cached on the LAN server due to previous
	// clones for other computer servers in the same LAN").
	if _, err := o.clones(o.computeServer(up), distinctImages(n), "seq"); err != nil {
		return nil, err
	}
	// Measurement: a fresh compute server; images are new to it but
	// warm at the LAN level.
	return o.clones(o.computeServer(up), distinctImages(n), "s3m")
}

// RunTable1 regenerates Table 1: total time to clone eight VM images
// sequentially (WAN-S1, one compute server after another) versus in
// parallel (WAN-P, eight compute servers sharing one image server and
// server-side proxy), with cold and warm caches.
func (o Options) RunTable1() (*Table, error) {
	const n = 8
	t := &Table{
		ID:      "table1",
		Title:   "Total time to clone 8 VM images (seconds)",
		Scale:   o.scale(),
		Columns: []string{"cold caches", "warm caches"},
	}

	fs := memfs.New()
	if _, err := o.installImages(fs, 1); err != nil {
		return nil, err
	}
	wan := simnet.NewLink(simnet.WAN())
	origin, err := o.start(stack.ChainSpec{FS: fs, Link: wan, Encrypt: !o.NoEncrypt, NoSession: true})
	if err != nil {
		return nil, err
	}
	defer origin.Close()
	server := origin.Server
	up := stack.ProxyOptions{UpstreamAddr: server.ProxyAddr(), UpstreamLink: wan, UpstreamKey: server.Key,
		FileChanAddr: server.FileChanAddr(), FileChanLink: wan, FileChanKey: server.Key}

	// Eight compute servers, each with its own proxy and session.
	var computes []*stack.Chain
	closeComputes := func() {
		for _, c := range computes {
			c.Close()
		}
		computes = nil
	}
	defer closeComputes()
	startComputes := func() error {
		for i := 0; i < n; i++ {
			c, err := o.start(o.computeServer(up))
			if err != nil {
				return err
			}
			computes = append(computes, c)
		}
		return nil
	}
	if err := startComputes(); err != nil {
		return nil, err
	}

	runSeq := func(pass string) (time.Duration, error) {
		return timeIt(func() error {
			for i, c := range computes {
				_, err := clone.Clone(c.Session(), clone.Options{
					GoldenDir: "/images/g0",
					CloneDir:  fmt.Sprintf("/clones/t1-%s-seq%d", pass, i),
					Name:      "img0",
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	runPar := func(pass string) (time.Duration, error) {
		sessions := make([]*gvfs.Session, n)
		opts := make([]clone.Options, n)
		for i, c := range computes {
			sessions[i] = c.Session()
			opts[i] = clone.Options{
				GoldenDir: "/images/g0",
				CloneDir:  fmt.Sprintf("/clones/t1-%s-par%d", pass, i),
				Name:      "img0",
			}
		}
		return timeIt(func() error {
			_, err := clone.Parallel(sessions, opts)
			return err
		})
	}

	o.logf("table1: WAN-S1 cold")
	seqCold, err := runSeq("cold")
	if err != nil {
		return nil, err
	}
	o.logf("table1: WAN-S1 warm")
	seqWarm, err := runSeq("warm")
	if err != nil {
		return nil, err
	}
	t.AddRow("WAN-S1 (sequential)", seqCold, seqWarm)

	// Parallel pass: fresh compute servers so the cold numbers are
	// genuinely cold.
	closeComputes()
	if err := startComputes(); err != nil {
		return nil, err
	}
	o.logf("table1: WAN-P cold")
	parCold, err := runPar("cold")
	if err != nil {
		return nil, err
	}
	o.logf("table1: WAN-P warm")
	parWarm, err := runPar("warm")
	if err != nil {
		return nil, err
	}
	t.AddRow("WAN-P (parallel)", parCold, parWarm)

	if parCold > 0 {
		t.AddNote("parallel speedup, cold: %.1fx (paper: >7x)", seqCold.Seconds()/parCold.Seconds())
	}
	if parWarm > 0 {
		t.AddNote("parallel speedup, warm: %.1fx (paper: >6x)", seqWarm.Seconds()/parWarm.Seconds())
	}
	return t, nil
}

// RunZeroFilter regenerates the in-text zero-block filtering result:
// resuming a 512 MB post-boot memory state issues 65,750 client reads
// of which 60,452 are satisfied locally from the zero map.
func (o Options) RunZeroFilter() (*Table, error) {
	t := &Table{
		ID:      "zerofilter",
		Title:   "Zero-block filtering of memory-state reads (counts)",
		Scale:   o.scale(),
		Columns: []string{"client reads", "filtered", "forwarded"},
	}
	spec := vm.Spec{
		Name:        "rh73",
		MemoryBytes: uint64(512 << 20 / o.scale()),
		DiskBytes:   uint64(64 << 20 / o.scale()),
		Seed:        9,
	}
	fs := memfs.New()
	mem := spec.GenerateMemState()
	if err := fs.WriteFile("/vm/"+spec.MemStateFile(), mem); err != nil {
		return nil, err
	}
	// Zero map only — no file-channel actions, so every read flows
	// through the proxy's filter.
	m := meta.GenerateZeroMap(mem, 8192)
	blob, err := m.Encode()
	if err != nil {
		return nil, err
	}
	if err := fs.WriteFile("/vm/"+meta.NameFor(spec.MemStateFile()), blob); err != nil {
		return nil, err
	}
	c, err := o.start(o.scenario(WANC, fs))
	if err != nil {
		return nil, err
	}
	defer c.Close()

	f, err := c.Session().Open(path.Join("/vm", spec.MemStateFile()))
	if err != nil {
		return nil, err
	}
	buf := make([]byte, c.Session().BlockSize())
	reads := 0
	for off := int64(0); off < int64(len(mem)); off += int64(len(buf)) {
		if _, err := f.ReadAt(buf[:min(int64(len(buf)), int64(len(mem))-off)], off); err != nil {
			return nil, err
		}
		reads++
	}
	f.Close()
	st := c.Hop().Proxy.Snapshot()
	zeroFiltered := st.Counter("gvfs_proxy_zero_filtered_total")
	readMisses := st.Counter("gvfs_proxy_read_misses_total")
	t.Rows = append(t.Rows, Row{Label: "this run", Values: []float64{
		float64(reads), float64(zeroFiltered), float64(readMisses),
	}})
	t.Rows = append(t.Rows, Row{Label: "paper (512MB)", Values: []float64{65750, 60452, 65750 - 60452}})
	t.AddNote("filtered fraction: %.1f%% (paper: %.1f%%)",
		float64(zeroFiltered)/float64(reads)*100, 60452.0/65750*100)
	return t, nil
}
