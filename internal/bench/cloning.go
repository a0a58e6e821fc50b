package bench

import (
	"fmt"
	"os"
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

// cloneChain is a compute server's proxy for cloning: block cache,
// meta-data handling and the file channel that fills the block cache.
func (o Options) cloneChain(fileChanAddr string, fileChanLink *simnet.Link, fileChanKey []byte,
	upstreamAddr string, upstreamLink *simnet.Link, upstreamKey []byte) (*stack.Node, *gvfs.Session, error) {

	blockDir, err := os.MkdirTemp(o.WorkDir, "clone-block")
	if err != nil {
		return nil, nil, err
	}
	cfg := o.cacheConfig(blockDir, cache.WriteBack)
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: upstreamAddr,
		UpstreamLink: upstreamLink,
		UpstreamKey:  upstreamKey,
		CacheConfig:  &cfg,
		FileChanAddr: fileChanAddr,
		FileChanLink: fileChanLink,
		FileChanKey:  fileChanKey,
	})
	if err != nil {
		return nil, nil, err
	}
	sess, err := gvfs.Mount(gvfs.SessionConfig{
		Addr: node.Addr, Export: "/", Cred: benchCred(), PageCachePages: o.pagePages(),
	})
	if err != nil {
		node.Close()
		os.RemoveAll(blockDir)
		return nil, nil, err
	}
	node.AddCleanup(func() { os.RemoveAll(blockDir) })
	return node, sess, nil
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

	// --- Local ---
	o.logf("fig6: Local")
	{
		fs := memfs.New()
		if _, err := o.installImages(fs, 1); err != nil {
			return nil, err
		}
		dep, err := o.deploy(fs, deployConfig{scenario: Local})
		if err != nil {
			return nil, err
		}
		durs, err := o.sequentialClones(dep.Session, sameImage(n))
		dep.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow("Local", durs...)
	}

	// --- WAN-S1: one image cloned eight times ---
	o.logf("fig6: WAN-S1")
	{
		fs := memfs.New()
		if _, err := o.installImages(fs, 1); err != nil {
			return nil, err
		}
		wan := simnet.NewLink(simnet.WAN())
		server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: !o.NoEncrypt})
		if err != nil {
			return nil, err
		}
		node, sess, err := o.cloneChain(server.FileChanAddr(), wan, server.Key,
			server.ProxyAddr(), wan, server.Key)
		if err != nil {
			server.Close()
			return nil, err
		}
		durs, err := o.sequentialClones(sess, sameImage(n))
		sess.Close()
		node.Close()
		server.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow("WAN-S1", durs...)
	}

	// --- WAN-S2: eight distinct images, no locality ---
	o.logf("fig6: WAN-S2")
	var scpBaseline, nfsBaseline time.Duration
	{
		fs := memfs.New()
		if _, err := o.installImages(fs, n); err != nil {
			return nil, err
		}
		wan := simnet.NewLink(simnet.WAN())
		server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: !o.NoEncrypt})
		if err != nil {
			return nil, err
		}
		node, sess, err := o.cloneChain(server.FileChanAddr(), wan, server.Key,
			server.ProxyAddr(), wan, server.Key)
		if err != nil {
			server.Close()
			return nil, err
		}
		durs, err := o.sequentialClones(sess, distinctImages(n))
		if err == nil {
			// Baselines over the same WAN profile (fresh links so the
			// measurements don't queue behind each other).
			scpBaseline, err = o.scpBaselineTime(fs)
			if err == nil {
				nfsBaseline, err = o.plainNFSBaseline(fs)
			}
		}
		sess.Close()
		node.Close()
		server.Close()
		if err != nil {
			return nil, err
		}
		t.AddRow("WAN-S2", durs...)
	}

	// --- WAN-S3: eight distinct images through a warm LAN cache ---
	o.logf("fig6: WAN-S3")
	{
		durs, err := o.runS3(n)
		if err != nil {
			return nil, err
		}
		t.AddRow("WAN-S3", durs...)
	}

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

// sequentialClones clones each target in order, timing each.
func (o Options) sequentialClones(sess *gvfs.Session, targets []cloneTarget) ([]time.Duration, error) {
	durs := make([]time.Duration, len(targets))
	for i, tgt := range targets {
		res, err := clone.Clone(sess, clone.Options{
			GoldenDir: tgt.golden,
			CloneDir:  fmt.Sprintf("/clones/seq%d", i),
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

// scpBaselineTime copies one full image over a fresh WAN link.
func (o Options) scpBaselineTime(fs *memfs.FS) (time.Duration, error) {
	wan := simnet.NewLink(simnet.WAN())
	fcNode, err := stack.StartFileChanServer(fs, wan, nil)
	if err != nil {
		return 0, err
	}
	defer fcNode.Close()
	_, dur, err := clone.SCPCopy(stack.Dialer(fcNode.Addr, wan, nil), "/images/g0", "img0")
	return dur, err
}

// plainNFSBaseline resumes a VM over a WAN NFS mount with no GVFS
// support at all (paper: 2060 s).
func (o Options) plainNFSBaseline(fs *memfs.FS) (time.Duration, error) {
	wan := simnet.NewLink(simnet.WAN())
	node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{ListenLink: wan})
	if err != nil {
		return 0, err
	}
	defer node.Close()
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/", Cred: benchCred(), PageCachePages: o.pagePages()})
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	return clone.PlainNFSResume(sess, "/images/g0", "img0")
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
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: !o.NoEncrypt})
	if err != nil {
		return nil, err
	}
	defer server.Close()

	// LAN cache server: second-level proxy disk cache (write-through;
	// it caches read traffic for many compute servers) + file relay.
	lanBlockDir, err := os.MkdirTemp(o.WorkDir, "lan-block")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(lanBlockDir)
	lanCfg := o.cacheConfig(lanBlockDir, cache.WriteThrough)
	lanProxy, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		UpstreamLink: wan,
		UpstreamKey:  server.Key,
		CacheConfig:  &lanCfg,
		ListenLink:   lan,
		FileChanAddr: server.FileChanAddr(),
		FileChanLink: wan,
		FileChanKey:  server.Key,
	})
	if err != nil {
		return nil, err
	}
	defer lanProxy.Close()
	relay, err := stack.StartFileChanRelay(lanProxy,
		stack.Dialer(server.FileChanAddr(), wan, server.Key), lan, nil)
	if err != nil {
		return nil, err
	}
	defer relay.Close()

	computeServer := func() (*stack.Node, *gvfs.Session, error) {
		return o.cloneChain(relay.Addr, lan, nil, lanProxy.Addr, lan, nil)
	}

	// Warm-up: a different compute server in the same LAN clones the
	// images first ("pre-cached on the LAN server due to previous
	// clones for other computer servers in the same LAN").
	warmNode, warmSess, err := computeServer()
	if err != nil {
		return nil, err
	}
	if _, err := o.sequentialClones(warmSess, distinctImages(n)); err != nil {
		warmSess.Close()
		warmNode.Close()
		return nil, err
	}
	warmSess.Close()
	warmNode.Close()

	// Measurement: a fresh compute server; images are new to it but
	// warm at the LAN level.
	node, sess, err := computeServer()
	if err != nil {
		return nil, err
	}
	defer node.Close()
	defer sess.Close()
	targets := distinctImages(n)
	durs := make([]time.Duration, n)
	for i, tgt := range targets {
		res, err := clone.Clone(sess, clone.Options{
			GoldenDir: tgt.golden,
			CloneDir:  fmt.Sprintf("/clones/s3m%d", i),
			Name:      tgt.name,
		})
		if err != nil {
			return nil, err
		}
		durs[i] = res.Duration
	}
	return durs, nil
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
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: !o.NoEncrypt})
	if err != nil {
		return nil, err
	}
	defer server.Close()

	// Eight compute servers, each with its own proxy and session.
	type computeNode struct {
		node *stack.Node
		sess *gvfs.Session
	}
	nodes := make([]computeNode, n)
	for i := range nodes {
		node, sess, err := o.cloneChain(server.FileChanAddr(), wan, server.Key,
			server.ProxyAddr(), wan, server.Key)
		if err != nil {
			return nil, err
		}
		defer node.Close()
		defer sess.Close()
		nodes[i] = computeNode{node: node, sess: sess}
	}

	runSeq := func(pass string) (time.Duration, error) {
		return timeIt(func() error {
			for i, cn := range nodes {
				_, err := clone.Clone(cn.sess, clone.Options{
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
		for i, cn := range nodes {
			sessions[i] = cn.sess
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
	for i := range nodes {
		nodes[i].sess.Close()
		nodes[i].node.Close()
		node, sess, err := o.cloneChain(server.FileChanAddr(), wan, server.Key,
			server.ProxyAddr(), wan, server.Key)
		if err != nil {
			return nil, err
		}
		defer node.Close()
		defer sess.Close()
		nodes[i] = computeNode{node: node, sess: sess}
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
	dep, err := o.deploy(fs, deployConfig{scenario: WAN, blockCache: true, policy: cache.WriteBack})
	if err != nil {
		return nil, err
	}
	defer dep.Close()

	f, err := dep.Session.Open(path.Join("/vm", spec.MemStateFile()))
	if err != nil {
		return nil, err
	}
	buf := make([]byte, dep.Session.BlockSize())
	reads := 0
	for off := int64(0); off < int64(len(mem)); off += int64(len(buf)) {
		if _, err := f.ReadAt(buf[:min(int64(len(buf)), int64(len(mem))-off)], off); err != nil {
			return nil, err
		}
		reads++
	}
	f.Close()
	st := dep.ClientProxy.Proxy.Snapshot()
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

func min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
