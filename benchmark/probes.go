package main

// Layer probes: each times one layer's public functions in isolation,
// from outside the package, so a later change to that layer has a
// number of its own that moves before (or without) an end-to-end one.
// All probes use 8 KiB payloads like the workloads.

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/backend/objstore"
	"gvfs/internal/backend/replbe"
	"gvfs/internal/bufpool"
	"gvfs/internal/cache"
	"gvfs/internal/cachean"
	"gvfs/internal/filecache"
	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/pagecache"
	"gvfs/internal/qos"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
	"gvfs/internal/tunnel"
	"gvfs/internal/vm"
)

// probeShare is the part of -seconds a traced run spends on probes.
const probeShare = 0.35

// probeLoops is the number of timed loops the probe time is divided
// over: warm_hit's traced run, which has the most, runs eleven.
const probeLoops = 11

// probes lists the layer probes each workload's traced run executes.
// Every probe runs in one workload only: the one on which its layer
// does the work and whose end-to-end metrics it should therefore move
// (the "should move" column of the README). Elsewhere its metric reads
// 0, like any other layer metric of an idle layer.
var probes = map[string][]func(*prober) error{
	"warm_hit":    {(*prober).xdrRead, (*prober).sunrpc, (*prober).cacheHit, (*prober).hotPath},
	"cold_scan":   {(*prober).tunnel, (*prober).originRead, (*prober).cacheEvict, (*prober).backendReads},
	"write_flush": {(*prober).xdrWrite, (*prober).originWrite, (*prober).cacheDirty, (*prober).backendWrites},
	"wan_clone":   {(*prober).pagecache, (*prober).meta},
}

type prober struct {
	cfg    config
	m      metrics
	budget time.Duration // per timed loop
	block  []byte        // one seeded 8 KiB payload
}

func runProbes(cfg config, m metrics) error {
	p := &prober{cfg: cfg, m: m,
		budget: time.Duration(probeShare * cfg.seconds / probeLoops * float64(time.Second)),
		block:  genImage(cfg.seed, 900, blockSize)}
	for _, probe := range probes[cfg.workload] {
		if err := guarded(func() error { return probe(p) }); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

// probeError carries a failure out of a timed closure: must panics with
// it and guarded turns it back into the probe's error.
type probeError struct{ err error }

func must(err error) {
	if err != nil {
		panic(probeError{err})
	}
}

func guarded(run func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(probeError)
			if !ok {
				panic(r)
			}
			err = pe.err
		}
	}()
	return run()
}

// perCall runs fn in batches for about the probe budget and returns the
// median batch's nanoseconds per call.
func (p *prober) perCall(fn func()) float64 {
	n := 1
	for { // grow the batch until it lasts about 2 ms (or a quarter of the budget)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(t0); d >= 2*time.Millisecond || d >= p.budget/4 || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var perCall []float64
	for start := time.Now(); len(perCall) < 3 || time.Since(start) < p.budget; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(perCall)
}

func (p *prober) ns(name string, fn func()) { p.m.put(name, p.perCall(fn)) }
func (p *prober) us(name string, fn func()) { p.m.put(name, p.perCall(fn)/1e3) }

func (p *prober) xdrRead() error {
	attr := nfs3.Fattr{Type: nfs3.TypeReg, Mode: 0644, Size: 32 << 20}
	res := nfs3.ReadRes{Status: nfs3.OK, Attr: &attr, Count: blockSize, Data: p.block}
	dst := make([]byte, 0, nfs3.ReadResSize(blockSize))
	p.ns("xdr.read3res_encode_ns", func() { dst = res.AppendTo(dst[:0]) })
	encoded := res.Encode()
	var r nfs3.ReadRes
	var err error
	p.ns("xdr.read3res_decode_ns", func() { err = r.DecodeRefInto(encoded) })
	return err
}

func (p *prober) xdrWrite() error {
	wargs := (&nfs3.WriteArgs{FH: nfs3.FH("benchmark-fh-0123"), Count: blockSize, Stable: nfs3.Unstable, Data: p.block}).Encode()
	var a nfs3.WriteArgs
	var err error
	p.ns("xdr.write3args_decode_ns", func() { err = a.DecodeRefInto(wargs) })
	return err
}

func (p *prober) sunrpc() error {
	rig, err := newEchoRig()
	if err != nil {
		return err
	}
	defer rig.Close()
	if _, err := rig.run(p.budget / 2); err != nil { // warm the connections
		return err
	}
	e, err := rig.run(2 * p.budget)
	if err != nil {
		return err
	}
	p.m.put("sunrpc.echo_ops_per_s", e.opsPerS)
	p.m.put("sunrpc.echo_rtt_p50_us", e.p50us)
	p.m.put("sunrpc.echo_allocs_per_op", e.allocsPerOp)
	return nil
}

// tunnelPair is a tunnel client and server joined over loopback TCP.
func tunnelPair() (cli, srv *tunnel.Conn, err error) {
	key, err := tunnel.NewKey()
	if err != nil {
		return nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	type accepted struct {
		c   *tunnel.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			ch <- accepted{err: err}
			return
		}
		c, err := tunnel.Server(raw, key)
		ch <- accepted{c, err}
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	if cli, err = tunnel.Client(raw, key); err != nil {
		raw.Close()
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		cli.Close()
		return nil, nil, a.err
	}
	return cli, a.c, nil
}

func (p *prober) tunnel() error {
	cli, srv, err := tunnelPair()
	if err != nil {
		return err
	}
	defer cli.Close()
	defer srv.Close()

	// Echo: a small request answered by an 8 KiB reply, like a READ.
	go func() {
		req := make([]byte, 128)
		for {
			if _, err := io.ReadFull(srv, req); err != nil {
				return
			}
			if req[0] == 1 { // switch to sink mode for the stream probe
				io.Copy(io.Discard, srv)
				return
			}
			if _, err := srv.Write(p.block); err != nil {
				return
			}
		}
	}()
	req := make([]byte, 128)
	reply := make([]byte, blockSize)
	var lats []int64
	p.perCall(func() {
		t0 := time.Now()
		_, werr := cli.Write(req)
		must(werr)
		_, rerr := io.ReadFull(cli, reply)
		must(rerr)
		lats = append(lats, time.Since(t0).Nanoseconds())
	})
	sortInt64(lats)
	p.m.put("tunnel.echo_rtt_p50_us", percentileUs(lats, 0.50))

	// Stream: seal, send, receive and open 64 KiB writes one way.
	req[0] = 1
	if _, err := cli.Write(req); err != nil {
		return err
	}
	chunk := genImage(p.cfg.seed, 901, 64<<10)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	f0 := tunnel.ReadStats()
	t0 := time.Now()
	var sent float64
	for time.Since(t0) < 2*p.budget {
		if _, err := cli.Write(chunk); err != nil {
			return err
		}
		sent += float64(len(chunk))
	}
	elapsed := time.Since(t0).Seconds()
	f1 := tunnel.ReadStats()
	runtime.ReadMemStats(&ms1)
	p.m.put("tunnel.stream_mib_per_s", sent/mib/elapsed)
	p.m.put("tunnel.allocs_per_frame", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(f1.TxFrames-f0.TxFrames)))
	return nil
}

// probeFS is a memfs with one seeded 8 MiB file.
func (p *prober) probeFS() (*memfs.FS, nfs3.FH, error) {
	fs := memfs.New()
	if err := fs.WriteFile("/probe.img", genImage(p.cfg.seed, 902, 8*mib)); err != nil {
		return nil, nil, err
	}
	fh, err := fs.LookupPath("/probe.img")
	return fs, fh, err
}

const probeBlocks = 8 * mib / blockSize

// originRead is what a READ costs at the origin: the file system alone,
// then under the NFS server's dispatch.
func (p *prober) originRead() error {
	fs, fh, err := p.probeFS()
	if err != nil {
		return err
	}
	r := newRNG(p.cfg.seed, 903)
	p.us("memfs.read_us", func() {
		_, _, err := fs.Read(fh, uint64(r.intn(probeBlocks))*blockSize, blockSize)
		must(err)
	})
	srv := nfs3.NewServer(fs)
	call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcRead}
	p.us("nfs3.server_read_us", func() {
		call.Args = (&nfs3.ReadArgs{FH: fh, Offset: uint64(r.intn(probeBlocks)) * blockSize, Count: blockSize}).Encode()
		if _, stat := srv.HandleCall(call); stat != sunrpc.Success {
			must(fmt.Errorf("nfs3 server READ: %v", stat))
		}
	})
	return nil
}

func (p *prober) originWrite() error {
	fs, fh, err := p.probeFS()
	if err != nil {
		return err
	}
	r := newRNG(p.cfg.seed, 903)
	p.us("memfs.write_us", func() {
		_, err := fs.Write(fh, uint64(r.intn(probeBlocks))*blockSize, p.block)
		must(err)
	})
	return nil
}

// newCache opens a block cache the way the proxies' flag defaults do
// (write-back, journal on, group-commit fsync) with the given geometry.
func newCache(dir string, banks, sets int) (*cache.Cache, error) {
	return cache.New(cache.Config{Dir: dir, Banks: banks, SetsPerBank: sets, Assoc: 16, BlockSize: blockSize,
		Policy: cache.WriteBack, Journal: true, JournalSync: cache.SyncBatch})
}

var probeFH = nfs3.FH("benchmark-probe-file")

func (p *prober) cacheDir(name string) string { return filepath.Join(p.cfg.workdir, "probe-"+name) }

// cacheHit: 1024 resident clean blocks in 4096 frames.
func (p *prober) cacheHit() error {
	c, err := newCache(p.cacheDir("hit"), 4, 64)
	if err != nil {
		return err
	}
	defer c.Close()
	for b := uint64(0); b < 1024; b++ {
		must(c.Put(probeFH, b, p.block, false))
	}
	r := newRNG(p.cfg.seed, 904)
	dst := make([]byte, blockSize)
	p.us("cache.get_hit_us", func() {
		if _, ok := c.GetInto(probeFH, uint64(r.intn(1024)), dst); !ok {
			must(fmt.Errorf("resident block missed"))
		}
	})
	return nil
}

// cacheEvict: clean inserts into a full 64-frame cache, so every Put evicts.
func (p *prober) cacheEvict() error {
	c, err := newCache(p.cacheDir("evict"), 1, 4)
	if err != nil {
		return err
	}
	defer c.Close()
	next := uint64(0)
	p.us("cache.put_clean_evict_us", func() {
		must(c.Put(probeFH, next, p.block, false))
		next++
	})
	return nil
}

// cacheDirty: the journaled dirty Put on the work directory and on a
// real disk, then the flush pipeline with a no-op write-back.
func (p *prober) cacheDirty() error {
	r := newRNG(p.cfg.seed, 904)
	putDirty := func(name, dir string) error {
		c, err := newCache(dir, 4, 64)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		defer c.Close()
		c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error { return nil })
		p.us(name, func() { must(c.Put(probeFH, uint64(r.intn(1024)), p.block, true)) })
		return nil
	}
	if err := putDirty("cache.put_dirty_us", p.cacheDir("dirty")); err != nil {
		return err
	}
	// Informational: the same Put with the journal on whatever device
	// holds the checkout. A read-only checkout leaves it 0.
	if os.MkdirAll(".bench_build", 0o755) == nil {
		if disk, derr := os.MkdirTemp(".bench_build", "diskprobe-"); derr == nil {
			if err := putDirty("cache.put_dirty_disk_us", disk); err != nil {
				return err
			}
		}
	}

	c, err := newCache(p.cacheDir("flush"), 4, 64)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error { return nil })
	var rates []float64 // MiB/s of each pass of 2048 dirty blocks
	for start := time.Now(); len(rates) < 3 || time.Since(start) < 2*p.budget; {
		for b := uint64(0); b < 2048; b++ {
			must(c.Put(probeFH, b, p.block, true))
		}
		t0 := time.Now()
		must(c.Flush())
		rates = append(rates, 2048*blockSize/mib/time.Since(t0).Seconds())
	}
	p.m.put("cache.flush_mib_per_s", median(rates))
	return nil
}

// hotPath covers the layers a warm READ crosses whose unit of work is
// tens of nanoseconds.
func (p *prober) hotPath() error {
	p.ns("bufpool.get_put_ns", func() { bufpool.Put(bufpool.Get(blockSize)) })

	sched := qos.New(qos.Config{})
	defer sched.Close()
	admit := func(tenant string) {
		release, err := sched.Admit(tenant, blockSize, time.Time{})
		must(err)
		release()
	}
	p.ns("qos.admit_ns", func() { admit("a") })
	// Contended: a second tenant admits in a tight loop meanwhile.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if release, err := sched.Admit("b", blockSize, time.Time{}); err == nil {
				release()
			}
		}
	}()
	p.ns("qos.admit_contended_ns", func() { admit("a") })
	close(stop)
	wg.Wait()

	tracer := obs.NewTracer(1024)
	p.ns("obs.span_ns", func() {
		a := tracer.Start(1, 0, "READ")
		a.Span(obs.LayerBlockCache, "hit", time.Now())
		a.Finish()
	})

	an := cachean.New(cachean.Config{CapacityBytes: 64 * mib})
	defer an.Close()
	r := newRNG(p.cfg.seed, 905)
	p.ns("cachean.tap_ns", func() { an.CacheLookup(probeFH, uint64(r.intn(8192)), cache.LookupHit) })
	return nil
}

func (p *prober) pagecache() error {
	pc := pagecache.New(1024)
	for b := uint64(0); b < 1024; b++ {
		pc.Put(probeFH, b, p.block)
	}
	r := newRNG(p.cfg.seed, 905)
	p.ns("pagecache.get_hit_ns", func() {
		if _, ok := pc.Get(probeFH, uint64(r.intn(1024))); !ok {
			must(fmt.Errorf("resident page missed"))
		}
	})
	return nil
}

// backendRig is an nfsd over a seeded memfs with an nfs3be client on
// it, and an in-memory object store holding the same file.
type backendRig struct {
	node *stack.Node
	rpc  *sunrpc.Client
	fh   backend.FileID
	nfs  *nfs3be.Backend
	obj  *objstore.Backend
	oid  backend.FileID
	off  func() uint64 // a seeded block offset
}

func (p *prober) newBackendRig() (_ *backendRig, err error) {
	fs, fh, err := p.probeFS()
	if err != nil {
		return nil, err
	}
	g := &backendRig{fh: backend.FileID(fh)}
	if g.node, err = stack.StartNFSServer(fs, stack.NFSServerOptions{}); err != nil {
		return nil, err
	}
	if g.rpc, err = sunrpc.Dial(g.node.Addr); err != nil {
		g.node.Close()
		return nil, err
	}
	defer func() {
		if err != nil {
			g.Close()
		}
	}()
	g.nfs = nfs3be.New(g.rpc)
	g.obj = objstore.New(objstore.NewMemStore(), blockSize)
	if err := g.obj.CreateFile("probe.img", genImage(p.cfg.seed, 902, 8*mib)); err != nil {
		return nil, err
	}
	root, _, err := g.obj.Root("/")
	if err != nil {
		return nil, err
	}
	if g.oid, _, err = g.obj.Lookup(root, "probe.img", backend.CallOpts{}); err != nil {
		return nil, err
	}
	r := newRNG(p.cfg.seed, 906)
	g.off = func() uint64 { return uint64(r.intn(probeBlocks)) * blockSize }
	return g, nil
}

func (g *backendRig) Close() {
	g.rpc.Close()
	g.node.Close()
}

func (p *prober) backendReads() error {
	g, err := p.newBackendRig()
	if err != nil {
		return err
	}
	defer g.Close()
	p.us("backend.nfs3be.read_us", func() {
		_, err := g.nfs.Read(g.fh, g.off(), blockSize, backend.CallOpts{})
		must(err)
	})
	// The same backend as the single member of a replica set: the
	// difference from nfs3be.read_us is the N=1 overhead of replbe.
	rb, err := replbe.New([]replbe.Replica{{Name: "r0", B: g.nfs}}, replbe.Config{})
	if err != nil {
		return err
	}
	defer rb.Close()
	p.us("backend.replbe1.read_us", func() {
		_, err := rb.Read(g.fh, g.off(), blockSize, backend.CallOpts{})
		must(err)
	})
	p.us("backend.objstore.read_us", func() {
		_, err := g.obj.Read(g.oid, g.off(), blockSize, backend.CallOpts{})
		must(err)
	})
	return nil
}

func (p *prober) backendWrites() error {
	g, err := p.newBackendRig()
	if err != nil {
		return err
	}
	defer g.Close()
	p.us("backend.nfs3be.write_us", func() {
		_, err := g.nfs.Write(g.fh, g.off(), p.block, backend.CallOpts{})
		must(err)
	})
	p.us("backend.objstore.write_us", func() {
		_, err := g.obj.Write(g.oid, g.off(), p.block, backend.CallOpts{})
		must(err)
	})
	return nil
}

// meta covers the meta-data path of wan_clone: zero-map generation,
// the compressed file channel, and reads from the file cache.
func (p *prober) meta() error {
	mem := vm.Spec{Name: "probe", MemoryBytes: 8 * mib, Seed: p.cfg.seed}.GenerateMemState()
	memMiB := float64(len(mem)) / mib
	p.m.put("meta.zero_map_mib_per_s", memMiB/(p.perCall(func() { meta.GenerateZeroMap(mem, blockSize) })/1e9))

	fs := memfs.New()
	if err := fs.WriteFile("/probe.vmss", mem); err != nil {
		return err
	}
	node, err := stack.StartFileChanServer(fs, nil, nil)
	if err != nil {
		return err
	}
	defer node.Close()
	conn, err := net.Dial("tcp", node.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fetch := p.perCall(func() {
		data, err := filechan.Fetch(conn, "/probe.vmss", true)
		must(err)
		if len(data) != len(mem) {
			must(fmt.Errorf("file channel returned %d of %d bytes", len(data), len(mem)))
		}
	})
	p.m.put("filechan.fetch_gzip_mib_per_s", memMiB/(fetch/1e9))

	fc, err := filecache.New(filepath.Join(p.cfg.workdir, "probe-filecache"))
	if err != nil {
		return err
	}
	if err := fc.Store("/probe.vmss", mem); err != nil {
		return err
	}
	r := newRNG(p.cfg.seed, 907)
	p.us("filecache.read_at_us", func() {
		_, _, err := fc.ReadAt("/probe.vmss", uint64(r.intn(probeBlocks))*blockSize, blockSize)
		must(err)
	})
	return nil
}
