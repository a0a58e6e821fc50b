package main

// Chain assembly: client → client proxy (disk cache) → tunnel → server
// proxy (identity mapping) → nfsd over memfs, from public
// internal/stack calls only.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"gvfs/internal/auth"
	"gvfs/internal/bufpool"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
	"gvfs/internal/tunnel"
)

// traceRing holds every record of one traced window: the window is cut
// short before the ring could wrap (see maxTracedOps).
const traceRing = 1 << 19

// maxTracedOps bounds a traced window so the proxies' rings keep every
// record (mount and lookup calls share the ring, hence the margin).
const maxTracedOps = traceRing - 4096

type chainOpts struct {
	fs          *memfs.FS
	banks, sets int  // client-proxy cache geometry; associativity and block size stay at the flag defaults
	wan         bool // simnet.WAN() link, file cache and file channel
	smoke       bool // self-test: the WAN link runs 10x fast
	traced      bool // TraceRing on both proxies, origin.fs spans
}

type chain struct {
	origin *origin
	nfsd   *stack.Node
	server *stack.Node // server-side proxy
	fchan  *stack.Node // file channel service (wan only)
	client *stack.Node // client-side proxy
	link   *simnet.Link
	dir    string
	rec    *recorder
}

// proxyOptions builds proxy options the way the gvfsproxy daemon does:
// its own flag set parsed from a literal argv, so every default the
// daemon ships with is what the benchmark measures.
func proxyOptions(argv ...string) (stack.ProxyOptionsV2, error) {
	fs := flag.NewFlagSet("gvfsproxy", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flags := stack.BindProxyFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return stack.ProxyOptionsV2{}, err
	}
	return flags.OptionsV2()
}

func startChain(workdir string, o chainOpts) (_ *chain, err error) {
	c := &chain{}
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	if c.dir, err = os.MkdirTemp(workdir, "chain"); err != nil {
		return nil, err
	}
	c.origin = &origin{Backend: o.fs}
	ring := "0"
	if o.traced {
		c.rec = newRecorder()
		c.origin.rec = c.rec
		ring = strconv.Itoa(traceRing)
	}
	if c.nfsd, err = stack.StartNFSServer(c.origin, stack.NFSServerOptions{}); err != nil {
		return nil, err
	}
	key, err := tunnel.NewKey()
	if err != nil {
		return nil, err
	}
	if o.wan {
		profile := simnet.WAN()
		if o.smoke {
			profile.Scale = 10
		}
		c.link = simnet.NewLink(profile)
	}

	sopts, err := proxyOptions("-upstream", c.nfsd.Addr, "-trace-ring", ring)
	if err != nil {
		return nil, err
	}
	sopts.ListenLink, sopts.ListenKey = c.link, key
	sopts.Mapper = auth.NewMapper(auth.NewAllocator(60000, 1000, 30*time.Minute))
	if c.server, err = stack.StartProxyV2(sopts); err != nil {
		return nil, fmt.Errorf("server proxy: %w", err)
	}

	argv := []string{"-upstream", c.server.Addr, "-trace-ring", ring,
		"-cache-dir", filepath.Join(c.dir, "block"),
		"-cache-banks", strconv.Itoa(o.banks), "-cache-sets", strconv.Itoa(o.sets)}
	if o.wan {
		if c.fchan, err = stack.StartFileChanServer(o.fs, c.link, key); err != nil {
			return nil, err
		}
		argv = append(argv, "-filecache-dir", filepath.Join(c.dir, "file"), "-filechan", c.fchan.Addr)
	}
	copts, err := proxyOptions(argv...)
	if err != nil {
		return nil, err
	}
	copts.UpstreamLink, copts.UpstreamKey = c.link, key
	copts.FileChanLink, copts.FileChanKey = c.link, key
	if c.client, err = stack.StartProxyV2(copts); err != nil {
		return nil, fmt.Errorf("client proxy: %w", err)
	}
	return c, nil
}

func (c *chain) Close() {
	for _, n := range []*stack.Node{c.client, c.fchan, c.server, c.nfsd} {
		if n != nil {
			n.Close()
		}
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// cred is the AUTH_UNIX credential every benchmark client presents.
func cred() sunrpc.OpaqueAuth {
	return sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute"}.Encode()
}

// rawClient is one closed-loop client: its own connection to the
// client proxy and a bare nfs3.Client on it (no page cache), so every
// call reaches the proxy.
type rawClient struct {
	rpc    *sunrpc.Client
	nfs    *nfs3.Client
	root   nfs3.FH
	traced *tracedCaller // nil in timed runs
}

func (c *chain) dialRaw(id int) (*rawClient, error) {
	conn, err := stack.Dialer(c.client.Addr, nil, nil)()
	if err != nil {
		return nil, err
	}
	rc := &rawClient{rpc: sunrpc.NewClient(conn)}
	if rc.root, err = mountd.Mount(rc.rpc, cred(), "/"); err != nil {
		rc.rpc.Close()
		return nil, err
	}
	var caller nfs3.Caller = rc.rpc
	if c.rec != nil {
		rc.traced = &tracedCaller{rpc: rc.rpc, rec: c.rec, client: id}
		caller = rc.traced
	}
	rc.nfs = nfs3.NewClient(caller, cred())
	return rc, nil
}

// read issues one timed READ of a whole block, under a client.op span
// when traced.
func (rc *rawClient) read(fh nfs3.FH, off uint64) (data []byte, ns int64, err error) {
	if rc.traced != nil {
		rc.traced.begin()
	}
	t0 := time.Now()
	data, _, err = rc.nfs.Read(fh, off, blockSize)
	ns = time.Since(t0).Nanoseconds()
	if rc.traced != nil {
		rc.traced.end("READ", t0, ns)
	}
	return data, ns, err
}

// write issues one timed UNSTABLE WRITE, under a client.op span when
// traced.
func (rc *rawClient) write(fh nfs3.FH, off uint64, data []byte) (ns int64, err error) {
	if rc.traced != nil {
		rc.traced.begin()
	}
	t0 := time.Now()
	n, _, err := rc.nfs.Write(fh, off, data, nfs3.Unstable)
	ns = time.Since(t0).Nanoseconds()
	if rc.traced != nil {
		rc.traced.end("WRITE", t0, ns)
	}
	if err == nil && int(n) != len(data) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(data))
	}
	return ns, err
}

func (rc *rawClient) Close() { rc.rpc.Close() }

// cost is a reading of the process- and chain-wide counters the
// end-to-end metrics divide by ops or bytes. It allocates nothing, so
// reading it inside a measured interval does not disturb allocs_per_op.
type cost struct {
	usage
	origin uint64
	tunnel tunnel.Stats
}

func (c *chain) readCost() cost {
	return cost{usage: readUsage(), origin: c.origin.calls.Load(), tunnel: tunnel.ReadStats()}
}

// costSample is the cost part of a sample: what ops client operations
// moving userBytes cost between two readings.
func costSample(b, a cost, ops, userBytes float64) sample {
	return sample{
		ops:           ops,
		userBytes:     userBytes,
		cpu:           a.cpu - b.cpu,
		mallocs:       float64(a.mallocs - b.mallocs),
		allocBytes:    float64(a.bytes - b.bytes),
		originCalls:   float64(a.origin - b.origin),
		frames:        float64(a.tunnel.TxFrames - b.tunnel.TxFrames),
		upstreamBytes: float64(a.tunnel.TxBytes - b.tunnel.TxBytes),
	}
}

// counters is one reading of every public counter the count metrics
// are built from.
type counters struct {
	origin      uint64
	tunnel      tunnel.Stats
	link        uint64 // bytes on the simnet link, both directions
	cache       cache.Stats
	journal     cache.JournalStats
	pool        bufpool.Stats
	proxy       obs.Snapshot
	serverCalls uint64 // RPCs the server-side proxy handled, i.e. that crossed the link
}

func (c *chain) readCounters() counters {
	ct := counters{
		origin:      c.origin.calls.Load(),
		tunnel:      tunnel.ReadStats(),
		cache:       c.client.BlockCache.Stats(),
		journal:     c.client.BlockCache.JournalStats(),
		pool:        bufpool.Snapshot(),
		proxy:       c.client.Metrics.Snapshot(),
		serverCalls: c.server.Metrics.Snapshot().Counter("gvfs_proxy_calls_total"),
	}
	if c.link != nil {
		st := c.link.Stats()
		ct.link = st.Sent + st.Received
	}
	return ct
}

// countMetrics turns two counter readings into the count-based
// per-layer metrics. ops are client operations, userBytes the payload
// they moved, writes the client WRITEs among them.
func countMetrics(m metrics, b, a counters, ops, userBytes, writes float64) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	m.put("origin.calls_per_op", ratio(d(b.origin, a.origin), ops))
	m.put("tunnel.frames_per_op", ratio(d(b.tunnel.TxFrames, a.tunnel.TxFrames), ops))
	m.put("tunnel.bytes_per_user_byte", ratio(d(b.tunnel.TxBytes, a.tunnel.TxBytes), userBytes))
	m.put("wan.link_bytes_per_user_byte", ratio(d(b.link, a.link), userBytes))
	hits, misses := d(b.cache.Hits, a.cache.Hits), d(b.cache.Misses, a.cache.Misses)
	m.put("cache.hit_ratio", ratio(hits, hits+misses))
	m.put("cache.evictions_per_op", ratio(d(b.cache.Evictions, a.cache.Evictions), ops))
	m.put("cache.write_backs_per_op", ratio(d(b.cache.WriteBacks, a.cache.WriteBacks), ops))
	m.put("cache.journal_fsyncs_per_write", ratio(d(b.journal.Syncs, a.journal.Syncs), writes))
	m.put("cache.journal_bytes_per_user_byte", ratio(d(b.journal.AppendBytes, a.journal.AppendBytes), writes*blockSize))
	m.put("bufpool.miss_ratio", ratio(d(b.pool.Misses, a.pool.Misses), d(b.pool.Gets, a.pool.Gets)))
	pc := func(name string) float64 { return d(b.proxy.Counter(name), a.proxy.Counter(name)) }
	m.put("proxy.zero_filter_reads_per_op", ratio(pc("gvfs_proxy_zero_filtered_total"), ops))
	m.put("proxy.file_cache_reads_per_op", ratio(pc("gvfs_proxy_filechan_reads_total"), ops))
}
