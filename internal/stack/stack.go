// Package stack assembles complete GVFS deployments: an image server
// (userspace NFS + MOUNT + file-channel services), a chain of GVFS
// proxies, and the network links between them. It exists so that
// tests, examples and the benchmark harness all build the paper's
// topologies — compute server, optional LAN cache server, image
// server across a WAN — from the same, well-tested wiring.
package stack

import (
	"sync"
	"time"

	"fmt"
	"net"
	"strings"

	"gvfs/internal/auth"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/backend/objstore"
	"gvfs/internal/backend/replbe"
	"gvfs/internal/cache"
	"gvfs/internal/cachean"
	"gvfs/internal/filecache"
	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/proxy"
	"gvfs/internal/qos"
	"gvfs/internal/simnet"
	"gvfs/internal/sunrpc"
	"gvfs/internal/tunnel"
)

// Node is one running RPC endpoint (server or proxy).
type Node struct {
	Addr       string
	Proxy      *proxy.Proxy        // nil for end servers
	BlockCache *cache.Cache        // nil unless the proxy has a disk cache
	Metrics    *obs.Registry       // the proxy's registry (nil for end servers)
	Tracer     *obs.Tracer         // the proxy's trace ring (nil unless enabled)
	Flight     *obs.FlightRecorder // the proxy's flight recorder (nil unless enabled)
	Cachean    *cachean.Analyzer   // cache analytics (nil unless enabled)
	rpcSrv     *sunrpc.Server
	listener   net.Listener
	extra      []func() // additional cleanup
}

// Close stops the node.
func (n *Node) Close() {
	if n.rpcSrv != nil {
		n.rpcSrv.Close()
	}
	if n.listener != nil {
		n.listener.Close()
	}
	for _, f := range n.extra {
		f()
	}
}

// listen opens a loopback listener, optionally shaped by link and
// wrapped in a tunnel responder with key.
func listen(link *simnet.Link, key []byte) (net.Listener, error) {
	return ListenOn("127.0.0.1:0", link, key)
}

// ListenOn opens a listener on addr, optionally shaped by link and
// wrapped in a tunnel responder with key. Exported for the daemons.
func ListenOn(addr string, link *simnet.Link, key []byte) (net.Listener, error) {
	var l net.Listener
	var err error
	if link != nil {
		l, err = simnet.Listen(addr, link)
	} else {
		l, err = net.Listen("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	if key != nil {
		l = newTunnelListener(l, key)
	}
	return l, nil
}

const (
	// handshakeTimeout bounds a tunnel handshake on an accepted
	// connection: a failed or stalled one (wrong key, port scan) must
	// not take the service down.
	handshakeTimeout = 10 * time.Second
	// maxHandshakes bounds the handshakes in flight; beyond it new
	// connections wait in the kernel's accept queue.
	maxHandshakes = 256
)

// tunnelListener upgrades accepted connections to tunnel endpoints.
// Each handshake runs in its own goroutine, so a silent peer delays
// nobody but itself.
type tunnelListener struct {
	net.Listener
	key   []byte
	conns chan net.Conn // handshakes that succeeded
	done  chan struct{} // closed when the accept loop has exited, after err is set
	err   error
}

func newTunnelListener(l net.Listener, key []byte) *tunnelListener {
	t := &tunnelListener{Listener: l, key: key, conns: make(chan net.Conn), done: make(chan struct{})}
	go t.acceptLoop()
	return t
}

func (t *tunnelListener) acceptLoop() {
	defer close(t.done)
	slots := make(chan struct{}, maxHandshakes)
	for {
		raw, err := t.Listener.Accept()
		if err != nil {
			t.err = err
			return
		}
		slots <- struct{}{}
		go func() {
			defer func() { <-slots }()
			raw.SetDeadline(time.Now().Add(handshakeTimeout))
			conn, err := tunnel.Server(raw, t.key)
			if err != nil {
				raw.Close()
				return
			}
			raw.SetDeadline(time.Time{})
			select {
			case t.conns <- conn:
			case <-t.done:
				raw.Close()
			}
		}()
	}
}

func (t *tunnelListener) Accept() (net.Conn, error) {
	select {
	case conn := <-t.conns:
		return conn, nil
	case <-t.done:
		return nil, t.err
	}
}

// Close stops accepting and returns once the accept loop has exited.
// Handshakes still in flight end within handshakeTimeout and drop
// their connection.
func (t *tunnelListener) Close() error {
	err := t.Listener.Close()
	<-t.done
	return err
}

// Dialer returns a dial function to addr, optionally shaped by link
// and upgraded to a tunnel initiator with key.
func Dialer(addr string, link *simnet.Link, key []byte) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		var conn net.Conn
		var err error
		if link != nil {
			conn, err = simnet.Dial(addr, link)
		} else {
			conn, err = net.Dial("tcp", addr)
		}
		if err != nil {
			return nil, err
		}
		if key != nil {
			tc, err := tunnel.Client(conn, key)
			if err != nil {
				conn.Close()
				return nil, err
			}
			return tc, nil
		}
		return conn, nil
	}
}

// NFSServerOptions configure StartNFSServer.
type NFSServerOptions struct {
	// Exports lists MOUNT dirpaths all mapped to the backend root
	// (default: "/").
	Exports []string
	// ListenLink shapes the listener (for proxy-less baselines that
	// mount the end server across the WAN directly).
	ListenLink *simnet.Link
	// ListenKey upgrades accepted connections to tunnel endpoints.
	ListenKey []byte
}

// StartNFSServer runs a userspace NFS+MOUNT server for backend.
func StartNFSServer(backend nfs3.Backend, opts NFSServerOptions) (*Node, error) {
	root, err := backend.Root()
	if err != nil {
		return nil, err
	}
	srv := sunrpc.NewServer()
	srv.Register(nfs3.Program, nfs3.Version, nfs3.NewServer(backend))
	md := mountd.NewServer()
	exports := opts.Exports
	if len(exports) == 0 {
		exports = []string{"/"}
	}
	for _, e := range exports {
		md.Export(e, root)
	}
	srv.Register(nfs3.MountProgram, nfs3.MountVersion, md)
	l, err := listen(opts.ListenLink, opts.ListenKey)
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	return &Node{Addr: l.Addr().String(), rpcSrv: srv, listener: l}, nil
}

// StartFileChanServer runs a file-channel service for store.
func StartFileChanServer(store filechan.FileStore, link *simnet.Link, key []byte) (*Node, error) {
	l, err := listen(link, key)
	if err != nil {
		return nil, err
	}
	srv := filechan.NewServer(store)
	go srv.Serve(l)
	return &Node{Addr: l.Addr().String(), listener: l, extra: []func(){srv.Close}}, nil
}

// ProxyOptions configure StartProxy.
type ProxyOptions struct {
	// UpstreamAddr is the next hop's RPC address.
	UpstreamAddr string
	// UpstreamLink shapes the upstream connection.
	UpstreamLink *simnet.Link
	// UpstreamKey tunnels the upstream connection.
	UpstreamKey []byte

	// ListenLink / ListenKey shape and protect this proxy's listener.
	ListenLink *simnet.Link
	ListenKey  []byte

	// Mapper enables identity mapping (server-side proxy role).
	Mapper *auth.Mapper

	// CacheConfig enables the block-based disk cache (Dir required).
	// All fields pass through verbatim, including the concurrency
	// knobs Stripes and SerialIO (see cache.Config).
	CacheConfig *cache.Config

	// SharedBlockCache lets several proxies serve from one disk cache
	// — the paper's shared read-only cache mode. The cache must be
	// configured ReadOnly; writes bypass it. Mutually exclusive with
	// CacheConfig.
	SharedBlockCache *cache.Cache

	// FileCacheDir enables the file-based cache; FileChanAddr (plus
	// optional link and key) reaches the image server's file channel.
	FileCacheDir string
	FileChanAddr string
	FileChanLink *simnet.Link
	FileChanKey  []byte

	// DisableMeta turns meta-data handling off (ablations).
	DisableMeta bool

	// ReadAhead enables sequential prefetching of this many blocks at
	// the proxy (requires CacheConfig).
	ReadAhead int

	// ReadAheadPipeline pipelines each prefetch window's READs on the
	// upstream connection instead of issuing one call per block (see
	// proxy.Config.ReadAheadPipeline).
	ReadAheadPipeline bool

	// PersistIndex reloads a saved cache-tag snapshot from the cache
	// directory at startup, so a restarted proxy resumes with a warm
	// disk cache. Pair with Cache.SaveIndex at shutdown.
	PersistIndex bool

	// IdleWriteBack, when positive, starts the proxy's idle writer:
	// dirty session data is propagated automatically once the session
	// has been quiet this long (paper §3.2.3).
	IdleWriteBack time.Duration

	// UpstreamCallTimeout bounds each upstream RPC (per-call deadline).
	UpstreamCallTimeout time.Duration

	// UpstreamMaxRetries enables transparent upstream reconnection with
	// exponential backoff and XID-preserving retransmission of
	// idempotent NFS calls (nfs3.RetrySafe). 0 disables retries.
	UpstreamMaxRetries int

	// DegradedReads serves cached data while the upstream is down; see
	// proxy.Config.DegradedReads.
	DegradedReads bool
	// FailureThreshold and ProbeInterval tune the upstream circuit
	// breaker (proxy.Config fields of the same names).
	FailureThreshold int
	ProbeInterval    time.Duration

	// Metrics is the obs registry the proxy publishes into. Nil gives
	// the proxy a private registry (reachable via Node.Metrics).
	Metrics *obs.Registry

	// TraceRing, when positive, enables request tracing with a ring of
	// this capacity (reachable via Node.Tracer).
	TraceRing int

	// FlightRing, when positive, enables the flight recorder with a
	// ring of this capacity (reachable via Node.Flight). The recorder
	// needs span trees, so tracing is enabled implicitly (with a
	// DefaultRing-sized ring) if TraceRing is zero.
	FlightRing int
	// SlowThreshold is the latency that promotes a call into the
	// flight recorder (0 = obs.DefaultSlowThreshold).
	SlowThreshold time.Duration

	// Logger, when set, gives the proxy a structured event log.
	Logger *obs.Logger

	// StatuszTopN bounds each /statusz ranking; AuditRing bounds the
	// write-back audit trail (0 = package defaults).
	StatuszTopN int
	AuditRing   int

	// QoS, when non-nil, enables per-client admission control: the
	// scheduler is built from this config (metrics wired into the
	// proxy's registry when the config doesn't name one) and closed
	// with the node. See qos.Config for the knobs.
	QoS *qos.Config

	// CallBudget is the default end-to-end deadline stamped on calls
	// that arrive without a propagated budget in their trace verifier
	// (0 = no local deadline).
	CallBudget time.Duration

	// AcctMaxEntries / AcctIdleTTL bound the per-file and per-client
	// accounting tables (0 = package defaults).
	AcctMaxEntries int
	AcctIdleTTL    time.Duration

	// Cachean enables the cache-analytics subsystem (internal/cachean):
	// a SHARDS-sampled reuse-distance tracker behind the block cache
	// that maintains online miss-ratio curves, working-set estimates
	// and what-if sizing, surfaced at /cachez and as gvfs_cachean_*
	// metrics. The analyzer is installed as the block cache's access
	// tap, so it needs CacheConfig; with only a SharedBlockCache the
	// proxy-level demand taps still feed it, but the MRC stays empty.
	// CacheanRate is the spatial sample rate (0 = 0.01); CacheanWindow
	// the working-set sliding window (0 = 60s).
	Cachean       bool
	CacheanRate   float64
	CacheanWindow time.Duration
}

// Backend selector values for ProxyOptionsV2.Backend.
const (
	BackendNFS3     = "nfs3"     // NFSv3 over ONC-RPC to UpstreamAddr (classic)
	BackendObjstore = "objstore" // local content-addressed object store, no upstream
	BackendRepl     = "repl"     // replicated composite over Replicas specs
)

// ProxyOptionsV2 is the versioned successor of ProxyOptions: all the
// classic wiring plus the backend selector that arrived with the
// pluggable upstream API. The zero Backend keeps the historical
// behavior, so ProxyOptionsV2{ProxyOptions: opts} is always equivalent
// to the old StartProxy(opts).
type ProxyOptionsV2 struct {
	ProxyOptions

	// Backend selects the upstream implementation: BackendNFS3
	// (default) dials UpstreamAddr; BackendObjstore serves from a local
	// object store and ignores the Upstream* fields entirely.
	Backend string

	// ObjstoreDir is the object store directory (BackendObjstore).
	// Ignored when ObjstoreStore is set.
	ObjstoreDir string

	// ObjstoreStore supplies the store directly — a MemStore for
	// self-contained runs, or a CountingStore wrapper when the caller
	// wants per-object traffic accounting (the dedup benchmark).
	ObjstoreStore objstore.Store

	// ObjstoreBlock is the store's block size (0 = objstore default).
	ObjstoreBlock int

	// Dedup enables the content-addressed dedup map in the block cache
	// (cache.Config.Dedup): identical blocks across files — N cloned VM
	// images — share one cached frame.
	Dedup bool

	// Replicas lists the replicated backend's members (BackendRepl) in
	// priority order — index 0 is the write primary and, when it is an
	// NFS replica, the control-plane relay. Each spec is
	// "objstore:<dir>" or "nfs3:<host:port>".
	Replicas []string

	// ReplicaBackends supplies pre-built replicas directly (tests and
	// benchmarks wire simnet-backed replicas this way); takes
	// precedence over Replicas. The composite owns and closes them.
	ReplicaBackends []replbe.Replica

	// ReplConfig tunes the replicated backend (nil = replbe defaults:
	// hedged reads at the p95 latency, 30s scrub, primary-ack writes).
	ReplConfig *replbe.Config
}

// StartProxy runs a GVFS proxy node over the classic NFSv3 upstream.
// Equivalent to StartProxyV2 with the zero backend selector.
func StartProxy(opts ProxyOptions) (*Node, error) {
	return StartProxyV2(ProxyOptionsV2{ProxyOptions: opts})
}

// StartProxyV2 runs a GVFS proxy node over the selected backend.
func StartProxyV2(o ProxyOptionsV2) (*Node, error) {
	opts := o.ProxyOptions
	var cleanup []func()
	fail := func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}

	cfg := proxy.Config{
		Mapper:            opts.Mapper,
		DisableMeta:       opts.DisableMeta,
		ReadAhead:         opts.ReadAhead,
		ReadAheadPipeline: opts.ReadAheadPipeline,
		DegradedReads:     opts.DegradedReads,
		FailureThreshold:  opts.FailureThreshold,
		ProbeInterval:     opts.ProbeInterval,
		Metrics:           opts.Metrics,
		Logger:            opts.Logger,
		StatuszTopN:       opts.StatuszTopN,
		AuditRing:         opts.AuditRing,
		CallBudget:        opts.CallBudget,
		AcctMaxEntries:    opts.AcctMaxEntries,
		AcctIdleTTL:       opts.AcctIdleTTL,
	}

	switch o.Backend {
	case "", BackendNFS3:
		dial := Dialer(opts.UpstreamAddr, opts.UpstreamLink, opts.UpstreamKey)
		conn, err := dial()
		if err != nil {
			return nil, fmt.Errorf("stack: proxy upstream dial: %w", err)
		}
		var upstream *sunrpc.Client
		if opts.UpstreamCallTimeout > 0 || opts.UpstreamMaxRetries > 0 {
			copts := sunrpc.ClientOptions{
				CallTimeout: opts.UpstreamCallTimeout,
				MaxRetries:  opts.UpstreamMaxRetries,
				Idempotent:  nfs3.RetrySafe,
			}
			if opts.UpstreamMaxRetries > 0 {
				copts.Redial = dial
			}
			upstream = sunrpc.NewClientWithOptions(conn, copts)
		} else {
			upstream = sunrpc.NewClient(conn)
		}
		cfg.Upstream = upstream
		cleanup = append(cleanup, func() { upstream.Close() })
	case BackendObjstore:
		store := o.ObjstoreStore
		if store == nil {
			if o.ObjstoreDir == "" {
				return nil, fmt.Errorf("stack: objstore backend needs ObjstoreDir or ObjstoreStore")
			}
			ds, err := objstore.NewDirStore(o.ObjstoreDir)
			if err != nil {
				return nil, fmt.Errorf("stack: objstore: %w", err)
			}
			store = ds
		}
		cfg.Backend = objstore.New(store, o.ObjstoreBlock)
	case BackendRepl:
		reps := o.ReplicaBackends
		var relay nfs3.Caller
		if len(reps) == 0 {
			for i, spec := range o.Replicas {
				kind, arg, ok := strings.Cut(spec, ":")
				if !ok || arg == "" {
					fail()
					return nil, fmt.Errorf("stack: bad replica spec %q (want objstore:<dir> or nfs3:<host:port>)", spec)
				}
				name := fmt.Sprintf("r%d", i)
				switch kind {
				case "objstore":
					ds, err := objstore.NewDirStore(arg)
					if err != nil {
						fail()
						return nil, fmt.Errorf("stack: replica %s: %w", name, err)
					}
					reps = append(reps, replbe.Replica{Name: name, B: objstore.New(ds, o.ObjstoreBlock)})
				case "nfs3":
					dial := Dialer(arg, nil, opts.UpstreamKey)
					conn, err := dial()
					if err != nil {
						fail()
						return nil, fmt.Errorf("stack: replica %s dial: %w", name, err)
					}
					// Replica clients always redial: probe-driven recovery
					// after an outage needs a fresh transport, and the
					// composite's health gating (not a dead socket) is what
					// decides whether the replica serves.
					client := sunrpc.NewClientWithOptions(conn, sunrpc.ClientOptions{
						CallTimeout: opts.UpstreamCallTimeout,
						MaxRetries:  opts.UpstreamMaxRetries,
						Idempotent:  nfs3.RetrySafe,
						Redial:      dial,
					})
					cleanup = append(cleanup, func() { client.Close() })
					reps = append(reps, replbe.Replica{Name: name, B: nfs3be.New(client)})
					if i == 0 {
						// NFS replicas carry no local namespace: relay
						// MOUNT/LOOKUP over the primary, like the classic
						// single-upstream arrangement.
						relay = client
					}
				default:
					fail()
					return nil, fmt.Errorf("stack: unknown replica kind %q in %q", kind, spec)
				}
			}
		}
		if relay == nil && opts.UpstreamAddr != "" {
			// Injected replicas (or an all-objstore set) can still name a
			// control-plane relay the classic way: UpstreamAddr/Link is
			// then the namespace hop, typically the primary replica's
			// server.
			dial := Dialer(opts.UpstreamAddr, opts.UpstreamLink, opts.UpstreamKey)
			conn, err := dial()
			if err != nil {
				fail()
				return nil, fmt.Errorf("stack: repl relay dial: %w", err)
			}
			client := sunrpc.NewClientWithOptions(conn, sunrpc.ClientOptions{
				CallTimeout: opts.UpstreamCallTimeout,
				MaxRetries:  opts.UpstreamMaxRetries,
				Idempotent:  nfs3.RetrySafe,
				Redial:      dial,
			})
			cleanup = append(cleanup, func() { client.Close() })
			relay = client
		}
		rcfg := replbe.Config{}
		if o.ReplConfig != nil {
			rcfg = *o.ReplConfig
		}
		rb, err := replbe.New(reps, rcfg)
		if err != nil {
			fail()
			return nil, fmt.Errorf("stack: repl backend: %w", err)
		}
		cfg.Backend = rb
		cfg.Upstream = relay
		cleanup = append(cleanup, func() { rb.Close() })
	default:
		return nil, fmt.Errorf("stack: unknown backend %q (want %q, %q or %q)",
			o.Backend, BackendNFS3, BackendObjstore, BackendRepl)
	}

	if opts.TraceRing > 0 {
		cfg.Tracer = obs.NewTracer(opts.TraceRing)
	}
	if opts.FlightRing > 0 {
		// Flight recordings are span trees, so the recorder implies
		// tracing even when the daemon did not ask for /traces.
		if cfg.Tracer == nil {
			cfg.Tracer = obs.NewTracer(obs.DefaultRing)
		}
		cfg.Flight = obs.NewFlightRecorder(opts.FlightRing, opts.SlowThreshold)
	}

	if opts.QoS != nil {
		qcfg := *opts.QoS
		if qcfg.Metrics == nil {
			// The scheduler publishes gvfs_qos_* next to the proxy's
			// own metrics; when the caller didn't bring a registry,
			// create the shared one here so both land in it.
			if cfg.Metrics == nil {
				cfg.Metrics = obs.NewRegistry()
			}
			qcfg.Metrics = cfg.Metrics
		}
		if qcfg.OnBrownout == nil && opts.Logger != nil {
			qlog := opts.Logger.Named("qos")
			qcfg.OnBrownout = func(active bool) {
				if active {
					qlog.Warn("brownout enter")
				} else {
					qlog.Info("brownout exit")
				}
			}
		}
		sched := qos.New(qcfg)
		cfg.QoS = sched
		cleanup = append(cleanup, sched.Close)
	}

	var analyzer *cachean.Analyzer
	if opts.Cachean {
		analyzer = cachean.New(cachean.Config{
			Rate:   opts.CacheanRate,
			Window: opts.CacheanWindow,
		})
		cfg.Cachean = analyzer
		cleanup = append(cleanup, analyzer.Close)
	}

	var blockCache *cache.Cache
	if opts.SharedBlockCache != nil {
		if opts.CacheConfig != nil {
			fail()
			return nil, fmt.Errorf("stack: SharedBlockCache and CacheConfig are mutually exclusive")
		}
		if !opts.SharedBlockCache.Config().ReadOnly {
			fail()
			return nil, fmt.Errorf("stack: a shared block cache must be ReadOnly")
		}
		blockCache = opts.SharedBlockCache
		cfg.BlockCache = blockCache
		cfg.WritePolicy = cache.WriteThrough
		// Shared caches are not closed with the node: their owner is
		// whoever created them.
	}
	if opts.CacheConfig != nil {
		ccfg := *opts.CacheConfig
		if ccfg.Logger == nil && opts.Logger != nil {
			ccfg.Logger = opts.Logger.Named("cache")
		}
		if o.Dedup {
			ccfg.Dedup = true
		}
		if analyzer != nil && ccfg.Tap == nil {
			ccfg.Tap = analyzer
		}
		var err error
		blockCache, err = cache.New(ccfg)
		if err != nil {
			fail()
			return nil, err
		}
		if opts.PersistIndex {
			if err := blockCache.LoadIndex(); err != nil {
				blockCache.Close()
				fail()
				return nil, fmt.Errorf("stack: reload cache index: %w", err)
			}
		}
		cfg.BlockCache = blockCache
		cfg.WritePolicy = opts.CacheConfig.Policy
		cleanup = append(cleanup, func() { blockCache.Close() })
	}
	if opts.FileCacheDir != "" {
		fc, err := filecache.New(opts.FileCacheDir)
		if err != nil {
			fail()
			return nil, err
		}
		cfg.FileCache = fc
		if opts.FileChanAddr != "" {
			cfg.FileChanDial = Dialer(opts.FileChanAddr, opts.FileChanLink, opts.FileChanKey)
		}
	}

	if analyzer != nil && blockCache != nil {
		cc := blockCache.Config()
		analyzer.SetCapacity(
			uint64(cc.Banks)*uint64(cc.SetsPerBank)*uint64(cc.Assoc)*uint64(cc.BlockSize),
			cc.BlockSize)
	}

	p, err := proxy.New(cfg)
	if err != nil {
		fail()
		return nil, err
	}
	cleanup = append(cleanup, p.Shutdown)
	// Crash recovery: replay any journaled dirty blocks a crashed
	// predecessor left in the cache directory BEFORE the listener
	// starts — by the time a client can reconnect, the server already
	// reflects every previously acknowledged write.
	if blockCache != nil && blockCache.JournalEnabled() {
		if _, err := p.RecoverJournal(); err != nil {
			for i := len(cleanup) - 1; i >= 0; i-- {
				cleanup[i]()
			}
			return nil, fmt.Errorf("stack: journal recovery: %w", err)
		}
	}
	srv := sunrpc.NewServer()
	srv.Register(nfs3.Program, nfs3.Version, p)
	srv.Register(nfs3.MountProgram, nfs3.MountVersion, p)
	l, err := listen(opts.ListenLink, opts.ListenKey)
	if err != nil {
		fail()
		return nil, err
	}
	if opts.IdleWriteBack > 0 {
		stopIdle := p.StartIdleWriteBack(opts.IdleWriteBack)
		cleanup = append(cleanup, stopIdle)
	}
	go srv.Serve(l)
	return &Node{Addr: l.Addr().String(), Proxy: p, BlockCache: blockCache,
		Metrics: p.MetricsRegistry(), Tracer: cfg.Tracer, Flight: cfg.Flight,
		Cachean: analyzer, rpcSrv: srv, listener: l, extra: cleanup}, nil
}

// StartStatsLogger emits one structured "stats" event for p at every
// interval — the replacement for the per-daemon printf stats loops.
// It returns a stop function; calling it more than once is safe.
func StartStatsLogger(log *obs.Logger, p *proxy.Proxy, every time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			st := p.Snapshot()
			log.Info("stats",
				"calls", st.Counter("gvfs_proxy_calls_total"),
				"hits", st.Counter("gvfs_proxy_read_hits_total"),
				"misses", st.Counter("gvfs_proxy_read_misses_total"),
				"zero", st.Counter("gvfs_proxy_zero_filtered_total"),
				"filechan_reads", st.Counter("gvfs_proxy_filechan_reads_total"),
				"filechan_fetches", st.Counter("gvfs_proxy_filechan_fetches_total"),
				"absorbed", st.Counter("gvfs_proxy_writes_absorbed_total"),
				"prefetched", st.Counter("gvfs_proxy_prefetched_total"),
				"retries", st.Counter("gvfs_rpc_retries_total"),
				"reconnects", st.Counter("gvfs_rpc_reconnects_total"),
				"timeouts", st.Counter("gvfs_rpc_timeouts_total"),
				"breaker_opens", st.Counter("gvfs_proxy_breaker_opens_total"),
				"fast_fails", st.Counter("gvfs_proxy_breaker_fastfails_total"),
				"probes", st.Counter("gvfs_proxy_probes_total"),
				"replays", st.Counter("gvfs_proxy_replays_total"),
				"degraded_reads", st.Counter("gvfs_proxy_degraded_reads_total"),
				"degraded", p.Degraded(),
			)
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// ImageServer bundles the services running on a paper "image server":
// the NFS/MOUNT server, the server-side GVFS proxy with identity
// mapping, and the file-channel service. The proxy and file channel
// listen across the given link (the WAN or LAN path to this server);
// the NFS server itself is only reachable locally, through the proxy.
type ImageServer struct {
	FS        *memfs.FS
	NFS       *Node
	Proxy     *Node
	FileChan  *Node
	Key       []byte // tunnel session key for this server's services
	Allocator *auth.Allocator
}

// Close stops all services.
func (s *ImageServer) Close() {
	if s.Proxy != nil {
		s.Proxy.Close()
	}
	if s.FileChan != nil {
		s.FileChan.Close()
	}
	if s.NFS != nil {
		s.NFS.Close()
	}
}

// ProxyAddr is the address sessions and downstream proxies connect to.
func (s *ImageServer) ProxyAddr() string { return s.Proxy.Addr }

// FileChanAddr is the file-channel service address.
func (s *ImageServer) FileChanAddr() string { return s.FileChan.Addr }

// ImageServerOptions configure StartImageServer.
type ImageServerOptions struct {
	// Link is the network path to this server (nil = local).
	Link *simnet.Link
	// Encrypt enables tunnels on the proxy and file-channel services.
	Encrypt bool
	// IdentityBase/IdentityCount configure the logical account pool.
	IdentityBase, IdentityCount uint32
	// Metrics, TraceRing, FlightRing, SlowThreshold and Logger pass
	// through to the server-side proxy (see ProxyOptions fields of the
	// same names).
	Metrics       *obs.Registry
	TraceRing     int
	FlightRing    int
	SlowThreshold time.Duration
	Logger        *obs.Logger
}

// StartImageServer assembles a full image server around fs.
func StartImageServer(fs *memfs.FS, opts ImageServerOptions) (*ImageServer, error) {
	nfsNode, err := StartNFSServer(fs, NFSServerOptions{})
	if err != nil {
		return nil, err
	}
	var key []byte
	if opts.Encrypt {
		key, err = tunnel.NewKey()
		if err != nil {
			nfsNode.Close()
			return nil, err
		}
	}
	base, count := opts.IdentityBase, opts.IdentityCount
	if count == 0 {
		base, count = 60000, 1000
	}
	alloc := auth.NewAllocator(base, count, identityTTL)
	proxyNode, err := StartProxy(ProxyOptions{
		UpstreamAddr:  nfsNode.Addr,
		ListenLink:    opts.Link,
		ListenKey:     key,
		Mapper:        auth.NewMapper(alloc),
		Metrics:       opts.Metrics,
		TraceRing:     opts.TraceRing,
		FlightRing:    opts.FlightRing,
		SlowThreshold: opts.SlowThreshold,
		Logger:        opts.Logger,
	})
	if err != nil {
		nfsNode.Close()
		return nil, err
	}
	fcNode, err := StartFileChanServer(fs, opts.Link, key)
	if err != nil {
		proxyNode.Close()
		nfsNode.Close()
		return nil, err
	}
	return &ImageServer{
		FS:        fs,
		NFS:       nfsNode,
		Proxy:     proxyNode,
		FileChan:  fcNode,
		Key:       key,
		Allocator: alloc,
	}, nil
}

// identityTTL is the short-lived identity lifetime used by image
// servers (renewed on use, so it only needs to exceed call gaps).
const identityTTL = 30 * time.Minute

// relayStore is a caching filechan.FileStore: reads are served from a
// local file cache, fetched (compressed) from the upstream file
// channel on miss; writes pass through. It gives a LAN cache server
// the file-based half of the paper's second-level heterogeneous cache.
type relayStore struct {
	dial  func() (net.Conn, error)
	cache *filecache.Cache
}

// ReadFile implements filechan.FileStore.
func (r *relayStore) ReadFile(path string) ([]byte, error) {
	if r.cache.Has(path) {
		return r.cache.Contents(path)
	}
	conn, err := r.dial()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	data, err := filechan.Fetch(conn, path, true)
	if err != nil {
		return nil, err
	}
	if err := r.cache.Store(path, data); err != nil {
		return nil, err
	}
	return data, nil
}

// WriteFile implements filechan.FileStore (write-through upload).
func (r *relayStore) WriteFile(path string, data []byte) error {
	conn, err := r.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := filechan.Put(conn, path, data, true); err != nil {
		return err
	}
	return r.cache.Store(path, data)
}

// StartFileChanRelay runs a caching file-channel relay: downstream
// clients fetch from it across listenLink; misses are pulled from the
// upstream file channel through upstreamDial. This is the second-level
// file cache of the paper's WAN-S3 scenario.
func StartFileChanRelay(upstreamDial func() (net.Conn, error), cacheDir string,
	listenLink *simnet.Link, listenKey []byte) (*Node, error) {
	fc, err := filecache.New(cacheDir)
	if err != nil {
		return nil, err
	}
	store := &relayStore{dial: upstreamDial, cache: fc}
	l, err := listen(listenLink, listenKey)
	if err != nil {
		return nil, err
	}
	srv := filechan.NewServer(store)
	go srv.Serve(l)
	return &Node{Addr: l.Addr().String(), listener: l, extra: []func(){srv.Close}}, nil
}

// AddCleanup registers fn to run when the node is closed.
func (n *Node) AddCleanup(fn func()) { n.extra = append(n.extra, fn) }
