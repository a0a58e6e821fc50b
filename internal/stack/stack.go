// Package stack assembles complete GVFS deployments: an image server
// (userspace NFS + MOUNT + file-channel services), a chain of GVFS
// proxies, and the network links between them. It exists so that
// tests, examples and the benchmark harness all build the paper's
// topologies — compute server, optional LAN cache server, image
// server across a WAN — from the same, well-tested wiring.
package stack

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"gvfs/internal/auth"
	"gvfs/internal/backend"
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

	// Done receives the serve loop's error when a proxy node stops
	// accepting connections — net.ErrClosed after Close, anything else
	// is a listener failure the daemon should exit on. Nil for end
	// servers.
	Done <-chan error

	teardown []func() // the node's own shutdown steps, in construction order
	extra    []func() // AddCleanup functions
}

// onClose registers one shutdown step. Steps run last-registered
// first, so whatever a component was built on is still open while the
// component itself stops.
func (n *Node) onClose(f func()) { n.teardown = append(n.teardown, f) }

// AddCleanup registers fn to run when the node is closed, after the
// node's own teardown.
func (n *Node) AddCleanup(fn func()) { n.extra = append(n.extra, fn) }

// Close stops the node: its own components in reverse construction
// order (a constructor that fails half-way unwinds through the same
// path), then the AddCleanup functions.
func (n *Node) Close() {
	for i := len(n.teardown) - 1; i >= 0; i-- {
		n.teardown[i]()
	}
	for _, f := range n.extra {
		f()
	}
}

// server is what a node runs on its listener (sunrpc or file channel).
type server interface {
	Serve(net.Listener) error
	Close()
}

// serve starts srv on l as node n's endpoint. On Close the listener
// goes first, then the server drops its connections. The returned
// channel receives Serve's error.
func (n *Node) serve(srv server, l net.Listener) <-chan error {
	n.Addr = l.Addr().String()
	n.onClose(srv.Close)
	n.onClose(func() { l.Close() })
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return done
}

// ListenOn opens a listener on addr (empty = an ephemeral loopback
// port), optionally shaped by link and wrapped in a tunnel responder
// with key. Exported for the daemons.
func ListenOn(addr string, link *simnet.Link, key []byte) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
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
	l, err := ListenOn("", opts.ListenLink, opts.ListenKey)
	if err != nil {
		return nil, err
	}
	n := &Node{}
	n.serve(srv, l)
	return n, nil
}

// StartFileChanServer runs a file-channel service for store.
func StartFileChanServer(store filechan.FileStore, link *simnet.Link, key []byte) (*Node, error) {
	l, err := ListenOn("", link, key)
	if err != nil {
		return nil, err
	}
	n := &Node{}
	n.serve(filechan.NewServer(store), l)
	return n, nil
}

// Backend selector values for ProxyOptions.Backend.
const (
	BackendNFS3     = "nfs3"     // NFSv3 over ONC-RPC to UpstreamAddr (classic)
	BackendObjstore = "objstore" // local content-addressed object store, no upstream
	BackendRepl     = "repl"     // replicated composite over Replicas specs
)

// ProxyOptions configure StartProxy. The paper's client-side caching
// proxy, LAN second-level proxy and server-side identity-mapping proxy
// are this one struct filled in differently.
type ProxyOptions struct {
	// ListenAddr is the address the proxy serves NFS and MOUNT on.
	// Empty picks an ephemeral loopback port (see Node.Addr).
	ListenAddr string
	// ListenLink / ListenKey shape and protect this proxy's listener.
	ListenLink *simnet.Link
	ListenKey  []byte

	// Backend selects the upstream implementation: BackendNFS3 (the
	// default, also for "") dials UpstreamAddr; BackendObjstore serves
	// from a local object store and ignores the Upstream* fields;
	// BackendRepl fans out over a replica set.
	Backend string

	// UpstreamAddr is the next hop's RPC address.
	UpstreamAddr string
	// UpstreamLink shapes the upstream connection.
	UpstreamLink *simnet.Link
	// UpstreamKey tunnels the upstream connection.
	UpstreamKey []byte
	// UpstreamCallTimeout bounds each upstream RPC (per-call deadline).
	UpstreamCallTimeout time.Duration
	// UpstreamMaxRetries enables transparent upstream reconnection with
	// exponential backoff and XID-preserving retransmission of
	// idempotent NFS calls (nfs3.RetrySafe). 0 disables retries. The
	// members of a replica set never retransmit: failover is their retry.
	UpstreamMaxRetries int

	// ObjstoreDir is the object store directory (BackendObjstore).
	// Ignored when ObjstoreStore is set.
	ObjstoreDir string
	// ObjstoreStore supplies the store directly — a MemStore for
	// self-contained runs, or a CountingStore wrapper when the caller
	// wants per-object traffic accounting (the dedup benchmark).
	ObjstoreStore objstore.Store
	// ObjstoreBlock is the store's block size (0 = objstore default).
	ObjstoreBlock int

	// Replicas lists the replicated backend's members (BackendRepl) in
	// priority order — index 0 is the write primary and, when it is an
	// NFS replica, the control-plane relay. Each spec is
	// "objstore:<dir>" or "nfs3:<host:port>".
	Replicas []string
	// ReplicaBackends supplies pre-built replicas directly (tests and
	// benchmarks wire simnet-backed replicas this way); takes
	// precedence over Replicas. The composite owns and closes them.
	ReplicaBackends []replbe.Replica
	// ReplConfig tunes the replicated backend (zero = replbe defaults:
	// hedged reads at the p95 latency, 30s scrub, primary-ack writes).
	ReplConfig replbe.Config

	// Mapper enables identity mapping (server-side proxy role).
	Mapper *auth.Mapper

	// CacheConfig enables the block-based disk cache (Dir required).
	// All fields pass through verbatim (see cache.Config), Dedup
	// included: identical blocks across files — N cloned VM images —
	// then share one cached frame. A cache-tag snapshot that a previous
	// proxy saved in Dir (Cache.SaveIndex) is reloaded at startup, so a
	// restarted proxy resumes with a warm disk cache.
	CacheConfig *cache.Config

	// SharedBlockCache lets several proxies serve from one disk cache
	// — the paper's shared read-only cache mode. The cache must be
	// configured ReadOnly; writes bypass it. Mutually exclusive with
	// CacheConfig.
	SharedBlockCache *cache.Cache

	// FileChanAddr (plus optional link and key) reaches the image
	// server's file channel. With CacheConfig, a file whose meta-data
	// asks for the channel is fetched through it into the block cache.
	FileChanAddr string
	FileChanLink *simnet.Link
	FileChanKey  []byte

	// ReadAhead enables sequential read-ahead of this many blocks,
	// rounded up to 32 KiB runs, at the proxy (requires CacheConfig).
	ReadAhead int

	// IdleWriteBack, when positive, starts the proxy's idle writer:
	// dirty session data is propagated automatically once the session
	// has been quiet this long (paper §3.2.3).
	IdleWriteBack time.Duration

	// FailureThreshold and ProbeInterval tune the upstream circuit
	// breaker every proxy has (proxy.Config fields of the same names)
	// and, under BackendRepl, each replica's.
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

	// QoS, when non-nil, enables per-client admission control: the
	// scheduler is built from this config (metrics wired into the
	// proxy's registry when the config doesn't name one) and closed
	// with the node. See qos.Config for the knobs.
	QoS *qos.Config

	// CallBudget is the default end-to-end deadline stamped on calls
	// that arrive without a propagated budget in their trace verifier
	// (0 = no local deadline).
	CallBudget time.Duration

	// Cachean enables the cache-analytics subsystem (internal/cachean):
	// a SHARDS-sampled reuse-distance tracker behind the block cache
	// that maintains online miss-ratio curves, working-set estimates
	// and what-if sizing, surfaced at /cachez and as gvfs_cachean_*
	// metrics, at the package's default sample rate and window. The
	// analyzer is installed as the block cache's access tap, so it
	// needs CacheConfig; with only a SharedBlockCache the proxy-level
	// demand taps still feed it, but the MRC stays empty.
	Cachean bool
}

// upstreamClient dials addr over link (tunnelled when UpstreamKey is
// set) and wraps the connection in an RPC client with the options'
// call timeout and the given retry budget. The client reconnects
// transparently when retries are on, and always under BackendRepl. It
// closes with n.
func (o *ProxyOptions) upstreamClient(n *Node, addr string, link *simnet.Link, maxRetries int) (*sunrpc.Client, error) {
	dial := Dialer(addr, link, o.UpstreamKey)
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	copts := sunrpc.ClientOptions{
		CallTimeout: o.UpstreamCallTimeout,
		MaxRetries:  maxRetries,
		Idempotent:  nfs3.RetrySafe,
	}
	if o.Backend == BackendRepl || maxRetries > 0 {
		copts.Redial = dial
	}
	client := sunrpc.NewClientWithOptions(conn, copts)
	n.onClose(func() { client.Close() })
	return client, nil
}

// replicaSet builds the replicated backend's members from the Replicas
// specs. An NFS primary doubles as the control-plane relay: NFS
// replicas carry no local namespace, so MOUNT/LOOKUP are relayed over
// it like the classic single-upstream arrangement.
func (o *ProxyOptions) replicaSet(n *Node) (reps []replbe.Replica, relay nfs3.Caller, err error) {
	for i, spec := range o.Replicas {
		kind, arg, ok := strings.Cut(spec, ":")
		if !ok || arg == "" {
			return nil, nil, fmt.Errorf("stack: bad replica spec %q (want objstore:<dir> or nfs3:<host:port>)", spec)
		}
		name := fmt.Sprintf("r%d", i)
		switch kind {
		case "objstore":
			ds, err := objstore.NewDirStore(arg)
			if err != nil {
				return nil, nil, fmt.Errorf("stack: replica %s: %w", name, err)
			}
			reps = append(reps, replbe.Replica{Name: name, B: objstore.New(ds, o.ObjstoreBlock)})
		case "nfs3":
			// Replica clients always redial: probe-driven recovery
			// after an outage needs a fresh transport, and the
			// composite's health gating (not a dead socket) is what
			// decides whether the replica serves. They never retransmit
			// inside a call: the composite's failover is the retry.
			client, err := o.upstreamClient(n, arg, nil, -1)
			if err != nil {
				return nil, nil, fmt.Errorf("stack: replica %s dial: %w", name, err)
			}
			reps = append(reps, replbe.Replica{Name: name, B: nfs3be.New(client)})
			if i == 0 {
				relay = client
			}
		default:
			return nil, nil, fmt.Errorf("stack: unknown replica kind %q in %q", kind, spec)
		}
	}
	return reps, relay, nil
}

// connectBackend builds the upstream the options select and returns
// the proxy's data-path backend (nil = wrap the relay, see
// proxy.Config.Backend) and its control-plane relay (nil = the
// backend's own namespace).
func (o *ProxyOptions) connectBackend(n *Node) (backend.Backend, nfs3.Caller, error) {
	switch o.Backend {
	case "", BackendNFS3:
		upstream, err := o.upstreamClient(n, o.UpstreamAddr, o.UpstreamLink, o.UpstreamMaxRetries)
		if err != nil {
			return nil, nil, fmt.Errorf("stack: proxy upstream dial: %w", err)
		}
		return nil, upstream, nil
	case BackendObjstore:
		store := o.ObjstoreStore
		if store == nil {
			if o.ObjstoreDir == "" {
				return nil, nil, fmt.Errorf("stack: objstore backend needs ObjstoreDir or ObjstoreStore")
			}
			ds, err := objstore.NewDirStore(o.ObjstoreDir)
			if err != nil {
				return nil, nil, fmt.Errorf("stack: objstore: %w", err)
			}
			store = ds
		}
		return objstore.New(store, o.ObjstoreBlock), nil, nil
	case BackendRepl:
		reps := o.ReplicaBackends
		var relay nfs3.Caller
		if len(reps) == 0 {
			var err error
			if reps, relay, err = o.replicaSet(n); err != nil {
				return nil, nil, err
			}
		}
		if relay == nil && o.UpstreamAddr != "" {
			// Injected replicas (or an all-objstore set) can still name a
			// control-plane relay the classic way: UpstreamAddr/Link is
			// then the namespace hop, typically the primary replica's
			// server.
			client, err := o.upstreamClient(n, o.UpstreamAddr, o.UpstreamLink, o.UpstreamMaxRetries)
			if err != nil {
				return nil, nil, fmt.Errorf("stack: repl relay dial: %w", err)
			}
			relay = client
		}
		// A replica set is the upstream: each member's breaker runs on the
		// proxy breaker's settings unless ReplConfig names its own.
		rcfg := o.ReplConfig
		if rcfg.FailThreshold == 0 {
			rcfg.FailThreshold = o.FailureThreshold
		}
		if rcfg.ProbeInterval == 0 {
			rcfg.ProbeInterval = o.ProbeInterval
		}
		rb, err := replbe.New(reps, rcfg)
		if err != nil {
			return nil, nil, fmt.Errorf("stack: repl backend: %w", err)
		}
		n.onClose(func() { rb.Close() })
		return rb, relay, nil
	}
	return nil, nil, fmt.Errorf("stack: unknown backend %q (want %q, %q or %q)",
		o.Backend, BackendNFS3, BackendObjstore, BackendRepl)
}

// StartProxy runs a GVFS proxy node over the selected backend.
func StartProxy(opts ProxyOptions) (_ *Node, err error) {
	n := &Node{}
	defer func() {
		if err != nil {
			n.Close()
		}
	}()

	cfg := proxy.Config{
		Mapper:           opts.Mapper,
		ReadAhead:        opts.ReadAhead,
		FailureThreshold: opts.FailureThreshold,
		ProbeInterval:    opts.ProbeInterval,
		Metrics:          opts.Metrics,
		Logger:           opts.Logger,
		CallBudget:       opts.CallBudget,
	}
	if cfg.Backend, cfg.Upstream, err = opts.connectBackend(n); err != nil {
		return nil, err
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
	n.Tracer, n.Flight = cfg.Tracer, cfg.Flight

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
		cfg.QoS = qos.New(qcfg)
		n.onClose(cfg.QoS.Close)
	}

	if opts.Cachean {
		n.Cachean = cachean.New(cachean.Config{})
		cfg.Cachean = n.Cachean
		n.onClose(n.Cachean.Close)
	}

	if opts.SharedBlockCache != nil {
		if opts.CacheConfig != nil {
			return nil, fmt.Errorf("stack: SharedBlockCache and CacheConfig are mutually exclusive")
		}
		if !opts.SharedBlockCache.Config().ReadOnly {
			return nil, fmt.Errorf("stack: a shared block cache must be ReadOnly")
		}
		// Shared caches are not closed with the node: their owner is
		// whoever created them.
		n.BlockCache = opts.SharedBlockCache
		cfg.WritePolicy = cache.WriteThrough
	}
	if opts.CacheConfig != nil {
		ccfg := *opts.CacheConfig
		if ccfg.Logger == nil && opts.Logger != nil {
			ccfg.Logger = opts.Logger.Named("cache")
		}
		if n.Cachean != nil && ccfg.Tap == nil {
			ccfg.Tap = n.Cachean
		}
		bc, err := cache.New(ccfg)
		if err != nil {
			return nil, err
		}
		n.onClose(func() { bc.Close() })
		if err := bc.LoadIndex(); err != nil {
			return nil, fmt.Errorf("stack: reload cache index: %w", err)
		}
		n.BlockCache = bc
		cfg.WritePolicy = ccfg.Policy
	}
	cfg.BlockCache = n.BlockCache
	if opts.FileChanAddr != "" {
		cfg.FileChanDial = Dialer(opts.FileChanAddr, opts.FileChanLink, opts.FileChanKey)
	}

	if n.Cachean != nil && n.BlockCache != nil {
		cc := n.BlockCache.Config()
		n.Cachean.SetCapacity(
			uint64(cc.Banks)*uint64(cc.SetsPerBank)*uint64(cc.Assoc)*uint64(cc.BlockSize),
			cc.BlockSize)
	}

	p, err := proxy.New(cfg)
	if err != nil {
		return nil, err
	}
	n.onClose(p.Shutdown)
	n.Proxy, n.Metrics = p, p.MetricsRegistry()
	// Crash recovery: replay any journaled dirty blocks a crashed
	// predecessor left in the cache directory BEFORE the listener
	// starts — by the time a client can reconnect, the server already
	// reflects every previously acknowledged write.
	if n.BlockCache != nil && n.BlockCache.JournalEnabled() {
		if _, err := p.RecoverJournal(); err != nil {
			return nil, fmt.Errorf("stack: journal recovery: %w", err)
		}
	}
	l, err := ListenOn(opts.ListenAddr, opts.ListenLink, opts.ListenKey)
	if err != nil {
		return nil, err
	}
	srv := sunrpc.NewServer()
	srv.Register(nfs3.Program, nfs3.Version, p)
	srv.Register(nfs3.MountProgram, nfs3.MountVersion, p)
	if opts.IdleWriteBack > 0 {
		n.onClose(p.StartIdleWriteBack(opts.IdleWriteBack))
	}
	n.Done = n.serve(srv, l)
	return n, nil
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

// BridgeTunnelStats publishes the tunnel package's process-wide byte
// totals in reg. The daemons call it: only they know one registry
// serves the whole process.
func BridgeTunnelStats(reg *obs.Registry) {
	reg.CounterFunc("gvfs_tunnel_tx_bytes_total",
		"Plaintext bytes sent through tunnels.",
		func() uint64 { return tunnel.ReadStats().TxBytes })
	reg.CounterFunc("gvfs_tunnel_rx_bytes_total",
		"Plaintext bytes received through tunnels.",
		func() uint64 { return tunnel.ReadStats().RxBytes })
	reg.CounterFunc("gvfs_tunnel_elided_bytes_total",
		"Sent plaintext bytes kept off the wire: zero runs that crossed as lengths.",
		func() uint64 { return tunnel.ReadStats().ElidedBytes })
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
// local file cache, into which a miss is fetched (compressed) from the
// upstream file channel; writes pass through. It gives a LAN cache
// server the file-based half of the paper's second-level heterogeneous
// cache.
type relayStore struct {
	dial  func() (net.Conn, error)
	cache *filecache.Cache

	mu       sync.Mutex
	inflight map[string]*relayFetch // misses being fetched, by path
}

// relayFetch is one upstream fetch that concurrent misses of its path
// wait for.
type relayFetch struct {
	done chan struct{}
	err  error // set before done closes
}

// OpenFile implements filechan.FileStore.
func (r *relayStore) OpenFile(path string) (io.ReadCloser, uint64, error) {
	rc, size, err := r.cache.Open(path)
	if !errors.Is(err, filecache.ErrNotCached) {
		return rc, size, err
	}
	if err := r.fetch(path); err != nil {
		return nil, 0, err
	}
	return r.cache.Open(path)
}

// fetch brings path into the cache, once for all the misses that ask
// while it runs.
func (r *relayStore) fetch(path string) error {
	r.mu.Lock()
	if r.cache.Has(path) { // a fetch finished since the caller missed
		r.mu.Unlock()
		return nil
	}
	if f, ok := r.inflight[path]; ok {
		r.mu.Unlock()
		<-f.done
		return f.err
	}
	f := &relayFetch{done: make(chan struct{})}
	r.inflight[path] = f
	r.mu.Unlock()

	f.err = r.fetchUpstream(path)
	r.mu.Lock()
	delete(r.inflight, path)
	r.mu.Unlock()
	close(f.done)
	return f.err
}

func (r *relayStore) fetchUpstream(path string) error {
	conn, err := r.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = r.cache.Fill(path, func(w io.Writer) error {
		_, err := filechan.FetchTo(conn, path, true, w)
		return err
	})
	return err
}

// WriteFileFrom implements filechan.FileStore: a write-through upload
// whose bytes also replace the cached copy once the upstream has them.
func (r *relayStore) WriteFileFrom(path string, src io.Reader, size uint64) error {
	conn, err := r.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = r.cache.Fill(path, func(w io.Writer) error {
		return filechan.PutFrom(conn, path, io.TeeReader(src, w), size, true)
	})
	return err
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
	store := &relayStore{dial: upstreamDial, cache: fc, inflight: make(map[string]*relayFetch)}
	l, err := ListenOn("", listenLink, listenKey)
	if err != nil {
		return nil, err
	}
	n := &Node{}
	n.serve(filechan.NewServer(store), l)
	return n, nil
}
