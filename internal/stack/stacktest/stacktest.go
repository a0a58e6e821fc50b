// Package stacktest builds the GVFS chains tests run against, as
// net/http/httptest builds a server: an origin, zero to two proxies in
// front of it and the sessions that mount the first hop, declared in a
// Spec, wired with stack.StartImageServer, StartNFSServer and StartProxy
// alone, and closed through t.Cleanup, last built first.
//
// With GVFS_CHAOS_LOG_DIR set, every hop logs into a ring and keeps a
// flight recorder, and a chain whose test failed writes each hop's /logz,
// /statusz and /flightrec documents into that directory.
package stacktest

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/backend/replbe"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

// Upstream names what the last hop of a chain stands on.
type Upstream int

const (
	// MemFS is an image server (stack.StartImageServer) over Chain.FS:
	// NFS server, identity-mapping server proxy and file channel.
	MemFS Upstream = iota
	// NFS is a bare NFS server (stack.StartNFSServer) over Spec.Origin,
	// or over Chain.FS when that is nil.
	NFS
	// Objstore is the object store the last hop's ObjstoreStore names,
	// which the hop serves itself.
	Objstore
	// Repl is three NFS servers over identically seeded file systems,
	// each reached across a link of its own, as the last hop's
	// replicated backend. The control plane rides an unshaped
	// connection to replica 0.
	Repl
	// Own leaves the last hop's options to name their upstream; nothing
	// is built below it.
	Own
)

// Cred is the AUTH_UNIX credential of the grid user the paper's compute
// server runs sessions for.
var Cred = sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute1"}.Encode()

// Spec declares a chain.
type Spec struct {
	Upstream Upstream
	// FS is the origin's file system (nil: a new one). Under Repl it is
	// replica 0's.
	FS *memfs.FS
	// Seed writes the origin's files before anything serves them. Under
	// Repl it runs once per replica, and must write the same files in the
	// same order: memfs handles are sequential, which is what makes the
	// replicas interchangeable under one handle.
	Seed func(*memfs.FS)
	// Origin is the backend an NFS upstream serves (nil: FS).
	Origin nfs3.Backend

	// Hops are the proxies, Hops[0] the one sessions mount and the last
	// the one on the upstream; none and sessions mount the origin. Where
	// a hop leaves them empty the builder fills in its upstream address
	// (the next hop's, or the origin's), the origin's link and tunnel key
	// on the last hop, and a fresh directory as its cache Dir.
	Hops []stack.ProxyOptions
	// Link is the path to the origin: nil for plain loopback, or a
	// simnet link (simnet.NewLink(simnet.LAN()) or WAN()) the test can
	// also fault.
	Link *simnet.Link
	// FileChan points the first hop at a MemFS image server's file
	// channel.
	FileChan bool

	// Session is the session mounted on the first hop, with Addr and
	// Export filled in; NoSession mounts none. Chain.Mount adds more.
	Session   gvfs.SessionConfig
	NoSession bool

	// Replicas shapes each Repl replica's link (nil: three local ones),
	// and ReplicaClient each replica's RPC client.
	Replicas      []simnet.Profile
	ReplicaClient sunrpc.ClientOptions
}

// Chain is a running chain.
type Chain struct {
	FS     *memfs.FS
	Server *stack.ImageServer // the MemFS origin
	NFS    *stack.Node        // the NFS origin
	Hops   []*stack.Node
	// Replicas are a Repl chain's file systems, ReplicaLinks the links
	// to them.
	Replicas     []*memfs.FS
	ReplicaLinks []*simnet.Link

	t       testing.TB
	sess    *gvfs.Session
	mu      sync.Mutex
	closers []func() // in build order
	closed  bool
	origin  func()                 // closes the MemFS or NFS origin, once
	rings   []*obs.Ring[obs.Event] // each hop's log, under GVFS_CHAOS_LOG_DIR
}

// New builds the chain spec declares, failing the test if it cannot.
func New(t testing.TB, spec Spec) *Chain {
	t.Helper()
	c, err := Start(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Start builds the chain spec declares. On error, what was built is
// closed again.
func Start(t testing.TB, spec Spec) (_ *Chain, err error) {
	t.Helper()
	c := &Chain{FS: spec.FS, t: t}
	t.Cleanup(c.Close)
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	if c.FS == nil {
		c.FS = memfs.New()
	}
	if spec.Seed != nil && spec.Upstream != Repl {
		spec.Seed(c.FS)
	}
	diagnose := os.Getenv("GVFS_CHAOS_LOG_DIR") != ""

	// The origin, and how the last hop reaches it.
	var up stack.ProxyOptions
	addr := "" // what sessions mount when there is no hop
	switch spec.Upstream {
	case MemFS:
		if c.Server, err = stack.StartImageServer(c.FS, stack.ImageServerOptions{Link: spec.Link}); err != nil {
			return nil, err
		}
		c.origin = sync.OnceFunc(c.Server.Close)
		c.onClose(c.origin)
		addr = c.Server.ProxyAddr()
		up = stack.ProxyOptions{UpstreamAddr: addr, UpstreamLink: spec.Link, UpstreamKey: c.Server.Key}
	case NFS:
		origin := spec.Origin
		if origin == nil {
			origin = c.FS
		}
		if c.NFS, err = stack.StartNFSServer(origin, stack.NFSServerOptions{ListenLink: spec.Link}); err != nil {
			return nil, err
		}
		c.origin = sync.OnceFunc(c.NFS.Close)
		c.onClose(c.origin)
		addr = c.NFS.Addr
		up = stack.ProxyOptions{UpstreamAddr: addr, UpstreamLink: spec.Link}
	case Objstore:
		up = stack.ProxyOptions{Backend: stack.BackendObjstore}
	case Repl:
		if up, err = c.startReplicas(spec); err != nil {
			return nil, err
		}
	}

	// The hops, the last first.
	c.Hops = make([]*stack.Node, len(spec.Hops))
	c.rings = make([]*obs.Ring[obs.Event], len(spec.Hops))
	for i := len(spec.Hops) - 1; i >= 0; i-- {
		o := spec.Hops[i]
		if i < len(spec.Hops)-1 {
			up = stack.ProxyOptions{UpstreamAddr: c.Hops[i+1].Addr}
		}
		if o.UpstreamAddr == "" && o.Backend == "" && len(o.ReplicaBackends) == 0 {
			o.UpstreamAddr, o.Backend, o.ReplicaBackends = up.UpstreamAddr, up.Backend, up.ReplicaBackends
			if o.UpstreamLink == nil {
				o.UpstreamLink = up.UpstreamLink
			}
			if o.UpstreamKey == nil {
				o.UpstreamKey = up.UpstreamKey
			}
		}
		if i == 0 && spec.FileChan && o.FileChanAddr == "" {
			o.FileChanAddr, o.FileChanKey = c.Server.FileChanAddr(), c.Server.Key
		}
		if o.CacheConfig != nil && o.CacheConfig.Dir == "" {
			cc := *o.CacheConfig
			cc.Dir = t.TempDir()
			o.CacheConfig = &cc
		}
		if diagnose {
			if o.Logger == nil {
				c.rings[i] = obs.NewRing[obs.Event](512)
				o.Logger = slog.New(obs.NewLogHandler(slog.LevelDebug, nil, c.rings[i], nil))
			}
			if o.FlightRing == 0 {
				o.FlightRing = 64
			}
		}
		n, err := stack.StartProxy(o)
		if err != nil {
			return nil, fmt.Errorf("stacktest: hop %d: %w", i, err)
		}
		c.onClose(n.Close)
		c.Hops[i] = n
	}
	if diagnose {
		c.dumpOnFailure()
	}

	// The session.
	if spec.NoSession {
		return c, nil
	}
	if len(c.Hops) > 0 {
		addr = c.Hops[0].Addr
	}
	cfg := spec.Session
	if cfg.Addr == "" && cfg.Dial == nil {
		cfg.Addr = addr
	}
	if c.sess, err = c.mount(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// startReplicas starts a Repl chain's three NFS servers and returns the
// last hop's upstream: the replica set, and replica 0 as the
// control-plane relay.
func (c *Chain) startReplicas(spec Spec) (stack.ProxyOptions, error) {
	profiles := spec.Replicas
	if profiles == nil {
		profiles = []simnet.Profile{simnet.Local(), simnet.Local(), simnet.Local()}
	}
	up := stack.ProxyOptions{Backend: stack.BackendRepl}
	for i, p := range profiles {
		fs := c.FS
		if i > 0 {
			fs = memfs.New()
		}
		if spec.Seed != nil {
			spec.Seed(fs)
		}
		server, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
		if err != nil {
			return up, err
		}
		c.onClose(server.Close)
		if i == 0 {
			up.UpstreamAddr = server.Addr
		}
		link := simnet.NewLink(p)
		dial := stack.Dialer(server.Addr, link, nil)
		conn, err := dial()
		if err != nil {
			return up, err
		}
		opts := spec.ReplicaClient
		opts.Redial, opts.Idempotent = dial, nfs3.RetrySafe
		client := sunrpc.NewClientWithOptions(conn, opts)
		c.onClose(func() { client.Close() })
		up.ReplicaBackends = append(up.ReplicaBackends, replbe.Replica{Name: fmt.Sprintf("r%d", i), B: nfs3be.New(client)})
		c.Replicas = append(c.Replicas, fs)
		c.ReplicaLinks = append(c.ReplicaLinks, link)
	}
	return up, nil
}

// onClose registers one shutdown step; Close runs them last-registered
// first.
func (c *Chain) onClose(f func()) {
	c.mu.Lock()
	c.closers = append(c.closers, f)
	c.mu.Unlock()
}

// Close closes the chain: the sessions, then the hops from the first,
// then the origin. It runs once; the test's cleanup calls it too.
func (c *Chain) Close() {
	c.mu.Lock()
	closers, closed := c.closers, c.closed
	c.closed = true
	c.mu.Unlock()
	if closed {
		return
	}
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
}

// StopOrigin closes the MemFS or NFS origin under the running chain, as
// an image server that dies. Close does not close it again.
func (c *Chain) StopOrigin() { c.origin() }

// Hop returns the first hop, the one sessions mount.
func (c *Chain) Hop() *stack.Node { return c.Hops[0] }

// Session returns the session the spec mounted.
func (c *Chain) Session() *gvfs.Session { return c.sess }

// Mount mounts one more session, closed with the chain: on the first hop
// unless cfg names an address.
func (c *Chain) Mount(cfg gvfs.SessionConfig) *gvfs.Session {
	c.t.Helper()
	if cfg.Addr == "" && cfg.Dial == nil {
		cfg.Addr = c.Hops[0].Addr
	}
	sess, err := c.mount(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	return sess
}

func (c *Chain) mount(cfg gvfs.SessionConfig) (*gvfs.Session, error) {
	if cfg.Export == "" {
		cfg.Export = "/"
	}
	sess, err := gvfs.Mount(cfg)
	if err != nil {
		return nil, fmt.Errorf("stacktest: mount %s: %w", cfg.Addr, err)
	}
	c.onClose(func() { sess.Close() })
	return sess, nil
}

// OriginCalls counts the calls of NFS procedure proc ("READ", "WRITE",
// ...; "" for every call) that have reached a MemFS origin: its server
// proxy, which forwards each one to the NFS server.
func (c *Chain) OriginCalls(proc string) uint64 {
	snap := c.Server.Proxy.Proxy.Snapshot()
	if proc == "" {
		return snap.Counter("gvfs_proxy_calls_total")
	}
	return snap.Histograms[`gvfs_proxy_rpc_duration_seconds{proc="`+proc+`"}`].Count
}

// chainsBuilt numbers the chains each test builds, so that the dumps of
// two chains in one test do not overwrite each other.
var chainsBuilt = struct {
	sync.Mutex
	n map[string]int
}{n: map[string]int{}}

// dumpOnFailure registers a cleanup that, if the test failed, writes each
// hop's log ring, /statusz document and flight recordings into
// $GVFS_CHAOS_LOG_DIR as <test>.chainK.hopN.<kind>.json, K counting the
// test's chains from 1. Registered after the hops' own, it runs before
// they close.
func (c *Chain) dumpOnFailure() {
	t := c.t
	dir := os.Getenv("GVFS_CHAOS_LOG_DIR")
	base := strings.ReplaceAll(t.Name(), "/", "_")
	chainsBuilt.Lock()
	chainsBuilt.n[base]++
	base = fmt.Sprintf("%s.chain%d", base, chainsBuilt.n[base])
	chainsBuilt.Unlock()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("chain diagnostics: %v", err)
			return
		}
		dump := func(name string, write func(io.Writer) error) {
			path := filepath.Join(dir, base+"."+name+".json")
			f, err := os.Create(path)
			if err != nil {
				t.Logf("chain diagnostics: %v", err)
				return
			}
			defer f.Close()
			if err := write(f); err != nil {
				t.Logf("chain diagnostics: %s: %v", name, err)
				return
			}
			t.Logf("chain diagnostics: wrote %s", path)
		}
		for i, n := range c.Hops {
			if ring := c.rings[i]; ring != nil {
				dump(fmt.Sprintf("hop%d.logz", i), func(w io.Writer) error { return obs.WriteLogz(w, ring) })
			}
			dump(fmt.Sprintf("hop%d.statusz", i), n.Proxy.WriteStatusz)
			if n.Flight != nil {
				dump(fmt.Sprintf("hop%d.flightrec", i), n.Flight.WriteJSON)
			}
		}
	})
}
