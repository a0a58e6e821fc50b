package stack

import (
	"fmt"
	"os"
	"sync"

	gvfs "gvfs"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/backend/replbe"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/simnet"
	"gvfs/internal/sunrpc"
)

// Upstream names what the last hop of a chain stands on.
type Upstream int

const (
	// MemFS is an image server (StartImageServer) over Chain.FS: NFS
	// server, identity-mapping server proxy and file channel.
	MemFS Upstream = iota
	// NFS is a bare NFS server (StartNFSServer) over ChainSpec.Origin,
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

// ChainSpec declares a chain: an origin, zero or more proxies in front
// of it and the session that mounts the first of them. The paper's
// deployments, the benchmark's scenarios and the tests' chains are all
// one of these.
type ChainSpec struct {
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
	// Encrypt tunnels a MemFS image server's proxy and file channel.
	Encrypt bool

	// Hops are the proxies, Hops[0] the one sessions mount and the last
	// the one on the upstream; none and sessions mount the origin. Where
	// a hop leaves them empty the builder fills in its upstream address
	// (the next hop's, or the origin's), the origin's link and tunnel key
	// on the last hop, and a fresh directory under WorkDir as its cache
	// Dir.
	Hops []ProxyOptions
	// Link is the path to the origin: nil for an unshaped connection, or
	// a simnet link (simnet.NewLink(simnet.LAN()) or WAN()) the caller
	// can also fault.
	Link *simnet.Link
	// FileChan points the first hop at a MemFS image server's file
	// channel: its address, Link and key, where the hop leaves them empty.
	FileChan bool
	// WorkDir holds the cache directories the builder makes ("": the
	// system's temporary directory). Close removes them.
	WorkDir string

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
	Server *ImageServer // the MemFS origin
	NFS    *Node        // the NFS origin
	Hops   []*Node
	// Replicas are a Repl chain's file systems, ReplicaLinks the links
	// to them.
	Replicas     []*memfs.FS
	ReplicaLinks []*simnet.Link

	addr    string // what sessions mount: the first hop, or the origin
	sess    *gvfs.Session
	mu      sync.Mutex
	closers []func() // in build order
	closed  bool
	origin  func() // closes the MemFS or NFS origin, once
}

// StartChain builds the chain spec declares. Every node it starts
// listens on simnet's in-memory network, unless a hop names its own
// ListenAddr: nothing opens a socket, so the whole chain can run inside
// a testing/synctest bubble. On error, everything it started is closed
// and every directory it made removed.
func StartChain(spec ChainSpec) (_ *Chain, err error) {
	c := &Chain{FS: spec.FS}
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

	// The origin, and how the last hop reaches it.
	var up ProxyOptions
	switch spec.Upstream {
	case MemFS:
		if c.Server, err = startImageServer(c.FS, ImageServerOptions{Link: spec.Link, Encrypt: spec.Encrypt}, inMemory); err != nil {
			return nil, err
		}
		c.origin = sync.OnceFunc(c.Server.Close)
		c.onClose(c.origin)
		c.addr = c.Server.ProxyAddr()
		up = ProxyOptions{UpstreamAddr: c.addr, UpstreamLink: spec.Link, UpstreamKey: c.Server.Key}
	case NFS:
		origin := spec.Origin
		if origin == nil {
			origin = c.FS
		}
		if c.NFS, err = startNFSServer(origin, NFSServerOptions{ListenLink: spec.Link}, inMemory); err != nil {
			return nil, err
		}
		c.origin = sync.OnceFunc(c.NFS.Close)
		c.onClose(c.origin)
		c.addr = c.NFS.Addr
		up = ProxyOptions{UpstreamAddr: c.addr, UpstreamLink: spec.Link}
	case Objstore:
		up = ProxyOptions{Backend: BackendObjstore}
	case Repl:
		if up, err = c.startReplicas(spec); err != nil {
			return nil, err
		}
	}

	// The hops, the last first.
	c.Hops = make([]*Node, len(spec.Hops))
	for i := len(spec.Hops) - 1; i >= 0; i-- {
		o := spec.Hops[i]
		if i < len(spec.Hops)-1 {
			up = ProxyOptions{UpstreamAddr: c.Hops[i+1].Addr}
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
			if o.FileChanLink == nil {
				o.FileChanLink = spec.Link
			}
		}
		if o.ListenAddr == "" {
			o.ListenAddr = inMemory
		}
		if o.CacheConfig != nil && o.CacheConfig.Dir == "" {
			dir, err := os.MkdirTemp(spec.WorkDir, fmt.Sprintf("hop%d-cache-", i))
			if err != nil {
				return nil, err
			}
			c.onClose(func() { os.RemoveAll(dir) })
			cc := *o.CacheConfig
			cc.Dir = dir
			o.CacheConfig = &cc
		}
		n, err := StartProxy(o)
		if err != nil {
			return nil, fmt.Errorf("stack: chain hop %d: %w", i, err)
		}
		c.onClose(n.Close)
		c.Hops[i] = n
	}
	if len(c.Hops) > 0 {
		c.addr = c.Hops[0].Addr
	}

	// The session.
	if !spec.NoSession {
		if c.sess, err = c.Mount(spec.Session); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// inMemory is the address a chain's nodes listen on: a fresh name on
// simnet's in-memory network each.
const inMemory = "pipe:"

// startReplicas starts a Repl chain's NFS servers and returns the last
// hop's upstream: the replica set, and replica 0 as the control-plane
// relay.
func (c *Chain) startReplicas(spec ChainSpec) (ProxyOptions, error) {
	profiles := spec.Replicas
	if profiles == nil {
		profiles = []simnet.Profile{simnet.Local(), simnet.Local(), simnet.Local()}
	}
	up := ProxyOptions{Backend: BackendRepl}
	for i, p := range profiles {
		fs := c.FS
		if i > 0 {
			fs = memfs.New()
		}
		if spec.Seed != nil {
			spec.Seed(fs)
		}
		server, err := startNFSServer(fs, NFSServerOptions{}, inMemory)
		if err != nil {
			return up, err
		}
		c.onClose(server.Close)
		if i == 0 {
			up.UpstreamAddr = server.Addr
		}
		link := simnet.NewLink(p)
		dial := Dialer(server.Addr, link, nil)
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
// each before the cache directory the builder made for it, then the
// origin. It runs once.
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
func (c *Chain) Hop() *Node { return c.Hops[0] }

// Session returns the session the spec mounted.
func (c *Chain) Session() *gvfs.Session { return c.sess }

// Mount mounts one more session, closed with the chain: on the first
// hop, or on the origin when there is none, unless cfg names an address.
func (c *Chain) Mount(cfg gvfs.SessionConfig) (*gvfs.Session, error) {
	if cfg.Addr == "" && cfg.Dial == nil {
		cfg.Addr = c.addr
	}
	if cfg.Export == "" {
		cfg.Export = "/"
	}
	sess, err := gvfs.Mount(cfg)
	if err != nil {
		return nil, fmt.Errorf("stack: mount %s: %w", cfg.Addr, err)
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
