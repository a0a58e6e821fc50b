package proxy

// One chain for the white-box tests: a proxy over an NFS server that
// serves a memfs in process, with no socket between them, mounted by one
// nfs3.Client. The black-box tests build theirs with stacktest, which
// cannot be imported here (it is built on internal/stack, which imports
// this package); the two specs speak of the same things.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/cache"
	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

// upstreamHook stands between the proxy and the origin. It sees every
// NFS call the proxy sends upstream — MOUNT goes past it — and answers it
// by calling next, which asks the origin, or by itself.
type upstreamHook func(c *sunrpc.Call, next func() ([]byte, error)) ([]byte, error)

// chainSpec declares a chain. Its words are a stacktest hop's: the disk
// cache (policy and geometry) or none, the file channel, dedup and
// read-ahead, plus config for anything else a test sets in Config.
type chainSpec struct {
	fs       *memfs.FS     // the origin's file system (nil: a new one)
	upstream nfs3.Caller   // the origin (nil: an NFS server over fs)
	cache    *cache.Config // the disk cache (nil: 4x4x2 8 KiB blocks, write-back); Dir is filled in
	noCache  bool
	fileChan bool // fs's files go out through a file channel over net.Pipe
	// dedup makes the cache dedup blocks and the backend know their
	// hashes, as a content-addressed store does.
	dedup     bool
	readAhead int
	hook      upstreamHook
	config    func(*Config)
}

// chain is a running in-process chain.
type chain struct {
	p      *Proxy
	nc     *nfs3.Client
	root   nfs3.FH
	fs     *memfs.FS
	origin sunrpc.Local      // the origin's NFS and MOUNT server, under no hook
	rpc    sunrpc.Local      // the proxy
	cred   sunrpc.OpaqueAuth // nc's

	up   nfs3.Caller
	hook upstreamHook
	bs   uint64

	mu    sync.Mutex
	reads []upstreamRead // READs that reached the origin since the last taken
}

// upstreamRead is one READ the proxy sent the origin, in blocks.
type upstreamRead struct{ block, blocks uint64 }

func (u upstreamRead) String() string { return fmt.Sprintf("%d+%d", u.block, u.blocks) }

func newChain(t testing.TB, spec chainSpec) *chain {
	t.Helper()
	c := &chain{fs: spec.fs, up: spec.upstream, hook: spec.hook, bs: 8192}
	if c.fs == nil {
		c.fs = memfs.New()
	}
	if c.up == nil {
		root, err := c.fs.Root()
		if err != nil {
			t.Fatal(err)
		}
		md := mountd.NewServer()
		md.Export("/", root)
		nfsd := nfs3.NewServer(c.fs)
		c.origin = sunrpc.Local{H: sunrpc.HandlerFunc(func(call *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
			if call.Prog == nfs3.MountProgram {
				return md.HandleCall(call)
			}
			return nfsd.HandleCall(call)
		})}
		c.up = c.origin
	}
	cfg := Config{Upstream: c}
	if !spec.noCache {
		cc := cache.Config{Banks: 4, SetsPerBank: 4, Assoc: 2, BlockSize: 8192, Policy: cache.WriteBack}
		if spec.cache != nil {
			cc = *spec.cache
		}
		cc.Dir, cc.Dedup = t.TempDir(), cc.Dedup || spec.dedup
		c.bs = uint64(cc.BlockSize)
		bc, err := cache.New(cc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bc.Close() })
		cfg.BlockCache = bc
	}
	if spec.dedup {
		cfg.Backend = hashingBackend{nfs3be.New(c)}
	}
	if spec.fileChan {
		cfg.FileChanDial = func() (net.Conn, error) {
			a, b := net.Pipe()
			go filechan.NewServer(c.fs).ServeConn(b)
			return a, nil
		}
	}
	cfg.ReadAhead = spec.readAhead
	if spec.config != nil {
		spec.config(&cfg)
	}
	var err error
	if c.p, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.p.Shutdown)
	c.cred = sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "chain"}.Encode()
	c.rpc = sunrpc.Local{H: c.p}
	if c.root, err = mountd.Mount(c.rpc, c.cred, "/"); err != nil {
		t.Fatal(err)
	}
	c.nc = nfs3.NewClient(c.rpc, c.cred)
	return c
}

// Call is the proxy's upstream: the read log, then the hook.
func (c *chain) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	if prog != nfs3.Program {
		return c.up.Call(prog, vers, proc, cred, args)
	}
	c.log(proc, args)
	if c.hook == nil {
		return c.up.Call(prog, vers, proc, cred, args)
	}
	return c.hook(&sunrpc.Call{Prog: prog, Vers: vers, Proc: proc, Cred: cred, Args: args},
		func() ([]byte, error) { return c.up.Call(prog, vers, proc, cred, args) })
}

func (c *chain) log(proc uint32, args []byte) {
	var a nfs3.ReadArgs
	if proc != nfs3.ProcRead || a.DecodeRefInto(args) != nil {
		return
	}
	c.mu.Lock()
	c.reads = append(c.reads, upstreamRead{a.Offset / c.bs, uint64(a.Count) / c.bs})
	c.mu.Unlock()
}

// client returns the chain's proxy, its mounted client and the root handle.
func (c *chain) client() (*Proxy, *nfs3.Client, nfs3.FH) { return c.p, c.nc, c.root }

// taken returns the READs that reached the origin since the last call.
func (c *chain) taken() []upstreamRead {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.reads
	c.reads = nil
	return out
}

// hashingBackend knows its blocks' content hashes, as a content-addressed
// store does — here by reading the block — so that the proxy's dedup
// sources answer.
type hashingBackend struct{ backend.Backend }

func (h hashingBackend) BlockHash(f backend.FileID, block uint64, bs int) (backend.Hash, uint32, bool) {
	r, err := h.Read(f, block*uint64(bs), uint32(bs), backend.CallOpts{})
	if err != nil || len(r.Data) == 0 {
		return backend.Hash{}, 0, false
	}
	defer r.Release()
	return backend.HashOf(r.Data), uint32(len(r.Data)), true
}

// WaitUntil polls cond until it holds, failing the test after timeout.
// It is the one poll loop of this package's tests, black-box ones too.
func WaitUntil(t testing.TB, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
	}
}
