package proxy_test

// One error taxonomy, end to end: a failure that starts at the origin
// reaches a gvfs session through a caching proxy as the status the origin
// answered, or as RPC SYSTEM_ERR when there was no answer, and only a dead
// transport opens the proxy's circuit breaker.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/backend/objstore"
	"gvfs/internal/backend/replbe"
	"gvfs/internal/bubble"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/stack"
	"gvfs/internal/stack/stacktest"
	"gvfs/internal/sunrpc"
)

// failure is how an origin fails the session's read of /img.
type failure struct {
	name   string
	status nfs3.Status // the origin answers with this NFS status
	reject bool        // the origin rejects the call at the RPC level
	stall  bool        // the origin does not answer: the call's budget runs out
	kill   bool        // the transport to the origin is gone
}

var failures = []failure{
	{name: "NOENT", status: nfs3.ErrNoEnt},
	{name: "STALE", status: nfs3.ErrStale},
	{name: "JUKEBOX", status: nfs3.ErrJukebox},
	{name: "ACCES", status: nfs3.ErrAcces}, // a status with no class of its own
	{name: "rejected", reject: true},
	{name: "dead transport", kill: true},
	{name: "expired deadline", stall: true},
}

// faultServer is an NFS and MOUNT server over a memfs holding /img whose
// READs fail, once a failure is armed, as it says.
type faultServer struct {
	nfs     sunrpc.Handler
	srv     *sunrpc.Server
	addr    string
	armed   atomic.Pointer[failure]
	release chan struct{} // ends a stalled READ
}

func startFaultServer(t *testing.T, img []byte) *faultServer {
	t.Helper()
	fs := memfs.New()
	if err := fs.WriteFile("/img", img); err != nil {
		t.Fatal(err)
	}
	root, err := fs.Root()
	if err != nil {
		t.Fatal(err)
	}
	s := &faultServer{nfs: nfs3.NewServer(fs), srv: sunrpc.NewServer(), release: make(chan struct{})}
	md := mountd.NewServer()
	md.Export("/", root)
	s.srv.Register(nfs3.Program, nfs3.Version, s)
	s.srv.Register(nfs3.MountProgram, nfs3.MountVersion, md)
	l, err := stack.ListenOn("pipe:", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	go s.srv.Serve(l)
	t.Cleanup(s.srv.Close)
	t.Cleanup(func() { close(s.release) })
	s.addr = l.Addr().String()
	return s
}

func (s *faultServer) HandleCall(c *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
	f := s.armed.Load()
	if f == nil || c.Proc != nfs3.ProcRead {
		return s.nfs.HandleCall(c)
	}
	switch {
	case f.stall:
		<-s.release
		return nil, sunrpc.SystemErr
	case f.reject:
		return nil, sunrpc.GarbageArgs
	}
	return (&nfs3.ReadRes{Status: f.status}).Encode(), sunrpc.Success
}

// arm makes the server fail as f says: a dead transport is the server
// gone.
func (s *faultServer) arm(f *failure) {
	if f.kill {
		s.srv.Close()
		return
	}
	s.armed.Store(f)
}

// faultStore is an object store whose Gets fail, once armed, with err,
// or, once slow, answer only after the call's budget has run out.
type faultStore struct {
	objstore.Store
	err  atomic.Pointer[error]
	slow atomic.Bool
}

func (s *faultStore) Get(key string) ([]byte, error) {
	if s.slow.Load() {
		time.Sleep(time.Second)
	}
	if err := s.err.Load(); err != nil {
		return nil, *err
	}
	return s.Store.Get(key)
}

// origin builds the hop a session mounts over one kind of origin holding
// /img, and arms a failure there; arm reports false for a failure the
// origin has no way to have.
type origin struct {
	name  string
	start func(t *testing.T, img []byte) (hop stack.ProxyOptions, arm func(*failure) bool)
}

var origins = []origin{
	{"memfs through nfs3be", func(t *testing.T, img []byte) (stack.ProxyOptions, func(*failure) bool) {
		s := startFaultServer(t, img)
		return stack.ProxyOptions{UpstreamAddr: s.addr}, func(f *failure) bool { s.arm(f); return true }
	}},
	{"objstore", func(t *testing.T, img []byte) (stack.ProxyOptions, func(*failure) bool) {
		store := &faultStore{Store: objstore.NewMemStore()}
		if err := objstore.New(store, 0).CreateFile("/img", img); err != nil {
			t.Fatal(err)
		}
		// What a store answers: it has no such object, it refuses, or it
		// fails for no reason it can name — or it answers too late. It has
		// no stale handle, no JUKEBOX and no RPC.
		errs := map[string]error{"NOENT": objstore.ErrNotExist, "ACCES": syscall.EACCES,
			"dead transport": errors.New("connection reset by peer")}
		return stack.ProxyOptions{Backend: stack.BackendObjstore, ObjstoreStore: store}, func(f *failure) bool {
			if f.stall {
				store.slow.Store(true)
				return true
			}
			err, ok := errs[f.name]
			if ok {
				store.err.Store(&err)
			}
			return ok
		}
	}},
	{"3-replica replbe", func(t *testing.T, img []byte) (stack.ProxyOptions, func(*failure) bool) {
		var servers []*faultServer
		var specs []string
		for i := 0; i < 3; i++ {
			s := startFaultServer(t, img)
			servers, specs = append(servers, s), append(specs, "nfs3:"+s.addr)
		}
		hop := stack.ProxyOptions{Backend: stack.BackendRepl, Replicas: specs,
			ReplConfig: replbe.Config{HedgeQuantile: -1, ScrubInterval: -1, ProbeInterval: time.Hour}}
		return hop, func(f *failure) bool {
			for _, s := range servers {
				s.arm(f)
			}
			return true
		}
	}},
}

// TestStatusThroughEveryLayer fails a session's read of /img at each kind
// of origin in each way, and checks per row what the session saw — the
// origin's status (nfs3.StatusOf), NFS3ERR_IO for a rejected call, RPC
// SYSTEM_ERR for a call nobody answered — and the breaker's verdict: open
// after a dead transport only.
func TestStatusThroughEveryLayer(t *testing.T) {
	img := chaosPattern(4*8192, 3)
	for _, o := range origins {
		for _, f := range failures {
			t.Run(fmt.Sprintf("%s/%s", o.name, f.name), func(t *testing.T) {
				bubble.Run(t, func(t *testing.T) {
					hop, arm := o.start(t, img)
					hop.CacheConfig = &cache.Config{Banks: 4, SetsPerBank: 4, Assoc: 2, BlockSize: 8192, Policy: cache.WriteThrough}
					hop.CallBudget = 500 * time.Millisecond // the deadline a stalled call runs out of
					hop.FailureThreshold, hop.ProbeInterval = 1, time.Hour
					c := stacktest.New(t, stack.ChainSpec{Upstream: stack.Own, Hops: []stack.ProxyOptions{hop},
						Session: gvfs.SessionConfig{CallTimeout: time.Minute}})
					if !arm(&f) {
						t.Skipf("%s has no way to fail with %s", o.name, f.name)
					}
					err := readImg(c.Session())
					var rpcErr *sunrpc.RPCError
					systemErr := errors.As(err, &rpcErr) && rpcErr.Stat == sunrpc.SystemErr
					want := f.status
					if f.reject {
						want = nfs3.ErrIO
					}
					switch {
					case err == nil:
						t.Fatal("the read succeeded")
					case f.kill || f.stall:
						if !systemErr {
							t.Errorf("session saw %v, want RPC SYSTEM_ERR", err)
						}
					case systemErr || nfs3.StatusOf(err) != want:
						t.Errorf("session saw %v (status %v), want %v", err, nfs3.StatusOf(err), want)
					}
					if open := c.Hop().Proxy.Degraded(); open != f.kill {
						t.Errorf("breaker open = %v after the failure, want %v", open, f.kill)
					}
				})
			})
		}
	}
}

// readImg opens /img on sess and reads its first block.
func readImg(sess *gvfs.Session) error {
	f, err := sess.Open("/img")
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.ReadAt(make([]byte, 8192), 0)
	return err
}
