package stack_test

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/backend"
	"gvfs/internal/backend/objstore"
	"gvfs/internal/backend/replbe"
	"gvfs/internal/cache"
	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
	"gvfs/internal/tunnel"
)

func TestStartNFSServerAndMount(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/f", []byte("data"))
	node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{Exports: []string{"/", "/alt"}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	for _, export := range []string{"/", "/alt"} {
		sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: export})
		if err != nil {
			t.Fatalf("mount %s: %v", export, err)
		}
		data, err := sess.ReadFile("/f")
		if err != nil || string(data) != "data" {
			t.Errorf("read via %s: %v", export, err)
		}
		sess.Close()
	}
}

func TestImageServerEncryptedEndToEnd(t *testing.T) {
	fs := memfs.New()
	payload := bytes.Repeat([]byte{0x42}, 32*1024)
	fs.WriteFile("/blob", payload)
	link := simnet.NewLink(simnet.Local())
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: link, Encrypt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if server.Key == nil {
		t.Fatal("no session key generated")
	}

	// Plain TCP to the tunneled listener must fail the handshake.
	if conn, err := net.Dial("tcp", server.ProxyAddr()); err == nil {
		conn.Write([]byte("not a tunnel handshake at all........"))
		buf := make([]byte, 8)
		conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		if _, err := conn.Read(buf); err == nil {
			t.Error("un-tunneled client got a reply from encrypted listener")
		}
		conn.Close()
	}

	// A proper chain (client proxy with matching key) works.
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		UpstreamLink: link,
		UpstreamKey:  server.Key,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, err := sess.ReadFile("/blob")
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("encrypted chain read: %v", err)
	}

	// File channel over the tunnel too.
	dial := stack.Dialer(server.FileChanAddr(), link, server.Key)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data, err := filechan.Fetch(conn, "/blob", true)
	if err != nil || !bytes.Equal(data, payload) {
		t.Errorf("tunneled file channel: %v", err)
	}
}

func TestProxyWrongKeyFails(t *testing.T) {
	fs := memfs.New()
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Encrypt: true})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	wrong, _ := tunnel.NewKey()
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		UpstreamKey:  wrong,
	})
	if err != nil {
		// Connection-level failure at startup is acceptable.
		return
	}
	defer node.Close()
	if _, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/"}); err == nil {
		t.Error("mount through mismatched keys succeeded")
	}
}

func TestFileChanRelayCachesUpstream(t *testing.T) {
	fs := memfs.New()
	payload := bytes.Repeat([]byte("golden"), 10000)
	fs.WriteFile("/img.vmss", payload)
	upstream, err := stack.StartFileChanServer(fs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()

	relay, err := stack.StartFileChanRelay(stack.Dialer(upstream.Addr, nil, nil), t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	fetch := func() []byte {
		conn, err := net.Dial("tcp", relay.Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		data, err := filechan.Fetch(conn, "/img.vmss", true)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(fetch(), payload) {
		t.Fatal("first fetch mismatch")
	}
	// Kill the upstream: the relay must serve from its cache.
	upstream.Close()
	if !bytes.Equal(fetch(), payload) {
		t.Error("relay did not serve from cache after upstream death")
	}
}

// slowOpens is a FileStore that counts the files opened on it and holds
// the first open until every expected open has arrived or a while has
// passed, so misses that come together overlap in the relay.
type slowOpens struct {
	*memfs.FS
	opens   atomic.Int32
	want    int32
	arrived chan struct{}
}

func (s *slowOpens) OpenFile(path string) (io.ReadCloser, uint64, error) {
	if s.opens.Add(1) == s.want {
		close(s.arrived)
	}
	select {
	case <-s.arrived:
	case <-time.After(200 * time.Millisecond):
	}
	return s.FS.OpenFile(path)
}

// Concurrent misses of one path at a file-channel relay join one
// upstream fetch, and each gets the whole file — the access pattern of
// parallel clones of one golden image behind a LAN cache.
func TestFileChanRelayMissGoesUpstreamOnce(t *testing.T) {
	const clients = 8
	fs := memfs.New()
	img := make([]byte, 3<<20)
	for i := range img {
		img[i] = byte(i / 4096)
	}
	fs.WriteFile("/golden/img.vmss", img)
	store := &slowOpens{FS: fs, want: clients, arrived: make(chan struct{})}
	upstream, err := stack.StartFileChanServer(store, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()
	relay, err := stack.StartFileChanRelay(stack.Dialer(upstream.Addr, nil, nil), t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", relay.Addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if got, err := filechan.Fetch(conn, "/golden/img.vmss", true); err != nil || !bytes.Equal(got, img) {
				t.Errorf("fetch through the relay: %d bytes, err=%v", len(got), err)
			}
		}()
	}
	wg.Wait()
	if n := store.opens.Load(); n != 1 {
		t.Errorf("%d concurrent misses made %d upstream fetches, want 1", clients, n)
	}
}

func TestNodeCleanupRuns(t *testing.T) {
	fs := memfs.New()
	node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	node.AddCleanup(func() { ran = true })
	node.Close()
	if !ran {
		t.Error("cleanup not invoked")
	}
}

// TestStartProxyListenAddr: an explicit ListenAddr is the address the
// proxy serves on; an empty one picks an ephemeral loopback port; and
// Options() leaves it empty, so two proxies built from two flag sets
// coexist in one process.
func TestStartProxyListenAddr(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/f", []byte("data"))
	nfsd, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer nfsd.Close()
	readThrough := func(addr string) {
		t.Helper()
		sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: addr, Export: "/"})
		if err != nil {
			t.Fatalf("mount %s: %v", addr, err)
		}
		defer sess.Close()
		if data, err := sess.ReadFile("/f"); err != nil || string(data) != "data" {
			t.Errorf("read through %s: %q, %v", addr, data, err)
		}
	}

	// Reserve a port, release it, and ask for exactly that address.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	want := probe.Addr().String()
	probe.Close()
	explicit, err := stack.StartProxy(stack.ProxyOptions{UpstreamAddr: nfsd.Addr, ListenAddr: want})
	if err != nil {
		t.Fatal(err)
	}
	defer explicit.Close()
	if explicit.Addr != want {
		t.Errorf("ListenAddr %s: proxy serves on %s", want, explicit.Addr)
	}
	readThrough(want)

	var nodes []*stack.Node
	for i := 0; i < 2; i++ {
		set := flag.NewFlagSet("gvfsproxy", flag.ContinueOnError)
		flags := stack.BindProxyFlags(set)
		if err := set.Parse([]string{"-upstream", nfsd.Addr}); err != nil {
			t.Fatal(err)
		}
		opts, err := flags.Options()
		if err != nil {
			t.Fatal(err)
		}
		if opts.ListenAddr != "" {
			t.Fatalf("Options() set ListenAddr %q", opts.ListenAddr)
		}
		node, err := stack.StartProxy(opts)
		if err != nil {
			t.Fatalf("proxy %d from Options(): %v", i, err)
		}
		defer node.Close()
		host, port, err := net.SplitHostPort(node.Addr)
		if err != nil || host != "127.0.0.1" || port == "0" {
			t.Errorf("empty ListenAddr: serving on %q, want an ephemeral loopback port", node.Addr)
		}
		nodes = append(nodes, node)
	}
	if nodes[0].Addr == nodes[1].Addr {
		t.Fatalf("two proxies share %s", nodes[0].Addr)
	}
	readThrough(nodes[0].Addr)
	readThrough(nodes[1].Addr)
}

// refusingReplica is an origin that refuses every write, so a dirty
// block stays dirty and the idle writer retries it on every tick. Its
// Close takes many ticks, and it counts the writes that still arrive
// once Close has begun.
type refusingReplica struct {
	*objstore.Backend
	writes atomic.Int64
	closed atomic.Bool
	late   atomic.Int64
}

func (r *refusingReplica) Write(backend.FileID, uint64, []byte, backend.CallOpts) (backend.WriteResult, error) {
	r.writes.Add(1)
	if r.closed.Load() {
		r.late.Add(1)
	}
	return backend.WriteResult{}, &backend.Error{Class: backend.ClassIO, Op: "write", Err: errors.New("origin refuses writes")}
}

func (r *refusingReplica) Close() error {
	r.closed.Store(true)
	time.Sleep(100 * time.Millisecond)
	return r.Backend.Close()
}

// TestCloseStopsUsersBeforeWhatTheyUse: Close must stop the idle
// writer and the proxy before it closes the cache and the upstream
// they write to. Tearing down in construction order instead let idle
// ticks run write-backs against an upstream that was already closed.
func TestCloseStopsUsersBeforeWhatTheyUse(t *testing.T) {
	const idle = 8 * time.Millisecond // one tick every 2 ms
	store := objstore.NewMemStore()
	origin := &refusingReplica{Backend: objstore.New(store, 0)}
	if err := origin.CreateFile("/f", make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	node, err := stack.StartProxy(stack.ProxyOptions{
		Backend:         stack.BackendRepl,
		ReplicaBackends: []replbe.Replica{{Name: "r0", B: origin}},
		CacheConfig: &cache.Config{Dir: t.TempDir(), Banks: 2, SetsPerBank: 2, Assoc: 2,
			BlockSize: 8192, Policy: cache.WriteBack},
		IdleWriteBack: idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			node.Close()
		}
	}()

	conn, err := stack.Dialer(node.Addr, nil, nil)()
	if err != nil {
		t.Fatal(err)
	}
	rpc := sunrpc.NewClient(conn)
	defer rpc.Close()
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "t"}.Encode()
	root, err := mountd.Mount(rpc, cred, "/")
	if err != nil {
		t.Fatal(err)
	}
	client := nfs3.NewClient(rpc, cred)
	fh, _, err := client.Lookup(root, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Write(fh, 0, bytes.Repeat([]byte{1}, 8192), nfs3.Unstable); err != nil {
		t.Fatal(err)
	}
	// The idle writer is live once it has tried (and been refused).
	for deadline := time.Now().Add(5 * time.Second); origin.writes.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("idle writer never attempted a write-back")
		}
		time.Sleep(time.Millisecond)
	}
	node.Close()
	closed = true
	if n := origin.late.Load(); n != 0 {
		t.Errorf("%d write-backs reached the origin after its Close began", n)
	}
}

// A peer that connects and says nothing (a port scan) holds up only its
// own handshake: a real tunnel client behind it is accepted at once,
// not after the silent peer's handshake deadline.
func TestTunnelListenerSilentPeerDoesNotBlockAccept(t *testing.T) {
	key, err := tunnel.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	l, err := stack.ListenOn("127.0.0.1:0", nil, key)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	accepted := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err == nil {
			_, err = conn.Write([]byte("hello"))
		}
		accepted <- err
	}()
	conn, err := stack.Dialer(l.Addr().String(), nil, key)()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case err := <-accepted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a silent peer stalled Accept for a real tunnel client")
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "hello" {
		t.Fatalf("read %q, %v through the accepted tunnel", buf, err)
	}

	// Close unblocks Accept with an error and does not wait for the
	// silent peer's handshake to time out.
	go func() { _, err := l.Accept(); accepted <- err }()
	closed := time.Now()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-accepted; err == nil {
		t.Error("Accept returned a connection after Close")
	}
	if d := time.Since(closed); d > time.Second {
		t.Errorf("Close took %v with a handshake in flight", d)
	}
}
