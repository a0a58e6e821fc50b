package stack_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"net"
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

// TestCallTimeoutAloneDoesNotRetransmit: a call timeout without a retry
// budget bounds one attempt and makes no second one. Behind an upstream
// that never answers, a GETATTR costs one upstream call and fails within
// about one timeout.
func TestCallTimeoutAloneDoesNotRetransmit(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var calls atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var mark [4]byte
				for {
					if _, err := io.ReadFull(conn, mark[:]); err != nil {
						return
					}
					n := int64(binary.BigEndian.Uint32(mark[:]) &^ (1 << 31))
					if _, err := io.CopyN(io.Discard, conn, n); err != nil {
						return
					}
					calls.Add(1) // one record: a call, never answered
				}
			}()
		}
	}()
	node, err := stack.StartProxy(stack.ProxyOptions{UpstreamAddr: l.Addr().String(),
		UpstreamCallTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	rpc, err := sunrpc.Dial(node.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	nc := nfs3.NewClient(rpc, sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "t"}.Encode())
	start := time.Now()
	if _, err := nc.GetAttr(nfs3.FH("some-handle")); err == nil {
		t.Fatal("GETATTR answered by an upstream that never answers")
	}
	if took, n := time.Since(start), calls.Load(); n != 1 || took > time.Second {
		t.Errorf("GETATTR failed after %v and %d upstream calls, want 1 call within 1s", took, n)
	}
}
