package stack_test

import (
	"bytes"
	"io"
	"net"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/tunnel"

	"time"
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
