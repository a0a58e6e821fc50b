package simnet

// The in-memory network: names, refusals, faults and deadlines on pipe
// connections, which is what a chain built by stack.StartChain runs on.

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// pipeEcho listens on a fresh pipe name through link and echoes every
// connection it accepts until the test ends.
func pipeEcho(t *testing.T, link *Link) net.Listener {
	t.Helper()
	l, err := Listen(pipePrefix, link)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return l
}

func TestPipeDialAndNames(t *testing.T) {
	l := pipeEcho(t, nil)
	addr := l.Addr().String()
	if !strings.HasPrefix(addr, pipePrefix) || addr == pipePrefix {
		t.Fatalf("listener address %q, want pipe:N", addr)
	}
	if other := pipeEcho(t, nil).Addr().String(); other == addr {
		t.Fatalf("two listeners share the name %s", addr)
	}
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		c, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.RemoteAddr().String() != addr || seen[c.LocalAddr().String()] {
			t.Errorf("dial %d: %s -> %s, want a name of its own -> %s", i, c.LocalAddr(), c.RemoteAddr(), addr)
		}
		seen[c.LocalAddr().String()] = true
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping" {
			t.Fatalf("echo %d: %q, %v", i, buf, err)
		}
	}
}

func TestPipeDialRefused(t *testing.T) {
	if c, err := Dial("pipe:none", nil); err == nil {
		c.Close()
		t.Fatal("a dial to a name nobody listens on connected")
	}
	l, err := Listen(pipePrefix, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	// Dialed but never accepted: closing the listener resets it.
	pending, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pending.Close()
	l.Close()
	if _, err := pending.Read(make([]byte, 1)); err == nil {
		t.Error("a connection the closed listener never accepted is still open")
	}
	if c, err := Dial(addr, nil); err == nil {
		c.Close()
		t.Fatalf("a dial to the closed listener %s connected", addr)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept on a closed listener: %v, want net.ErrClosed", err)
	}
}

func TestPartitionRefusesPipeDial(t *testing.T) {
	link := NewLink(Local())
	addr := pipeEcho(t, link).Addr().String()
	link.Partition()
	if c, err := Dial(addr, link); err == nil {
		c.Close()
		t.Fatal("dial succeeded through a partitioned link")
	}
	link.Heal()
	c, err := Dial(addr, link)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c.Close()
}

func TestDropKillsPipeConns(t *testing.T) {
	link := NewLink(Local())
	c, err := Dial(pipeEcho(t, link).Addr().String(), link)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		done <- err
	}()
	link.Drop()
	select {
	case err := <-done:
		if err == nil {
			t.Error("read returned data from a dropped pipe connection")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked after Drop")
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("write on a dropped pipe connection succeeded")
	}
}

// TestPipeReadDeadline: the tunnel handshake bounds its reads with a
// deadline, so a pipe connection must honour one, shaped or not.
func TestPipeReadDeadline(t *testing.T) {
	for _, link := range []*Link{nil, NewLink(Local())} {
		l, err := Listen(pipePrefix, link)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		c, err := Dial(l.Addr().String(), link)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		srv, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if _, err := srv.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("read past its deadline (link %v): %v, want os.ErrDeadlineExceeded", link != nil, err)
		}
		srv.SetReadDeadline(time.Time{})
		go c.Write([]byte("x"))
		if _, err := srv.Read(make([]byte, 1)); err != nil {
			t.Errorf("read after clearing the deadline (link %v): %v", link != nil, err)
		}
	}
}
