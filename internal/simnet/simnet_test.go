package simnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestProfileMath(t *testing.T) {
	p := Profile{RTT: 30 * time.Millisecond, Bandwidth: 1e6}
	if got := p.OneWayDelay(); got != 15*time.Millisecond {
		t.Errorf("OneWayDelay = %v", got)
	}
	if got := p.TransmitTime(1e6); got != time.Second {
		t.Errorf("TransmitTime(1MB) = %v", got)
	}
}

func TestProfileScale(t *testing.T) {
	p := Profile{RTT: 30 * time.Millisecond, Bandwidth: 1e6, Scale: 10}
	if got := p.OneWayDelay(); got != 1500*time.Microsecond {
		t.Errorf("scaled OneWayDelay = %v", got)
	}
	if got := p.TransmitTime(1e6); got != 100*time.Millisecond {
		t.Errorf("scaled TransmitTime = %v", got)
	}
}

func TestLocalProfileNoDelay(t *testing.T) {
	link := NewLink(Local())
	cli, srv := Pipe(link)
	defer cli.Close()
	defer srv.Close()
	go func() {
		buf := make([]byte, 1024)
		io.ReadFull(srv, buf)
		srv.Write(buf)
	}()
	start := time.Now()
	cli.Write(make([]byte, 1024))
	io.ReadFull(cli, make([]byte, 1024))
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("local round trip took %v", d)
	}
}

func TestLatencyApplied(t *testing.T) {
	p := Profile{Name: "test", RTT: 40 * time.Millisecond}
	link := NewLink(p)
	cli, srv := Pipe(link)
	defer cli.Close()
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4)
		io.ReadFull(srv, buf)
		srv.Write(buf) // another one-way delay
	}()
	start := time.Now()
	cli.Write([]byte("ping"))
	io.ReadFull(cli, make([]byte, 4))
	elapsed := time.Since(start)
	<-done
	if elapsed < 40*time.Millisecond {
		t.Errorf("round trip %v, want >= 40ms", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("round trip %v, far too slow", elapsed)
	}
}

func TestBandwidthApplied(t *testing.T) {
	// 1 MB at 10 MB/s should take >= 100ms.
	p := Profile{Name: "test", Bandwidth: 10e6}
	link := NewLink(p)
	cli, srv := Pipe(link)
	defer cli.Close()
	defer srv.Close()
	const total = 1 << 20
	go func() {
		io.Copy(io.Discard, srv)
	}()
	start := time.Now()
	buf := make([]byte, 64*1024)
	for sent := 0; sent < total; sent += len(buf) {
		if _, err := cli.Write(buf); err != nil {
			t.Error(err)
			return
		}
	}
	elapsed := time.Since(start)
	if elapsed < 100*time.Millisecond {
		t.Errorf("1MB at 10MB/s took %v, want >= 100ms", elapsed)
	}
}

func TestSharedUplinkContention(t *testing.T) {
	// Two concurrent senders share one uplink: total time for 2×500KB
	// at 10MB/s must be >= 100ms (serialized), not ~50ms (parallel).
	p := Profile{Name: "test", Bandwidth: 10e6}
	link := NewLink(p)
	cli1, srv1 := Pipe(link)
	cli2, srv2 := Pipe(link)
	defer cli1.Close()
	defer srv1.Close()
	defer cli2.Close()
	defer srv2.Close()
	go io.Copy(io.Discard, srv1)
	go io.Copy(io.Discard, srv2)
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range []net.Conn{cli1, cli2} {
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			buf := make([]byte, 64*1024)
			for sent := 0; sent < 500*1024; sent += len(buf) {
				c.Write(buf)
			}
		}(c)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 95*time.Millisecond {
		t.Errorf("contended transfer took %v, want >= ~100ms", elapsed)
	}
}

func TestStatsAccounting(t *testing.T) {
	link := NewLink(Local())
	cli, srv := Pipe(link)
	defer cli.Close()
	defer srv.Close()
	go io.Copy(io.Discard, srv)
	cli.Write(make([]byte, 1000))
	cli.Write(make([]byte, 24))
	st := link.Stats()
	if st.Sent != 1024 {
		t.Errorf("sent = %d, want 1024", st.Sent)
	}
	link.ResetStats()
	if st := link.Stats(); st.Sent != 0 {
		t.Errorf("after reset sent = %d", st.Sent)
	}
}

func TestTCPListenerDial(t *testing.T) {
	link := NewLink(Local())
	l, err := Listen("127.0.0.1:0", link)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(conn, conn) // echo
	}()
	conn, err := Dial(l.Addr().String(), link)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("over tcp")
	conn.Write(msg)
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("echo = %q", buf)
	}
	if st := link.Stats(); st.Sent == 0 || st.Received == 0 {
		t.Errorf("stats = %+v, want both directions counted", st)
	}
}

func TestStandardProfiles(t *testing.T) {
	if LAN().RTT >= WAN().RTT {
		t.Error("LAN RTT should be far below WAN RTT")
	}
	if LAN().Bandwidth <= WAN().Bandwidth {
		t.Error("LAN bandwidth should exceed WAN bandwidth")
	}
	if Local().RTT != 0 || Local().Bandwidth != 0 {
		t.Error("Local must be unconstrained")
	}
}

func TestDeliveryOrderPreserved(t *testing.T) {
	// Messages written in order must arrive in order despite the
	// asynchronous delivery pipeline.
	p := Profile{Name: "test", RTT: 10 * time.Millisecond, Bandwidth: 50e6}
	link := NewLink(p)
	cli, srv := Pipe(link)
	defer cli.Close()
	defer srv.Close()
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			msg := []byte{byte(i), byte(i >> 8)}
			cli.Write(msg)
		}
	}()
	buf := make([]byte, 2*n)
	if _, err := io.ReadFull(srv, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if buf[2*i] != byte(i) || buf[2*i+1] != byte(i>>8) {
			t.Fatalf("message %d out of order", i)
		}
	}
}

func TestPipeliningOverlapsLatency(t *testing.T) {
	// 20 small messages over a 40ms-RTT link should take far less
	// than 20 * 20ms one-way if they pipeline.
	p := Profile{Name: "test", RTT: 40 * time.Millisecond}
	link := NewLink(p)
	cli, srv := Pipe(link)
	defer cli.Close()
	defer srv.Close()
	go io.Copy(io.Discard, srv)
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := cli.Write([]byte("msg")); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed > 100*time.Millisecond {
		t.Errorf("20 pipelined writes took %v; they serialized on propagation", elapsed)
	}
}

func TestCloseWhileInFlight(t *testing.T) {
	p := Profile{Name: "test", RTT: 50 * time.Millisecond}
	link := NewLink(p)
	cli, srv := Pipe(link)
	defer srv.Close()
	cli.Write([]byte("in flight"))
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write([]byte("after close")); err == nil {
		t.Error("write after close succeeded")
	}
}

// A writer blocked on a full wire (more messages in flight than the
// delivery queue holds) does not hold Close up: Close returns at once, as
// does Link.Drop, and the blocked Write fails with net.ErrClosed.
func TestCloseDoesNotWaitBehindBlockedWrite(t *testing.T) {
	link := NewLink(Profile{Name: "far", RTT: time.Hour})
	cli, srv := Pipe(link)
	defer srv.Close()
	wrote := make(chan error, 1)
	go func() {
		for {
			if _, err := cli.Write([]byte{1}); err != nil {
				wrote <- err
				return
			}
		}
	}()
	// The queue holds 1024 messages and the delivery goroutine one more:
	// the writer has counted the next one and blocks on it.
	for link.Stats().Sent <= 1025 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		link.Drop()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Drop still waits behind a blocked Write after 1s")
	}
	select {
	case err := <-wrote:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("the blocked Write returned %v, want net.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Error("the blocked Write did not return after Close")
	}
}
