package sunrpc

// Tests of the call path's resource discipline: reused per-connection
// workers on the server (no head-of-line blocking, no cap, no leak) and
// recycled reply channels on the client (no reply ever reaches a call
// it was not sent for, no garbage beyond the reply record).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"gvfs/internal/bufpool"
)

const (
	procNull  = 0 // answers at once
	procBlock = 1 // reports on entered, answers once release is closed
)

// blockingServer serves testProg with the two procedures above.
func blockingServer(t *testing.T) (srv *Server, addr string, entered chan struct{}, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, 1024) // more than any test blocks at once: handlers never wait to report
	release = make(chan struct{})
	settled(t)
	srv = NewServer()
	srv.Register(testProg, testVers, HandlerFunc(func(c *Call) ([]byte, AcceptStat) {
		if c.Proc == procBlock {
			entered <- struct{}{}
			<-release
		}
		return nil, Success
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return srv, l.Addr().String(), entered, release
}

// startBlocked has n procBlock calls outstanding on c, a goroutine each,
// and returns once all n are inside their handlers. Each call's outcome
// arrives on the returned channel.
func startBlocked(t *testing.T, c *Client, entered chan struct{}, n int) <-chan error {
	t.Helper()
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, rec, err := c.CallPooled(testProg, testVers, procBlock, AuthNoneCred, AuthNoneCred, nil, time.Time{})
			bufpool.Put(rec)
			done <- err
		}()
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-entered:
		case <-timeout:
			t.Fatalf("only %d of %d calls reached their handler", i, n)
		}
	}
	return done
}

// waitAll collects the n calls startBlocked started.
func waitAll(t *testing.T, done <-chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// Calls blocked in their handlers neither delay a later call on the
// same connection nor keep one another out: with n blocked at once, all
// n are inside their handlers and a NULL call still answers. Afterwards
// no more than maxIdleWorkers stay parked.
func TestBlockedHandlersDoNotBlockConnection(t *testing.T) {
	for _, n := range []int{1, 64} {
		_, addr, entered, release := blockingServer(t)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Dial returns before the server has accepted the connection and
		// started its reader; a call answered is one the reader has read.
		// Its worker stays parked and is left out of the count.
		if _, err := callDeadline(c, testProg, testVers, procNull, nil, time.Now().Add(10*time.Second)); err != nil {
			t.Fatal(err)
		}
		connected := runtime.NumGoroutine() - 1 // the connection's reader and the client's included
		blocked := startBlocked(t, c, entered, n)
		if _, err := callDeadline(c, testProg, testVers, procNull, nil, time.Now().Add(10*time.Second)); err != nil {
			t.Fatalf("%d calls blocked: a later call on the connection: %v", n, err)
		}
		close(release)
		waitAll(t, blocked, n)
		waitGoroutines(t, connected+maxIdleWorkers, "workers parked after the burst")
	}
}

// waitGoroutines waits for the goroutine count to fall back to baseline.
func waitGoroutines(t testing.TB, baseline int, when string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before\n%s", when, runtime.NumGoroutine(), baseline,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// settled has the test wait, when it ends, for the goroutines running
// now to be all that are left: the servers and clients it starts after
// this call, closed by then, have exited, and a later test that counts
// the process's goroutines or allocations counts only its own. The wait
// runs after the test's defers and the cleanups registered later.
func settled(tb testing.TB) {
	base := runtime.NumGoroutine()
	tb.Cleanup(func() { waitGoroutines(tb, base, "when the test ends") })
}

// Readers and workers, parked or running, all exit once their
// connection or the Server is closed.
func TestWorkersExitOnClose(t *testing.T) {
	// overlap leaves several workers parked on c's connection.
	overlap := func(t *testing.T, c *Client, entered, release chan struct{}) {
		t.Helper()
		ps := startBlocked(t, c, entered, 8)
		close(release)
		waitAll(t, ps, 8)
	}

	t.Run("conn.Close", func(t *testing.T) {
		_, addr, entered, release := blockingServer(t)
		base := runtime.NumGoroutine() // the server's Serve loop included
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		overlap(t, c, entered, release)
		c.Close()
		waitGoroutines(t, base, "after conn.Close")
	})

	t.Run("Server.Close", func(t *testing.T) {
		base := runtime.NumGoroutine()
		srv, addr, entered, release := blockingServer(t)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		overlap(t, c, entered, release)
		srv.Close()
		c.Close()
		waitGoroutines(t, base, "after Server.Close")
	})

	t.Run("Server.Close with handlers running", func(t *testing.T) {
		base := runtime.NumGoroutine()
		srv, addr, entered, release := blockingServer(t)
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		startBlocked(t, c, entered, 4)
		srv.Close()
		c.Close()
		close(release) // only now may the handlers return; their workers then find the connection gone
		waitGoroutines(t, base, "after Server.Close and the handlers' return")
	})
}

// fakeServer runs answer for every call read from each connection it
// accepts, until answer or the connection fails. reply sends payload as
// the accepted results of xid.
func fakeServer(t *testing.T, answer func(call *Call, reply func(xid uint32, payload []byte) error) error) (addr string) {
	t.Helper()
	settled(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	serve := func(conn net.Conn) {
		defer conn.Close()
		reply := func(xid uint32, payload []byte) error {
			return writeReply(conn, xid, payload)
		}
		rr := newRecordReader(conn)
		defer rr.release()
		for {
			rec, err := rr.next(nil)
			if err != nil {
				return
			}
			call, err := parseCall(rec)
			if err != nil || answer(call, reply) != nil {
				return
			}
		}
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	return l.Addr().String()
}

const strayIterations = 1000

// callFn is one way to call: the keeping way (rec nil) or the pooled one.
type callFn func(c *Client, proc uint32, args []byte, deadline time.Time) (res, rec []byte, err error)

func callKept(c *Client, proc uint32, args []byte, deadline time.Time) ([]byte, []byte, error) {
	res, err := callDeadline(c, testProg, testVers, proc, args, deadline)
	return res, nil, err
}

// strayArgs is call i's payload: big enough for a pooled record to be
// worth poisoning, and different in every byte from its neighbours'.
func strayArgs(buf []byte, i uint32) []byte {
	for j := range buf {
		buf[j] = byte(i) + byte(j)
	}
	binary.BigEndian.PutUint32(buf, i)
	return buf
}

// mustEcho fails the test unless res is call i's own payload, then gives
// the record back.
func mustEcho(t *testing.T, i uint32, res, rec, want []byte) {
	t.Helper()
	if !bytes.Equal(res, want) {
		t.Fatalf("call %d received %d bytes starting %x: not its reply", i, len(res), res[:min(len(res), 4)])
	}
	bufpool.Put(rec)
}

// A server that answers every XID twice: the duplicate arrives while the
// next call, on a recycled reply channel, is already waiting, and must
// not be taken for that call's reply.
func TestDuplicateReplyNeverReachesLaterCall(t *testing.T) { duplicateReplies(t, callKept) }

func duplicateReplies(t *testing.T, call callFn) {
	addr := fakeServer(t, func(call *Call, reply func(uint32, []byte) error) error {
		if err := reply(call.XID, call.Args); err != nil {
			return err
		}
		return reply(call.XID, call.Args)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var args [600]byte
	for i := uint32(0); i < strayIterations; i++ {
		res, rec, err := call(c, 1, strayArgs(args[:], i), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		mustEcho(t, i, res, rec, args[:])
	}
}

// A server that answers a call only after its caller has given up, and
// just ahead of the reply to the next call: the late reply must be
// dropped, not handed to the next call through the recycled channel.
func TestLateReplyNeverReachesLaterCall(t *testing.T) { lateReplies(t, callKept) }

func lateReplies(t *testing.T, call callFn) {
	const procSlow, procFast = 1, 2
	var lateXID uint32
	var late []byte
	addr := fakeServer(t, func(call *Call, reply func(uint32, []byte) error) error {
		if call.Proc == procSlow {
			lateXID, late = call.XID, append([]byte(nil), call.Args...)
			return nil
		}
		if err := reply(lateXID, late); err != nil {
			return err
		}
		return reply(call.XID, call.Args)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var slow, fast [600]byte
	for i := uint32(0); i < strayIterations; i++ {
		_, _, err := call(c, procSlow, strayArgs(slow[:], 2*i), time.Now().Add(200*time.Microsecond))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: %v, want a deadline error", 2*i, err)
		}
		res, rec, err := call(c, procFast, strayArgs(fast[:], 2*i+1), time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		mustEcho(t, 2*i+1, res, rec, fast[:])
	}
}

// goroutineID writes the running goroutine's "goroutine N" stack-trace
// prefix into buf and returns it.
func goroutineID(buf []byte) []byte {
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.IndexByte(buf, '['); i > 0 {
		buf = buf[:i]
	}
	return buf
}

// echoRig is the benchmark's echo: a server answering every call with
// the same 8 KiB, one client over loopback, 32 B of arguments (about a
// READ3args), calling the given way. onCall, when non-nil, runs inside
// the handler.
func echoRig(tb testing.TB, how callFn, onCall func()) (call func()) {
	tb.Helper()
	settled(tb)
	reply := make([]byte, 8192)
	srv := NewServer()
	srv.Register(testProg, testVers, HandlerFunc(func(*Call) ([]byte, AcceptStat) {
		if onCall != nil {
			onCall()
		}
		return reply, Success
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(l)
	tb.Cleanup(srv.Close)
	c, err := Dial(l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	args := make([]byte, 32)
	return func() {
		res, rec, err := how(c, 1, args, time.Time{})
		if err != nil {
			tb.Fatal(err)
		}
		if len(res) != len(reply) {
			tb.Fatalf("reply of %d bytes, want %d", len(res), len(reply))
		}
		bufpool.Put(rec)
	}
}

// A sequential caller is served by one worker goroutine for the life of
// the connection, and a call allocates nothing but the reply record the
// caller keeps — nothing at all when the caller gives the record back.
// Allocation counts mean nothing under the race detector; CI runs this
// test without it.
func TestCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	// One P, as testing.AllocsPerRun measures and as the repository's
	// benchmark runs: with a second one the reader can receive the next
	// call before the worker that answered the last has parked, and then
	// rightly starts another.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const calls = 10000
	for _, mode := range []struct {
		name     string
		how      callFn
		maxBytes uint64 // per call
	}{
		{"kept", callKept, 8192 + 2048},
		{"pooled", callPooled, 512},
	} {
		var idBuf, lastBuf [64]byte
		var last []byte // the goroutine the previous call's handler ran on
		workers := 0
		call := echoRig(t, mode.how, func() {
			if id := goroutineID(idBuf[:]); !bytes.Equal(id, last) {
				workers++
				last = append(lastBuf[:0], id...)
			}
		})
		call() // warm-up: the connection's first worker, pool entries, grown stacks
		goroutines := runtime.NumGoroutine()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		if workers != 1 {
			t.Errorf("%s: handlers ran on %d different goroutines in turn, want 1 reused worker", mode.name, workers)
		}
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Errorf("%s: %d goroutines after %d calls, %d before", mode.name, n, calls, goroutines)
		}
		// The odd allocation belongs to the runtime (a GC cycle refilling a
		// sync.Pool it emptied), hence 1.05 and not 1 — or 0.
		perCall := float64(after.Mallocs-before.Mallocs) / calls
		bytesPerCall := (after.TotalAlloc - before.TotalAlloc) / calls
		if perCall > 1.05 || bytesPerCall >= mode.maxBytes {
			t.Errorf("%s: %.2f allocs and %d B per call, want at most 1.05 and under %d B", mode.name, perCall, bytesPerCall, mode.maxBytes)
		} else {
			t.Logf("%s: %.3f allocs, %d B per call", mode.name, perCall, bytesPerCall)
		}
	}
}

// BenchmarkServerEcho is the "sunrpc framed round trip" line of the
// layer budget: 32 B of arguments out, 8 KiB back, one closed-loop
// client on loopback.
func BenchmarkServerEcho(b *testing.B) {
	for _, mode := range []struct {
		name string
		how  callFn
	}{{"kept", callKept}, {"pooled", callPooled}} {
		b.Run(mode.name, func(b *testing.B) {
			call := echoRig(b, mode.how, nil)
			call()
			b.SetBytes(8192)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
		})
	}
}
