package sunrpc

// Fault-tolerance tests: per-call deadlines, reconnect + XID-based
// retransmission, terminal exhaustion, and the Server.Close races.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/xdr"
)

func allIdempotent(prog, vers, proc uint32) bool { return true }

// writeReply sends results as the accepted, successful reply to xid.
func writeReply(w io.Writer, xid uint32, results []byte) error {
	var b xdr.Builder
	appendAcceptedReply(&b, xid, Success)
	return writeRecord(w, append(b.B, results...))
}

// callDeadline is Call bounded by a deadline: the reply is the caller's to
// keep, in a record from the GC.
func callDeadline(c *Client, prog, vers, proc uint32, args []byte, deadline time.Time) ([]byte, error) {
	res, _, err := c.call(prog, vers, proc, AuthNoneCred, AuthNoneCred, args, deadline, false)
	return res, err
}

// serveEcho answers every call with its own args (SUCCESS).
func serveEcho(conn net.Conn) {
	defer conn.Close()
	rr := newRecordReader(conn)
	defer rr.release()
	for {
		rec, err := rr.next(nil)
		if err != nil {
			return
		}
		call, err := parseCall(rec)
		if err != nil {
			return
		}
		if err := writeReply(conn, call.XID, call.Args); err != nil {
			return
		}
	}
}

// flakyServer kills the first `kills` connections after reading one
// call (reply never sent), then serves echo normally.
func flakyServer(t *testing.T, kills int32) (addr string, accepts *atomic.Int32, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts = new(atomic.Int32)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			n := accepts.Add(1)
			if n <= kills {
				go func() {
					readRecord(conn) // swallow the call, then hang up
					conn.Close()
				}()
				continue
			}
			go serveEcho(conn)
		}
	}()
	return l.Addr().String(), accepts, func() { l.Close() }
}

func TestCallTimeoutNoRetry(t *testing.T) {
	// A server that never replies: the per-call deadline must fire.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The server's goroutines are gone when the test ends: a tally of
	// goroutines or allocations in a later test is not theirs.
	var served sync.WaitGroup
	defer served.Wait()
	defer l.Close()
	served.Add(1)
	go func() {
		defer served.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func() {
				defer served.Done()
				defer conn.Close()
				io.Copy(io.Discard, conn) // read and ignore until the client hangs up
			}()
		}
	}()
	c, err := DialWithOptions(l.Addr().String(), ClientOptions{CallTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call(testProg, testVers, 7, AuthNoneCred, nil) // non-idempotent: single attempt
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("timeout took %v, want ~100ms", d)
	}
	if st := c.TransportStats(); st.Timeouts == 0 {
		t.Error("timeout not counted")
	}
}

func TestIdempotentRetransmitAfterReconnect(t *testing.T) {
	addr, accepts, stop := flakyServer(t, 1)
	defer stop()
	opts := ClientOptions{
		CallTimeout: 500 * time.Millisecond,
		Redial:      func() (net.Conn, error) { return net.Dial("tcp", addr) },
		MaxRetries:  4,
		BackoffBase: 5 * time.Millisecond,
		Idempotent:  allIdempotent,
	}
	c, err := DialWithOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := []byte("retransmit me!!!")
	res, err := c.Call(testProg, testVers, 1, AuthNoneCred, payload)
	if err != nil {
		t.Fatalf("call across reconnect: %v", err)
	}
	if !bytes.Equal(res, payload) {
		t.Errorf("res = %q, want %q", res, payload)
	}
	if got := accepts.Load(); got < 2 {
		t.Errorf("server saw %d connections, want >= 2", got)
	}
	st := c.TransportStats()
	if st.Reconnects == 0 || st.Retries == 0 {
		t.Errorf("stats = %+v, want reconnects and retries > 0", st)
	}
}

func TestNonIdempotentNotRetransmitted(t *testing.T) {
	addr, accepts, stop := flakyServer(t, 1)
	defer stop()
	opts := ClientOptions{
		Redial:      func() (net.Conn, error) { return net.Dial("tcp", addr) },
		MaxRetries:  4,
		BackoffBase: 5 * time.Millisecond,
		// Idempotent nil: nothing may be retransmitted.
	}
	c, err := DialWithOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(testProg, testVers, 7, AuthNoneCred, nil); err == nil {
		t.Fatal("non-idempotent call succeeded despite connection death")
	}
	// Give any (buggy) retransmission a moment to show up.
	time.Sleep(50 * time.Millisecond)
	if got := accepts.Load(); got != 1 {
		t.Errorf("server saw %d connections, want exactly 1", got)
	}
}

func TestRetriesExhaustedIsTerminal(t *testing.T) {
	addr, _, stop := flakyServer(t, 1000) // every connection dies
	defer stop()
	opts := ClientOptions{
		CallTimeout: 200 * time.Millisecond,
		Redial:      func() (net.Conn, error) { return net.Dial("tcp", addr) },
		MaxRetries:  2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Idempotent:  allIdempotent,
	}
	c, err := DialWithOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(testProg, testVers, 1, AuthNoneCred, []byte("x"))
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}

func TestDialFailureRetriesUntilServerUp(t *testing.T) {
	// The redial target comes up only after the first connection dies:
	// calls must ride the backoff loop to success.
	addr, _, stop := flakyServer(t, 1)
	defer stop()
	opts := ClientOptions{
		CallTimeout: 500 * time.Millisecond,
		Redial: func() (net.Conn, error) {
			return net.Dial("tcp", addr)
		},
		MaxRetries:  6,
		BackoffBase: 5 * time.Millisecond,
		Idempotent:  allIdempotent,
	}
	c, err := DialWithOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(testProg, testVers, 1, AuthNoneCred, []byte("hi")); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent call across reconnect: %v", err)
	}
}

func TestXIDsMonotonicAcrossReconnect(t *testing.T) {
	addr, _, stop := flakyServer(t, 1)
	defer stop()
	opts := ClientOptions{
		CallTimeout: 500 * time.Millisecond,
		Redial:      func() (net.Conn, error) { return net.Dial("tcp", addr) },
		MaxRetries:  8,
		BackoffBase: 5 * time.Millisecond,
		Idempotent:  allIdempotent,
	}
	c, err := DialWithOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Call(testProg, testVers, 1, AuthNoneCred, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	c.mu.Lock()
	next := c.nextXID
	c.mu.Unlock()
	if next != 6 {
		t.Errorf("nextXID = %d after 5 calls, want 6 (monotonic across reconnects)", next)
	}
}

func TestCloseAbortsRetryLoop(t *testing.T) {
	addr, _, stop := flakyServer(t, 1000)
	defer stop()
	opts := ClientOptions{
		CallTimeout: 100 * time.Millisecond,
		Redial:      func() (net.Conn, error) { return net.Dial("tcp", addr) },
		MaxRetries:  100,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  10 * time.Second,
		Idempotent:  allIdempotent,
	}
	c, err := DialWithOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(testProg, testVers, 1, AuthNoneCred, nil)
		done <- err
	}()
	time.Sleep(150 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("call succeeded against all-flaky server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call did not return after Close")
	}
}

// --- Server.Close hardening (regression tests) ---

func TestServerCloseIdempotent(t *testing.T) {
	s := NewServer()
	s.Close()
	s.Close() // must not panic or hang
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
}

func TestServerCloseUnblocksServe(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	s.Register(testProg, testVers, HandlerFunc(echoHandler))
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	time.Sleep(20 * time.Millisecond)
	s.Close() // no external l.Close(): Close alone must unblock Serve
	select {
	case err := <-served:
		if err == nil {
			t.Error("Serve returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve still blocked in Accept after Close")
	}
}

func TestServeOnClosedServerReturns(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := NewServer()
	s.Close()
	if err := s.Serve(l); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve on closed server = %v, want net.ErrClosed", err)
	}
}

func TestCloseAcceptRaceDropsConnection(t *testing.T) {
	// Hammer the close-then-accept window: connections accepted while
	// (or after) the server closes must be terminated, never serviced
	// indefinitely.
	for i := 0; i < 20; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		s.Register(testProg, testVers, HandlerFunc(echoHandler))
		go s.Serve(l)
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		// Whatever the interleaving, the connection must reach EOF
		// soon: either it was never registered, or Close killed it.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Fatal("read got data from a closing server")
		}
		conn.Close()
		l.Close()
		<-closed // its readers have given their buffers back
	}
}
