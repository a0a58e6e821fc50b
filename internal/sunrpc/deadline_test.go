package sunrpc

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// silentServer accepts connections and reads requests but never
// replies — the shape of a wedged upstream that forces the client
// through its full timeout/retry machinery.
func silentServer(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	return l
}

// The satellite fix: with a deadline shorter than the retry budget the
// client must return context.DeadlineExceeded promptly — it must not
// sleep a backoff past the deadline before discovering the failure.
func TestCallVerfDeadlinePrompt(t *testing.T) {
	l := silentServer(t)
	defer l.Close()

	c, err := DialWithOptions(l.Addr().String(), ClientOptions{
		CallTimeout: 30 * time.Millisecond,
		Redial:      func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) },
		MaxRetries:  8,
		BackoffBase: 200 * time.Millisecond, // each backoff alone overruns the deadline
		BackoffMax:  2 * time.Second,
		Idempotent:  func(prog, vers, proc uint32) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(60 * time.Millisecond)
	start := time.Now()
	_, err = callDeadline(c, 100, 1, 0, nil, deadline)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Without the fix the first backoff alone sleeps ≥100ms past the
	// deadline; the fixed client gives up within the budget plus slop.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("took %v to report deadline exceeded; want prompt failure", elapsed)
	}
}

// A deadline shorter than CallTimeout caps the very first reply wait.
func TestCallVerfDeadlineCapsFirstAttempt(t *testing.T) {
	l := silentServer(t)
	defer l.Close()

	c, err := DialWithOptions(l.Addr().String(), ClientOptions{
		CallTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = callDeadline(c, 100, 1, 0, nil, time.Now().Add(50*time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("reply wait ran %v, not capped by the 50ms deadline", elapsed)
	}
}

// An already-expired deadline fails before any transmission.
func TestCallVerfDeadlineAlreadyExpired(t *testing.T) {
	l := silentServer(t)
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = callDeadline(c, 100, 1, 0, nil, time.Now().Add(-time.Second))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// A zero deadline must not change CallVerf behavior: the call succeeds
// against a live server.
func TestCallVerfDeadlineZeroIsUnbounded(t *testing.T) {
	srv := NewServer()
	srv.Register(100, 1, HandlerFunc(func(c *Call) ([]byte, AcceptStat) {
		return []byte{0, 0, 0, 1}, Success
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := callDeadline(c, 100, 1, 0, nil, time.Time{})
	if err != nil || len(res) != 4 {
		t.Fatalf("res=%v err=%v, want 4-byte reply", res, err)
	}
}
