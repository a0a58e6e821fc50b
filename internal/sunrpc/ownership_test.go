package sunrpc

// Ownership of pooled reply records (Client.CallPooled, Start/Wait),
// checked with bufpool's poison fill: a record released twice, or used
// after its release, is handed to two owners or trips the poison check
// at the next Get; a record dropped instead of released leaves the
// pool's Gets ahead of its Puts. CI runs this under -race.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/bufpool"
)

func callPooled(c *Client, proc uint32, args []byte, deadline time.Time) ([]byte, []byte, error) {
	return c.CallPooled(testProg, testVers, proc, AuthNoneCred, AuthNoneCred, args, deadline)
}

// poolBalanced runs scenario with poison fill on and then waits for every
// pooled buffer taken during it to have come back: replies nobody waited
// for included, which is the "released, not leaked" half of the contract.
func poolBalanced(t *testing.T, name string, scenario func(t *testing.T)) {
	t.Run(name, func(t *testing.T) {
		bufpool.SetDebug(true)
		defer bufpool.SetDebug(false)
		before := bufpool.Snapshot()
		scenario(t)
		deadline := time.Now().Add(10 * time.Second)
		for {
			now := bufpool.Snapshot()
			gets, puts := now.Gets-before.Gets, now.Puts-before.Puts
			if gets == puts {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d pooled buffers taken, %d given back", gets, puts)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

func TestPooledReplyOwnership(t *testing.T) {
	poolBalanced(t, "duplicate reply", func(t *testing.T) { duplicateReplies(t, callPooled) })
	poolBalanced(t, "late reply", func(t *testing.T) { lateReplies(t, callPooled) })
	poolBalanced(t, "timeout then reply", timeoutThenReply)
	poolBalanced(t, "connection down with the reply buffered", downWithReplyBuffered)
}

// Each attempt times out. Even calls are answered once, late — once the
// client has counted the call's timeout — while the caller sleeps its
// backoff; odd calls are answered only when the retransmission arrives,
// and then twice — once for each transmission. Either way the call
// completes with its own reply, once.
func timeoutThenReply(t *testing.T) {
	const timeout = 4 * time.Millisecond
	var mu sync.Mutex
	seen := map[uint32]bool{}
	var client atomic.Pointer[Client]
	addr := fakeServer(t, func(call *Call, reply func(uint32, []byte) error) error {
		mu.Lock()
		again := seen[call.XID]
		seen[call.XID] = true
		mu.Unlock()
		switch {
		case again:
			if err := reply(call.XID, call.Args); err != nil {
				return err
			}
			return reply(call.XID, call.Args)
		case call.Args[3]%2 == 0:
			// A reply that beat the timer (its caller descheduled past
			// it) would not be late: wait for the timeout itself.
			for n := client.Load().TransportStats().Timeouts; client.Load().TransportStats().Timeouts == n; {
				time.Sleep(timeout / 8)
			}
			return reply(call.XID, call.Args)
		}
		return nil
	})
	c, err := DialWithOptions(addr, ClientOptions{
		CallTimeout: timeout,
		MaxRetries:  8,
		BackoffBase: 2 * timeout, // jittered to [timeout, 2*timeout]: the late reply lands inside it
		BackoffMax:  2 * timeout,
		Idempotent:  func(_, _, _ uint32) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	client.Store(c)
	var args [600]byte
	for i := uint32(0); i < 60; i++ {
		res, rec, err := callPooled(c, 1, strayArgs(args[:], i), time.Time{})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		mustEcho(t, i, res, rec, args[:])
	}
	if st := c.TransportStats(); st.Timeouts < 60 || st.Retries < 60 {
		t.Errorf("%d timeouts, %d retries over 60 calls: the scenario did not run", st.Timeouts, st.Retries)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) != 0 {
		t.Errorf("%d calls still registered", len(c.pending))
	}
}

// The server answers and hangs up, so connDown fails everything pending
// right behind the reply: the call still returns its reply, not the
// connection's error, with the record intact and the caller's.
func downWithReplyBuffered(t *testing.T) {
	addr := fakeServer(t, func(call *Call, reply func(uint32, []byte) error) error {
		if err := reply(call.XID, call.Args); err != nil {
			return err
		}
		return errors.New("hang up")
	})
	var args [600]byte
	for i := uint32(0); i < 200; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		type reply struct {
			res, rec []byte
			err      error
		}
		done := make(chan reply, 1)
		go func() {
			res, rec, err := callPooled(c, 1, strayArgs(args[:], i), time.Time{})
			done <- reply{res, rec, err}
		}()
		for down := false; !down; time.Sleep(50 * time.Microsecond) {
			c.mu.Lock()
			down = c.conn == nil
			c.mu.Unlock()
		}
		r := <-done
		if r.err != nil {
			t.Fatalf("call %d: %v, want the reply that arrived before the connection died", i, r.err)
		}
		mustEcho(t, i, r.res, r.rec, args[:])
		if _, _, err := callPooled(c, 1, args[:], time.Time{}); err == nil {
			t.Fatalf("call %d: a second call on the dead connection succeeded", i)
		}
		c.Close()
	}
}
