package sunrpc

import (
	"net"
	"sync"
	"testing"
	"time"

	"gvfs/internal/bubble"
)

// Regression test for the shared-RNG race: the client used to seed one
// *rand.Rand consulted from every retransmission path, and concurrent
// backoffs raced on its internal state. The jitter is now a hash and
// shares no state; run under -race (the CI default), this keeps it so.
func TestBackoffConcurrentCallersNoRace(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	c := NewClientWithOptions(c1, ClientOptions{
		BackoffBase: time.Microsecond,
		BackoffMax:  8 * time.Microsecond,
	})
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for attempt := 0; attempt < 32; attempt++ {
				c.sleep(c.backoffDelay(uint32(g), attempt%6))
			}
		}()
	}
	wg.Wait()
}

// The jitter contract: backoff delays stay within [base/2, max] so
// parallel retransmitters decorrelate without exceeding the cap.
func TestBackoffJitterBounds(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	base := 2 * time.Millisecond
	max := 8 * time.Millisecond
	c := NewClientWithOptions(c1, ClientOptions{BackoffBase: base, BackoffMax: max})
	defer c.Close()

	for attempt := 0; attempt < 8; attempt++ {
		start := time.Now()
		c.sleep(c.backoffDelay(1, attempt))
		elapsed := time.Since(start)
		if elapsed < base/2 {
			t.Errorf("attempt %d: backoff %v shorter than base/2 %v", attempt, elapsed, base/2)
		}
		// Generous ceiling: the nominal max plus scheduling slop.
		if elapsed > max+500*time.Millisecond {
			t.Errorf("attempt %d: backoff %v far exceeds max %v", attempt, elapsed, max)
		}
	}
}

// The jitter is a hash of the client's birth, the call and the attempt:
// two clients made at one instant of a bubble's clock back off alike, and
// two calls of one client apart. In real time the clients are born apart,
// so only the second half is checked.
func TestBackoffJitterIsAHash(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		var clients [2]*Client
		for i := range clients {
			c1, c2 := net.Pipe()
			defer c2.Close()
			clients[i] = NewClientWithOptions(c1, ClientOptions{BackoffBase: time.Second, BackoffMax: time.Minute})
			defer clients[i].Close()
		}
		a, b := clients[0], clients[1]
		for attempt := 0; attempt < 4; attempt++ {
			if d1, d2 := a.backoffDelay(1, attempt), b.backoffDelay(1, attempt); bubble.Virtual && d1 != d2 {
				t.Errorf("attempt %d: clients born at one instant back off %v and %v", attempt, d1, d2)
			}
			if d1, d2 := a.backoffDelay(1, attempt), a.backoffDelay(2, attempt); d1 == d2 {
				t.Errorf("attempt %d: XIDs 1 and 2 both back off %v", attempt, d1)
			}
		}
	})
}
