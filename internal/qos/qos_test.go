package qos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/bubble"
)

func TestAdmitFastPath(t *testing.T) {
	s := New(Config{MaxConcurrent: 4})
	defer s.Close()
	release, err := s.Admit("a", 1, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // idempotent
	if got := s.Snapshot(); len(got) != 1 || got[0].Admitted != 1 || got[0].Inflight != 0 {
		t.Fatalf("snapshot = %+v", got)
	}
}

func TestQueueFull(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, PerClientQueue: 2})
	defer s.Close()
	hold, err := s.Admit("a", 1, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	// Fill the queue bound with blocked admissions.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := s.Admit("a", 1, time.Time{}); err == nil {
				r()
			}
		}()
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 2
	})
	if _, err := s.Admit("a", 1, time.Time{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	hold()
	wg.Wait()
}

func TestDeadlineExpiredBeforeAdmit(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, err := s.Admit("a", 1, time.Now().Add(-time.Second)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestDeadlineExpiredInQueue(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	defer s.Close()
	hold, err := s.Admit("a", 1, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Admit("b", 1, time.Now().Add(30*time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("expiry took %v, want prompt", el)
	}
	hold()
	// The expired waiter must not occupy a slot afterwards.
	r, err := s.Admit("b", 1, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	r()
}

// With one execution slot, two backlogged clients and requests that each
// cost one quantum, deficit round-robin alternates admissions — the
// flooding client's extra queue depth buys it nothing, whichever of
// the two reached the ring first. (Fairness is per quantum of cost: a
// visit rightly drains thousands of cost-1 requests from one client
// before moving on.)
func TestFairShareAlternates(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, PerClientQueue: 64})
	defer s.Close()
	hold, err := s.Admit("seed", 1, time.Time{})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(client string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := s.Admit(client, quantum, time.Time{})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				order = append(order, client)
				mu.Unlock()
				r()
			}()
		}
	}
	enqueue("aggressor", 24)
	enqueue("polite", 8)
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 32
	})
	hold()
	wg.Wait()

	// While both clients had work (first 16 admissions) neither may
	// ever be more than one admission ahead of the other.
	lead := 0
	for i, c := range order[:16] {
		if c == "polite" {
			lead++
		} else {
			lead--
		}
		if lead < -1 || lead > 1 {
			t.Fatalf("after %d admissions one client leads by %d, want at most 1 (order %v)", i+1, lead, order)
		}
	}
}

// Costs weight the round-robin: with client A sending requests of one
// quantum against client B's of a quarter quantum, each round serves a
// quantum of A's bytes and a quantum of B's — equal byte shares, not
// equal request counts.
func TestFairShareByBytes(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, PerClientQueue: 64})
	defer s.Close()
	hold, err := s.Admit("seed", 1, time.Time{})
	if err != nil {
		t.Fatal(err)
	}

	var bytesA, bytesB atomic.Int64
	var admissions atomic.Int64
	var wg sync.WaitGroup
	enqueue := func(client string, cost, n int, acc *atomic.Int64) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := s.Admit(client, cost, time.Time{})
				if err != nil {
					t.Error(err)
					return
				}
				if admissions.Add(1) <= 24 {
					acc.Add(int64(cost))
				}
				r()
			}()
		}
	}
	enqueue("heavy", quantum, 16, &bytesA)
	enqueue("light", quantum/4, 48, &bytesB)
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 64
	})
	hold()
	wg.Wait()

	a, b := bytesA.Load(), bytesB.Load()
	if a == 0 || b == 0 {
		t.Fatalf("a=%d b=%d: both clients must be served", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("byte share ratio %.2f (a=%d b=%d), want near 1", ratio, a, b)
	}
}

// The token bucket delays a client that exhausts its burst; the
// refill timer (not a spin loop) re-dispatches it.
func TestTokenBucketPacesClient(t *testing.T) {
	s := New(Config{MaxConcurrent: 8, RatePerSec: 1000, Burst: 10})
	defer s.Close()
	r1, err := s.Admit("a", 10, time.Time{}) // drains the full burst
	if err != nil {
		t.Fatal(err)
	}
	r1()
	start := time.Now()
	r2, err := s.Admit("a", 10, time.Time{}) // must wait ~10ms of refill
	if err != nil {
		t.Fatal(err)
	}
	r2()
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("second burst admitted after %v, want >=4ms of token refill", el)
	}
}

// A request costing more than the whole bucket must still be served
// (charged at Burst), not deadlock.
func TestOversizedCostDoesNotDeadlock(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, RatePerSec: 1e6, Burst: 1024})
	defer s.Close()
	done := make(chan error, 1)
	go func() {
		r, err := s.Admit("a", 1<<20, time.Time{})
		if err == nil {
			r()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oversized request never admitted")
	}
}

func TestBrownoutHysteresis(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		s := New(Config{BrownoutEnter: 10 * time.Millisecond})
		defer s.Close()
		if s.Brownout() {
			t.Fatal("brownout must start clear")
		}
		s.mu.Lock()
		s.observeDelayLocked(100 * time.Millisecond) // EWMA jumps to 20ms
		s.mu.Unlock()
		if !s.Brownout() {
			t.Fatalf("brownout must trip at EWMA %v >= 10ms", s.QueueDelayEWMA())
		}
		// Exit needs the EWMA to decay below Enter/4 = 2.5ms, not merely
		// below Enter — hysteresis prevents flapping.
		s.mu.Lock()
		s.observeDelayLocked(0)
		stillIn := s.brownout.Load()
		s.mu.Unlock()
		if !stillIn {
			t.Fatal("one low sample must not clear brownout (hysteresis)")
		}
		// Even with the EWMA fully decayed, the dwell bound holds the
		// state for brownoutDwell before the exit is allowed.
		for i := 0; i < 40; i++ {
			s.mu.Lock()
			s.observeDelayLocked(0)
			s.mu.Unlock()
		}
		if !s.Brownout() {
			t.Fatal("exit inside the dwell window must be suppressed")
		}
		time.Sleep(brownoutDwell + 100*time.Millisecond)
		s.mu.Lock()
		s.observeDelayLocked(0)
		s.mu.Unlock()
		if s.Brownout() {
			t.Fatalf("brownout must clear after decay+dwell, EWMA %v", s.QueueDelayEWMA())
		}
	})
}

// With no traffic at all, the sampling ticker must decay the EWMA and
// clear brownout — a stale burst cannot pin degraded mode forever.
func TestBrownoutAutoRecoversWhenIdle(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		s := New(Config{BrownoutEnter: 10 * time.Millisecond})
		defer s.Close()
		s.mu.Lock()
		s.observeDelayLocked(time.Second)
		s.mu.Unlock()
		if !s.Brownout() {
			t.Fatal("setup: brownout should be active")
		}
		waitFor(t, func() bool { return !s.Brownout() })
	})
}

func TestCloseFailsQueuedWaiters(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	hold, err := s.Admit("a", 1, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Admit("b", 1, time.Time{})
		errc <- err
	}()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.queued == 1
	})
	s.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued waiter err = %v, want ErrClosed", err)
	}
	hold() // release after close must not panic
	if _, err := s.Admit("c", 1, time.Time{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close admit err = %v, want ErrClosed", err)
	}
}

// Idle tenant state is evicted past the TTL so client-ID churn cannot
// grow the heap without bound.
func TestIdleClientEviction(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	base := time.Now()
	s.now = func() time.Time { return base }
	for i := 0; i < 100; i++ {
		r, err := s.Admit(fmt.Sprintf("churn-%d", i), 1, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		r()
	}
	s.now = func() time.Time { return base.Add(2 * idleTTL) }
	r, err := s.Admit("fresh", 1, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	r()
	s.mu.Lock()
	n := len(s.clients)
	s.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d clients survive eviction, want 1 (fresh only)", n)
	}
}

// Hammer the scheduler from many goroutines with mixed deadlines and
// costs; run under -race. The invariant checked at the end: all
// slots returned, nothing queued, no waiter leaked.
func TestConcurrentStress(t *testing.T) {
	s := New(Config{
		MaxConcurrent:  8,
		PerClientQueue: 16,
		RatePerSec:     1 << 20,
		Burst:          64 << 10,
		BrownoutEnter:  5 * time.Millisecond,
	})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := fmt.Sprintf("c%d", g%4)
			for i := 0; i < 200; i++ {
				var deadline time.Time
				if i%3 == 0 {
					deadline = time.Now().Add(time.Duration(i%7) * time.Millisecond)
				}
				r, err := s.Admit(client, (i%64)<<8, deadline)
				if err != nil {
					continue
				}
				if i%5 == 0 {
					time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
				}
				r()
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.inflight == 0 && s.queued == 0
	})
}

// TestFairShareProperty drives random per-tenant costs (up to one
// quantum each) in random arrival orders through one scheduler with one
// execution slot, and checks the deficit round-robin bound: while every
// tenant is backlogged, after each round of visits each tenant's
// admitted bytes are within one quantum of the fair share (the mean).
// With costs of at most a quantum every visit admits something, so a
// visit is a run of consecutive admissions of one tenant, and a round is
// as many visits as there are tenants.
func TestFairShareProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkFairShare(t, seed) })
	}
}

type admission struct {
	tenant int
	cost   int
}

func checkFairShare(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tenants := 2 + rng.Intn(4)
	var arrivals []admission
	queued := make([]int, tenants)
	for i := range queued {
		// Calls of up to maxCost bytes, from 1/32 of a quantum to a whole
		// one, and enough of them to keep the tenant backlogged for rounds.
		maxCost := quantum/32 + rng.Intn(quantum-quantum/32+1)
		for total, budget := 0, (12+rng.Intn(8))*quantum; total < budget; queued[i]++ {
			cost := 1 + rng.Intn(maxCost)
			total += cost
			arrivals = append(arrivals, admission{i, cost})
		}
	}
	rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })

	s := New(Config{MaxConcurrent: 1, PerClientQueue: len(arrivals)})
	defer s.Close()
	hold, err := s.Admit("seed", 1, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []admission
	var wg sync.WaitGroup
	for k, a := range arrivals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.Admit(fmt.Sprint("t", a.tenant), a.cost, time.Time{})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, a)
			mu.Unlock()
			r()
		}()
		// One arrival at a time, so the arrival order is the shuffled one.
		for {
			s.mu.Lock()
			n := s.queued
			s.mu.Unlock()
			if n == k+1 {
				break
			}
			runtime.Gosched()
		}
	}
	hold()
	wg.Wait()

	admitted := make([]int, tenants)
	visits, rounds := 0, 0
	for i, a := range order {
		admitted[a.tenant] += a.cost
		queued[a.tenant]--
		if i+1 < len(order) && order[i+1].tenant == a.tenant {
			continue // the visit goes on
		}
		if visits++; visits%tenants != 0 {
			continue
		}
		if slices.Contains(queued, 0) {
			break // a tenant ran dry: the bound is for backlogged ones
		}
		total := 0
		for _, b := range admitted {
			total += b
		}
		for j, got := range admitted {
			if fair := total / tenants; got < fair-quantum || got > fair+quantum {
				t.Fatalf("after %d rounds tenant %d has %d bytes, fair share %d ± %d (all: %v)",
					visits/tenants, j, got, fair, quantum, admitted)
			}
		}
		rounds++
	}
	if rounds < 2 {
		t.Fatalf("%d rounds with every tenant backlogged, want at least 2", rounds)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}
