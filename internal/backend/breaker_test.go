package backend

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/bubble"
)

const testInterval = 5 * time.Millisecond

// settle waits (in sleeps no longer than the probe interval) until cond
// holds.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(testInterval)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBreakerVerdicts replays owner verdicts: 'f' is a counted failure,
// 's' an answered call, 'n' a verdict the owner holds neutral — which
// it expresses by reporting nothing, so it must neither trip the
// breaker nor end a failure run.
func TestBreakerVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
		verdicts  string
		tripAt    int // index of the verdict that opens the breaker, -1 = never
	}{
		{"trips exactly at the threshold", 3, "fff", 2},
		{"one short of the threshold stays closed", 3, "ff", -1},
		{"an answer ends the run", 3, "ffsff", -1},
		{"an answer ends the run, the next run trips", 3, "ffsfff", 5},
		{"neutral does not reset a run", 3, "fnnfnf", 5},
		{"neutral does not count", 2, "fnnnn", -1},
		{"failures past the trip do not trip again", 2, "ffff", 1},
		{"an answer while open does not close", 2, "ffs", 1},
		{"default threshold", 0, "fff", DefaultFailureThreshold - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBreaker(tc.threshold, time.Hour, func() error { return errors.New("down") }, nil)
			defer b.Stop()
			tripped := -1
			for i, v := range tc.verdicts {
				switch v {
				case 'f':
					if b.Failure() {
						if tripped >= 0 {
							t.Fatalf("verdict %d tripped a breaker verdict %d had opened", i, tripped)
						}
						tripped = i
					}
				case 's':
					b.Success()
				}
				if want := tripped >= 0; b.Open() != want {
					t.Fatalf("after verdict %d (%c): Open() = %v, want %v", i, v, b.Open(), want)
				}
			}
			if tripped != tc.tripAt {
				t.Errorf("tripped at verdict %d, want %d", tripped, tc.tripAt)
			}
			wantTransitions := uint64(0)
			if tc.tripAt >= 0 {
				wantTransitions = 1
			}
			since, transitions := b.State()
			if transitions != wantTransitions {
				t.Errorf("%d transitions, want %d", transitions, wantTransitions)
			}
			if since.IsZero() == b.Open() {
				t.Errorf("open since %v with Open() = %v", since, b.Open())
			}
		})
	}
}

// TestBreakerConcurrentTrip contends the trip itself: one Failure call
// wins, probes come one per interval, and Open() may be read throughout.
func TestBreakerConcurrentTrip(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		var probes atomic.Int64
		b := NewBreaker(2, testInterval, func() error { probes.Add(1); return errors.New("down") }, nil)
		defer b.Stop()
		var wg sync.WaitGroup
		var trips atomic.Int64
		stopReaders := make(chan struct{})
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seenOpen := false
				for {
					select {
					case <-stopReaders:
						return
					default:
					}
					if open := b.Open(); seenOpen && !open {
						t.Error("Open() went back to false with no successful probe")
						return
					} else if open {
						seenOpen = true
					}
				}
			}()
		}
		var fwg sync.WaitGroup
		for w := 0; w < 32; w++ {
			fwg.Add(1)
			go func() {
				defer fwg.Done()
				for i := 0; i < 50; i++ {
					if b.Failure() {
						trips.Add(1)
					}
				}
			}()
		}
		fwg.Wait()
		if _, transitions := b.State(); !b.Open() || trips.Load() != 1 || transitions != 1 {
			t.Fatalf("Open() = %v, %d Failure calls reported the trip, %d transitions; want true, 1, 1",
				b.Open(), trips.Load(), transitions)
		}
		close(stopReaders)
		wg.Wait()
		before, start := probes.Load(), time.Now()
		for i := 0; i < 8; i++ {
			time.Sleep(testInterval)
		}
		intervals := int64(time.Since(start)/testInterval) + 1
		if got := probes.Load() - before; got == 0 || got > intervals+2 {
			t.Errorf("%d probes in %d intervals; want one probe loop's worth", got, intervals)
		}
	})
}

// TestBreakerProbeClosesAndFiresHookOnce: the first successful probe
// closes the breaker, runs the hook once, and ends the probing; a
// second outage starts it again.
func TestBreakerProbeClosesAndFiresHookOnce(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		var up atomic.Bool
		var probes, hooks atomic.Int64
		b := NewBreaker(1, testInterval, func() error {
			probes.Add(1)
			if up.Load() {
				return nil
			}
			return errors.New("down")
		}, func() { hooks.Add(1) })
		defer b.Stop()
		for outage := int64(1); outage <= 2; outage++ {
			up.Store(false)
			if !b.Failure() {
				t.Fatalf("outage %d: Failure at threshold 1 did not trip", outage)
			}
			settle(t, "a failed probe", func() bool { return probes.Load() > 0 })
			if !b.Open() {
				t.Fatalf("outage %d: closed while the probe still fails", outage)
			}
			up.Store(true)
			settle(t, "the breaker to close", func() bool { return !b.Open() })
			settle(t, "the hook", func() bool { return hooks.Load() == outage })
			if since, transitions := b.State(); !since.IsZero() || transitions != uint64(outage) {
				t.Errorf("outage %d: open since %v, %d transitions after recovery", outage, since, transitions)
			}
			settled := probes.Load()
			for i := 0; i < 4; i++ {
				time.Sleep(testInterval)
			}
			if extra := probes.Load() - settled; extra != 0 {
				t.Errorf("outage %d: %d probes after recovery", outage, extra)
			}
			if got := hooks.Load(); got != outage {
				t.Errorf("outage %d: hook ran %d times in all", outage, got)
			}
			probes.Store(0)
		}
		// Recover on a closed breaker is a no-op.
		b.Recover()
		if hooks.Load() != 2 {
			t.Error("Recover on a closed breaker ran the hook")
		}
	})
}

// TestBreakerStopEndsProbing: once Stop returns the prober is gone; the
// breaker keeps its state.
func TestBreakerStopEndsProbing(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		var probes atomic.Int64
		b := NewBreaker(1, testInterval, func() error { probes.Add(1); return errors.New("down") }, nil)
		b.Failure()
		settle(t, "a probe", func() bool { return probes.Load() > 0 })
		b.Stop()
		stopped := probes.Load()
		for i := 0; i < 4; i++ {
			time.Sleep(testInterval)
		}
		if extra := probes.Load() - stopped; extra != 0 {
			t.Errorf("%d probes after Stop returned", extra)
		}
		if !b.Open() {
			t.Error("Stop closed the breaker")
		}
		b.Stop() // idempotent
	})
}
