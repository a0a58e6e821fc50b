package backend

import (
	"sync"
	"sync/atomic"
	"time"
)

// Breaker defaults, shared by every owner: the proxy's upstream breaker
// and each member of a replica set.
const (
	DefaultFailureThreshold = 3
	DefaultProbeInterval    = time.Second
)

// Breaker is the consecutive-failure circuit breaker of the
// proxy↔upstream seam. Its owner classifies each call's outcome and
// reports Failure or Success (a verdict the owner holds neutral is
// simply not reported); at the threshold the breaker opens, and while
// it is open the owner's probe runs every interval until it succeeds,
// which closes the breaker and runs the owner's recovery hook. What
// counts as a failure stays with the owner: the proxy and a replica
// set differ there on purpose.
type Breaker struct {
	threshold int32
	probe     func() error
	recovered func() // may be nil

	open  atomic.Bool
	fails atomic.Int32 // consecutive failures; keeps counting while open

	mu          sync.Mutex // orders open/close transitions
	since       time.Time  // when the breaker opened; zero while closed
	transitions uint64     // closed→open transitions

	stop         sync.Once
	done, exited chan struct{}
}

// NewBreaker returns a closed breaker and starts its prober, which
// Stop ends. threshold and interval default to DefaultFailureThreshold
// and DefaultProbeInterval when not positive. recovered runs (on the
// prober, or in Recover's caller) each time the breaker closes.
func NewBreaker(threshold int, interval time.Duration, probe func() error, recovered func()) *Breaker {
	if threshold <= 0 {
		threshold = DefaultFailureThreshold
	}
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	b := &Breaker{threshold: int32(threshold), probe: probe, recovered: recovered,
		done: make(chan struct{}), exited: make(chan struct{})}
	go b.run(interval)
	return b
}

// Open reports whether the breaker is open.
func (b *Breaker) Open() bool { return b.open.Load() }

// Success records an answered call: the failure run is over. It does
// not close an open breaker — only a probe does.
func (b *Breaker) Success() {
	if b.fails.Load() != 0 {
		b.fails.Store(0)
	}
}

// Failure records one more consecutive failure and reports whether this
// one opened the breaker.
func (b *Breaker) Failure() bool {
	if b.fails.Add(1) < b.threshold || b.open.Load() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open.Load() {
		return false
	}
	b.since = time.Now()
	b.transitions++
	b.open.Store(true)
	return true
}

// Recover closes an open breaker and runs the recovery hook: the
// prober's step after a successful probe, and an owner's that learned
// of the recovery some other way.
func (b *Breaker) Recover() {
	b.mu.Lock()
	was := b.open.Load()
	if was {
		b.fails.Store(0)
		b.since = time.Time{}
		b.open.Store(false)
	}
	b.mu.Unlock()
	if was && b.recovered != nil {
		b.recovered()
	}
}

func (b *Breaker) run(interval time.Duration) {
	defer close(b.exited)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-b.done:
			return
		case <-t.C:
		}
		if b.open.Load() && b.probe() == nil {
			b.Recover()
		}
	}
}

// State returns when the breaker opened (zero while it is closed) and
// how often it has.
func (b *Breaker) State() (since time.Time, transitions uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.since, b.transitions
}

// Stop ends probing and waits for a probe in flight; the breaker keeps
// its state. Safe to call more than once.
func (b *Breaker) Stop() {
	b.stop.Do(func() { close(b.done) })
	<-b.exited
}
