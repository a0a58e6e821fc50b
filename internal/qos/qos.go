// Package qos keeps one shared proxy fair and alive under overload.
//
// The paper's deployment model puts a single user-level proxy in front
// of many unprivileged VM clients; nothing in NFS itself stops one
// aggressive client from queueing unbounded work and starving the
// rest. This package provides the admission pipeline the proxy runs
// every call through:
//
//	per-client bounded queue → token bucket → deficit round-robin →
//	global concurrency cap
//
// A client that offers more load than its fair share waits in its own
// queue (and eventually bounces off its queue bound) instead of
// inflating everyone's latency. Costs are expressed in bytes so a
// 64 KiB READ weighs more than a GETATTR, making the deficit
// round-robin quanta meaningful across mixed workloads.
//
// The scheduler also runs the brownout controller (see brownout.go):
// an EWMA of admission queue delay that flips the proxy into a
// degraded mode — shedding optional work and deferring cache misses —
// when sustained delay crosses a threshold, and recovers
// automatically.
package qos

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/obs"
)

// ErrQueueFull reports that a client's admission queue is at its
// bound; the caller should shed the request with a retriable error.
var ErrQueueFull = errors.New("qos: per-client queue full")

// ErrClosed reports admission after Close.
var ErrClosed = errors.New("qos: scheduler closed")

// Config tunes the scheduler. Zero values take the defaults noted on
// each field.
type Config struct {
	// MaxConcurrent caps calls executing concurrently across all
	// clients (default 64).
	MaxConcurrent int

	// PerClientQueue bounds each client's admission queue (default
	// 128). Requests beyond the bound fail with ErrQueueFull.
	PerClientQueue int

	// RatePerSec is the per-client token-bucket refill rate in cost
	// units per second. Zero disables rate limiting (fair-share and
	// the concurrency cap still apply).
	RatePerSec float64

	// Burst is the token-bucket capacity (default 4*RatePerSec... or
	// RatePerSec when unset). Costs larger than Burst are charged at
	// Burst so oversized single requests cannot deadlock.
	Burst float64

	// BrownoutEnter is the sustained (EWMA) queue delay that trips
	// brownout mode; zero disables the controller. Brownout clears once
	// the EWMA falls to a quarter of it.
	BrownoutEnter time.Duration

	// Metrics, when set, registers the gvfs_qos_* family.
	Metrics *obs.Registry

	// OnBrownout, when set, is called (without internal locks held)
	// after each brownout transition.
	OnBrownout func(active bool)
}

const (
	defaultMaxConcurrent  = 64
	defaultPerClientQueue = 128
	ewmaAlpha             = 0.2
	tickInterval          = 100 * time.Millisecond

	// quantum is the deficit-round-robin quantum in cost units (bytes)
	// added per scheduling visit. It is also the granularity of
	// fairness: one visit admits up to a quantum of a client's backlog
	// before the next client is looked at, so shares are equal over
	// spans of several quanta, not request by request.
	quantum = 64 << 10

	// idleTTL evicts a client's scheduler state after this long with no
	// queued or in-flight work, bounding state under client-ID churn.
	idleTTL = 5 * time.Minute
)

type waiterState int

const (
	stateQueued waiterState = iota
	stateAdmitted
	stateCanceled
)

type waiter struct {
	cost     int
	deadline time.Time
	enq      time.Time
	state    waiterState
	ch       chan struct{} // signaled (once) on admission
}

// client is one tenant's scheduler state.
type client struct {
	name       string
	queue      []*waiter
	live       int // queued waiters not yet admitted/canceled
	deficit    int
	tokens     float64
	lastRefill time.Time
	inflight   int
	inRing     bool
	lastActive time.Time

	admitted uint64
	rejected uint64
	expired  uint64
}

// TenantStats is one client's row in the /statusz tenant table.
type TenantStats struct {
	Client   string  `json:"client"`
	Inflight int     `json:"inflight"`
	Queued   int     `json:"queued"`
	Tokens   float64 `json:"tokens"`
	Admitted uint64  `json:"admitted"`
	Rejected uint64  `json:"rejected"`
	Expired  uint64  `json:"expired"`
}

// Scheduler is the admission controller. All methods are safe for
// concurrent use.
type Scheduler struct {
	cfg Config
	now func() time.Time // replaced in white-box tests

	mu       sync.Mutex
	clients  map[string]*client
	ring     []string // DRR visit order: clients with queued work
	ringIdx  int
	resume   bool // ring[ringIdx]'s visit was interrupted by the concurrency cap
	inflight int
	queued   int
	closed   bool

	timerArmed bool
	timerAt    time.Time
	timer      *time.Timer

	ewmaDelay      float64 // nanoseconds
	brownout       atomic.Bool
	lastBrownoutAt time.Time // last transition, for the dwell bound
	ticker         *time.Ticker
	tickDone       chan struct{}

	// metrics (nil-safe via m wrapper)
	m qosMetrics
}

// New builds a Scheduler and starts its brownout sampling loop (if a
// threshold is configured). Close releases the loop.
func New(cfg Config) *Scheduler {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = defaultMaxConcurrent
	}
	if cfg.PerClientQueue <= 0 {
		cfg.PerClientQueue = defaultPerClientQueue
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.RatePerSec
	}
	s := &Scheduler{
		cfg:     cfg,
		now:     time.Now,
		clients: make(map[string]*client),
	}
	s.m.register(cfg.Metrics, s)
	if cfg.BrownoutEnter > 0 {
		s.ticker = time.NewTicker(tickInterval)
		s.tickDone = make(chan struct{})
		go s.tickLoop()
	}
	return s
}

// Close stops background work and fails queued waiters with ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
		s.timerArmed = false
	}
	for _, cs := range s.clients {
		for _, w := range cs.queue {
			if w.state == stateQueued {
				w.state = stateCanceled
				close(w.ch)
			}
		}
		cs.queue = nil
		cs.live = 0
	}
	s.queued = 0
	s.ring = nil
	ticker, done := s.ticker, s.tickDone
	s.mu.Unlock()
	if ticker != nil {
		ticker.Stop()
		close(done)
	}
}

// Admit blocks until the call may proceed, then returns a release
// function the caller must invoke when the call completes. cost is
// the request's approximate byte weight (use 1 for metadata calls).
// A zero deadline waits indefinitely; otherwise expiry returns
// context.DeadlineExceeded. Over-bound queues return ErrQueueFull
// immediately.
func (s *Scheduler) Admit(clientID string, cost int, deadline time.Time) (release func(), err error) {
	if cost < 1 {
		cost = 1
	}
	now := s.now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	cs := s.clientLocked(clientID, now)
	if !deadline.IsZero() && !now.Before(deadline) {
		cs.expired++
		s.m.expired.Inc()
		s.mu.Unlock()
		return nil, context.DeadlineExceeded
	}
	if cs.live >= s.cfg.PerClientQueue {
		cs.rejected++
		s.m.rejectedQueueFull.Inc()
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{cost: cost, deadline: deadline, enq: now, ch: make(chan struct{}, 1)}
	cs.queue = append(cs.queue, w)
	cs.live++
	s.queued++
	if !cs.inRing {
		cs.inRing = true
		s.ring = append(s.ring, clientID)
	}
	s.dispatchLocked(now)
	admitted := w.state == stateAdmitted
	s.mu.Unlock()

	if !admitted {
		var expire <-chan time.Time
		if !deadline.IsZero() {
			t := time.NewTimer(time.Until(deadline))
			defer t.Stop()
			expire = t.C
		}
		select {
		case <-w.ch:
		case <-expire:
		}
		s.mu.Lock()
		switch w.state {
		case stateAdmitted:
			// Admission raced the expiry timer; proceed with the call.
		case stateQueued:
			// Deadline expired while queued: withdraw.
			w.state = stateCanceled
			cs.live--
			s.queued--
			cs.expired++
			s.m.expired.Inc()
			s.mu.Unlock()
			return nil, context.DeadlineExceeded
		default: // canceled by Close
			s.mu.Unlock()
			return nil, ErrClosed
		}
		s.mu.Unlock()
	}

	s.m.admitted.Inc()
	s.m.queueDelay.Observe(s.now().Sub(w.enq))
	var once sync.Once
	return func() {
		once.Do(func() { s.release(clientID) })
	}, nil
}

// release returns one concurrency slot and re-runs dispatch.
func (s *Scheduler) release(clientID string) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if cs, ok := s.clients[clientID]; ok {
		cs.inflight--
		cs.lastActive = now
	}
	if !s.closed {
		s.dispatchLocked(now)
	}
}

// clientLocked finds or creates tenant state, opportunistically
// evicting clients idle past the TTL so churning identities cannot
// grow the map without bound.
func (s *Scheduler) clientLocked(name string, now time.Time) *client {
	if cs, ok := s.clients[name]; ok {
		cs.lastActive = now
		return cs
	}
	for id, cs := range s.clients {
		if cs.live == 0 && cs.inflight == 0 && !cs.inRing &&
			now.Sub(cs.lastActive) > idleTTL {
			delete(s.clients, id)
		}
	}
	cs := &client{
		name:       name,
		tokens:     s.cfg.Burst,
		lastRefill: now,
		lastActive: now,
	}
	s.clients[name] = cs
	return cs
}

// pruneLocked drops canceled waiters from the head of the queue.
func (cs *client) pruneLocked() {
	for len(cs.queue) > 0 && cs.queue[0].state != stateQueued {
		cs.queue = cs.queue[1:]
	}
}

// servableHeadLocked reports whether the client's head-of-line waiter
// could be admitted right now if a concurrency slot were free.
func (cs *client) servableHeadLocked(cfg *Config) bool {
	cs.pruneLocked()
	if len(cs.queue) == 0 {
		return false
	}
	w := cs.queue[0]
	if cs.deficit < w.cost {
		return false
	}
	if cfg.RatePerSec > 0 {
		ecost := float64(w.cost)
		if ecost > cfg.Burst {
			ecost = cfg.Burst
		}
		if cs.tokens < ecost {
			return false
		}
	}
	return true
}

// refillLocked advances the token bucket to now.
func (cs *client) refillLocked(now time.Time, cfg *Config) {
	if cfg.RatePerSec <= 0 {
		return
	}
	el := now.Sub(cs.lastRefill).Seconds()
	if el > 0 {
		cs.tokens += el * cfg.RatePerSec
		if cs.tokens > cfg.Burst {
			cs.tokens = cfg.Burst
		}
	}
	cs.lastRefill = now
}

// dispatchLocked runs deficit round-robin over the ring, admitting
// waiters while concurrency slots, deficits and tokens allow.
//
// Progress logic: a pass that admits nothing but found a client
// blocked only on deficit loops again (deficits grow by one quantum
// per visit, so a large request is served within cost/quantum
// passes). A pass blocked purely on tokens arms a timer for the
// earliest refill instant instead of spinning.
func (s *Scheduler) dispatchLocked(now time.Time) {
	for s.inflight < s.cfg.MaxConcurrent && len(s.ring) > 0 {
		admittedAny := false
		deficitBlocked := false
		nextToken := time.Duration(-1)
		visits := 0
		limit := len(s.ring)
		for visits < limit && len(s.ring) > 0 && s.inflight < s.cfg.MaxConcurrent {
			if s.ringIdx >= len(s.ring) {
				s.ringIdx = 0
			}
			cs := s.clients[s.ring[s.ringIdx]]
			// A visit the concurrency cap interrupted resumes with its
			// remaining deficit instead of banking another quantum —
			// otherwise a cap of 1 degrades byte-weighted DRR into
			// per-request round-robin.
			resumed := s.resume
			s.resume = false
			cs.pruneLocked()
			if cs.live == 0 {
				// No queued work: leave the ring (state is kept until
				// the idle TTL reaps it).
				s.ring = append(s.ring[:s.ringIdx], s.ring[s.ringIdx+1:]...)
				cs.inRing = false
				cs.deficit = 0
				limit--
				continue
			}
			cs.refillLocked(now, &s.cfg)
			if !resumed {
				// Cap the deficit one quantum past what the head needs so a
				// token-starved client cannot bank unbounded credit. A
				// client the deficit alone held back had less than its head
				// left, so it keeps that credit, as deficit round-robin's
				// fairness bound needs.
				cs.deficit = min(cs.deficit, cs.queue[0].cost) + quantum
			}
			for s.inflight < s.cfg.MaxConcurrent {
				cs.pruneLocked()
				if cs.live == 0 || len(cs.queue) == 0 {
					break
				}
				w := cs.queue[0]
				if cs.deficit < w.cost {
					deficitBlocked = true
					break
				}
				ecost := float64(w.cost)
				if s.cfg.RatePerSec > 0 {
					if ecost > s.cfg.Burst {
						ecost = s.cfg.Burst
					}
					if cs.tokens < ecost {
						wait := time.Duration((ecost - cs.tokens) / s.cfg.RatePerSec * float64(time.Second))
						if nextToken < 0 || wait < nextToken {
							nextToken = wait
						}
						break
					}
					cs.tokens -= ecost
				}
				cs.queue = cs.queue[1:]
				cs.live--
				s.queued--
				cs.deficit -= w.cost
				if cs.deficit < 0 {
					cs.deficit = 0
				}
				w.state = stateAdmitted
				w.ch <- struct{}{}
				s.inflight++
				cs.inflight++
				cs.admitted++
				s.observeDelayLocked(now.Sub(w.enq))
				admittedAny = true
			}
			if s.inflight >= s.cfg.MaxConcurrent && cs.servableHeadLocked(&s.cfg) {
				// Interrupted mid-visit by the cap with entitlement left:
				// resume here on the next dispatch.
				s.resume = true
				return
			}
			s.ringIdx++
			visits++
		}
		if !admittedAny {
			if deficitBlocked {
				continue
			}
			if nextToken >= 0 {
				s.armTimerLocked(now, nextToken)
			}
			return
		}
	}
}

// armTimerLocked schedules a dispatch at the earliest instant a
// token-starved client can afford its head-of-line request.
func (s *Scheduler) armTimerLocked(now time.Time, wait time.Duration) {
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	at := now.Add(wait)
	if s.timerArmed && !s.timerAt.After(at) {
		return
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timerArmed = true
	s.timerAt = at
	s.timer = time.AfterFunc(wait, func() {
		s.mu.Lock()
		s.timerArmed = false
		if !s.closed {
			s.dispatchLocked(s.now())
		}
		s.mu.Unlock()
	})
}

// Snapshot returns per-tenant scheduler state sorted by client name,
// for the /statusz tenant table.
func (s *Scheduler) Snapshot() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStats, 0, len(s.clients))
	for _, cs := range s.clients {
		out = append(out, TenantStats{
			Client:   cs.name,
			Inflight: cs.inflight,
			Queued:   cs.live,
			Tokens:   cs.tokens,
			Admitted: cs.admitted,
			Rejected: cs.rejected,
			Expired:  cs.expired,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}
