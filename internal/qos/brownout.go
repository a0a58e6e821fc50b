package qos

// Brownout controller: an EWMA of admission queue delay with
// enter/exit hysteresis. Queue delay is the one signal that reflects
// *sustained* pressure — instantaneous queue length spikes on every
// burst, but delay only grows when the scheduler cannot drain as fast
// as work arrives. While brownout is active the proxy sheds optional
// work (read-ahead, idle write-back) and defers cache misses with the
// retriable NFS3ERR_JUKEBOX, preserving cache-hit service for
// everyone instead of collapsing for everyone.

import "time"

// Brownout reports whether the proxy should currently shed optional
// work. Safe to call from hot paths (single atomic load).
func (s *Scheduler) Brownout() bool { return s.brownout.Load() }

// QueueDelayEWMA returns the smoothed queue delay the controller is
// acting on.
func (s *Scheduler) QueueDelayEWMA() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.ewmaDelay)
}

// observeDelayLocked feeds one queue-delay sample to the EWMA and
// re-evaluates the brownout state.
func (s *Scheduler) observeDelayLocked(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.ewmaDelay = s.ewmaDelay*(1-ewmaAlpha) + float64(d)*ewmaAlpha
	s.updateBrownoutLocked()
}

// brownoutDwell is the minimum time in either state before the next
// transition. The EWMA hysteresis alone still flaps when shedding
// itself drains the queue (shed → delay collapses → exit → queue
// refills → enter, many times a second); the dwell turns that cycle
// into at most one transition per half second.
const brownoutDwell = 500 * time.Millisecond

func (s *Scheduler) updateBrownoutLocked() {
	if s.cfg.BrownoutEnter <= 0 {
		return
	}
	now := s.now()
	ewma := time.Duration(s.ewmaDelay)
	switch {
	case !s.brownout.Load() && ewma >= s.cfg.BrownoutEnter:
		if !s.lastBrownoutAt.IsZero() && now.Sub(s.lastBrownoutAt) < brownoutDwell {
			return
		}
		s.brownout.Store(true)
		s.lastBrownoutAt = now
		s.m.brownoutEnter.Inc()
		if cb := s.cfg.OnBrownout; cb != nil {
			go cb(true)
		}
	case s.brownout.Load() && ewma <= s.cfg.BrownoutEnter/4:
		if now.Sub(s.lastBrownoutAt) < brownoutDwell {
			return
		}
		s.brownout.Store(false)
		s.lastBrownoutAt = now
		s.m.brownoutExit.Inc()
		if cb := s.cfg.OnBrownout; cb != nil {
			go cb(false)
		}
	}
}

// tickLoop keeps the EWMA honest between admissions. Admission-time
// samples alone have two blind spots: a wedged queue admits nothing
// (so the EWMA never sees the growing delay), and an idle scheduler
// observes nothing (so a stale high EWMA would pin brownout on
// forever). Each tick samples the age of the oldest queued waiter —
// zero when nothing waits — covering both.
func (s *Scheduler) tickLoop() {
	for {
		select {
		case <-s.tickDone:
			return
		case <-s.ticker.C:
		}
		now := s.now()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		var oldest time.Duration
		for _, cs := range s.clients {
			for _, w := range cs.queue {
				if w.state != stateQueued {
					continue
				}
				if age := now.Sub(w.enq); age > oldest {
					oldest = age
				}
				break // queue is FIFO; the first live waiter is oldest
			}
		}
		s.observeDelayLocked(oldest)
		s.mu.Unlock()
	}
}
