package proxy

import (
	"sync/atomic"
	"time"
)

// Idle write-back implements the paper's §3.2.3 persistent-VM
// behaviour: "write-back caching can effectively hide the latencies of
// write operations perceived by the user ... and submit the
// modifications when the user is off-line or the session is idle."
// When enabled, a background loop watches RPC activity; once the
// session has been quiet for the configured period and dirty data
// exists, the proxy propagates it upstream on its own.

// idleState tracks activity for the idle writer.
type idleState struct {
	lastActivity atomic.Int64 // unix nanos of the last client RPC
	stop         chan struct{}
	stopped      atomic.Bool
}

// touch records client activity.
func (s *idleState) touch() {
	s.lastActivity.Store(time.Now().UnixNano())
}

// StartIdleWriteBack begins background propagation of dirty data after
// every idle period of the given length. It returns a stop function;
// calling it more than once is safe.
func (p *Proxy) StartIdleWriteBack(idle time.Duration) (stop func()) {
	s := &idleState{stop: make(chan struct{})}
	s.touch()
	p.idle.Store(s)

	go func() {
		ticker := time.NewTicker(idle / 4)
		defer ticker.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ticker.C:
			}
			last := time.Unix(0, s.lastActivity.Load())
			if time.Since(last) < idle {
				continue
			}
			if p.cfg.BlockCache == nil || p.cfg.BlockCache.DirtyCount() == 0 {
				continue
			}
			// Brownout sheds optional work: background write-back would
			// add upstream WRITE load exactly when the proxy is trying
			// to drain; the data stays safely dirty for a later tick.
			if p.brownout() {
				continue
			}
			// Best-effort: failures leave the data dirty for the next
			// tick (or an explicit middleware flush).
			_ = p.writeBackReason(TriggerIdle)
		}
	}()
	return func() {
		if s.stopped.CompareAndSwap(false, true) {
			close(s.stop)
		}
	}
}
