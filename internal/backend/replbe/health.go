package replbe

import (
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/backend"
)

// replica is one member's runtime state: the backend, its health
// score, its replication queue (primary-ack mode) and the set of files
// known stale on it.
type replica struct {
	name     string
	b        backend.Backend
	readOnly bool

	ops       atomic.Uint64
	errs      atomic.Uint64
	hedgeWins atomic.Uint64
	ewmaNs    atomic.Int64

	// br marks the replica down after a run of Unavailable/Timeout
	// failures and probes it back up.
	br *backend.Breaker

	mu sync.Mutex
	// stale holds files this replica is known to be missing data for:
	// a replication apply failed, or a quorum write skipped it. Reads
	// never route to a replica stale for the file; the scrub repairs
	// and clears. staleEpoch increments on every marking so the scrub
	// can detect a mark that raced its repair.
	stale      map[string]bool
	staleEpoch uint64

	q *queue // nil for read-only replicas and in quorum mode
}

// newReplica builds the member and its breaker. A recovered replica's
// EWMA is reset so it re-earns its routing rank instead of competing
// with a pre-outage score; reads and writes resume, stale files stay
// excluded until the scrub repairs them.
func newReplica(name string, b backend.Backend, readOnly bool, cfg *Config) *replica {
	r := &replica{name: name, b: b, readOnly: readOnly, stale: make(map[string]bool)}
	r.br = backend.NewBreaker(cfg.FailThreshold, cfg.ProbeInterval, b.Probe, func() { r.ewmaNs.Store(0) })
	return r
}

// ewmaAlphaInv is the EWMA weight divisor: new = old + (d-old)/8.
const ewmaAlphaInv = 8

// observe feeds one operation's outcome into the health score. Only
// the failover classes (Unavailable, Timeout) count toward marking the
// replica down — any answer from the server, even an error, proves the
// path alive, mirroring the proxy breaker's semantics.
func (r *replica) observe(err error, d time.Duration) {
	r.ops.Add(1)
	if err == nil {
		old := r.ewmaNs.Load()
		if old == 0 {
			r.ewmaNs.Store(int64(d))
		} else {
			r.ewmaNs.Store(old + (int64(d)-old)/ewmaAlphaInv)
		}
		r.br.Success()
		return
	}
	r.errs.Add(1)
	if failoverClass(err) {
		r.br.Failure()
	} else {
		r.br.Success()
	}
}

func (r *replica) isDown() bool { return r.br.Open() }

func (r *replica) ewma() time.Duration { return time.Duration(r.ewmaNs.Load()) }

// markStale records that this replica is missing acknowledged data for
// the file.
func (r *replica) markStale(key string) {
	r.mu.Lock()
	r.stale[key] = true
	r.staleEpoch++
	r.mu.Unlock()
}

// clearStale removes the marker, but only if no new marking happened
// since epoch was read — a write that failed to replicate during the
// repair must keep the file excluded until the next scrub pass.
func (r *replica) clearStale(key string, epoch uint64) {
	r.mu.Lock()
	if r.staleEpoch == epoch {
		delete(r.stale, key)
	}
	r.mu.Unlock()
}

func (r *replica) epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.staleEpoch
}

// staleFiles snapshots the stale set.
func (r *replica) staleFiles() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.stale))
	for k := range r.stale {
		keys = append(keys, k)
	}
	return keys
}

func (r *replica) staleCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.stale)
}

// consistentFor reports whether this replica holds every acknowledged
// write for the file: nothing queued for it and no stale marker.
func (r *replica) consistentFor(key string) bool {
	r.mu.Lock()
	st := r.stale[key]
	r.mu.Unlock()
	if st {
		return false
	}
	return r.q == nil || r.q.pendingFor(key) == 0
}

// consistentForID is consistentFor keyed by FileID. The map indexes
// compile to allocation-free string conversions, keeping the read
// routing path free of per-op key allocations.
func (r *replica) consistentForID(f backend.FileID) bool {
	r.mu.Lock()
	st := r.stale[string(f)]
	r.mu.Unlock()
	if st {
		return false
	}
	return r.q == nil || r.q.pendingForID(f) == 0
}

// behind reports whether the replica is known to be missing anything at
// all — queued replication or stale files. A NotFound from a behind
// replica is not authoritative: the name it cannot resolve may be
// sitting in its queue or among the files the scrub still owes it.
func (r *replica) behind() bool {
	if r.staleCount() > 0 {
		return true
	}
	return r.q != nil && r.q.depth() > 0
}

func (r *replica) state() string {
	if r.isDown() {
		return "down"
	}
	return "healthy"
}
