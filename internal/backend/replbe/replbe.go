// Package replbe implements backend.Backend over a set of replica
// backends — any mix of nfs3be and objstore — so a proxy survives the
// loss of any single upstream. The composite tracks per-replica health
// (EWMA latency plus consecutive-error scoring over the backend.Classify
// taxonomy, with probe-driven recovery), re-routes operations that fail
// with Unavailable/Timeout to the next healthy replica before the
// client or the proxy circuit breaker ever sees the error, hedges slow
// READs against the next-best replica after an online latency quantile,
// and runs a background scrub that cross-checks block content hashes
// between replicas and repairs divergence (see scrub.go).
//
// Replicas must be interchangeable: the same FileID must name the same
// file on every replica (objstore FileIDs are paths; NFS replicas get
// this from deterministically seeded servers). Writes are acknowledged
// by the first healthy write-capable replica and replicated to the
// rest asynchronously (or fanned out synchronously with Quorum); reads
// are routed only to replicas that hold every acknowledged write for
// the file (no queued replication, no stale marker), which preserves
// read-your-writes without waiting for the fan-out. A write that fails
// over to a replica whose queue still holds earlier operations for the
// same file is routed *through* that queue, so per-file apply order
// always matches acknowledgement order — a direct write would be
// overwritten when the worker applied the older queued data behind it.
package replbe

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/backend"
)

// Replica is one member of the replicated set.
type Replica struct {
	// Name labels the replica in metrics, /statusz and logs.
	Name string
	// B is the replica's backend. The composite owns it: Close closes it.
	B backend.Backend
	// ReadOnly excludes the replica from writes, replication and repair
	// (e.g. a snapshot mirror).
	ReadOnly bool
}

// Config tunes the composite. The zero value gets sane defaults.
type Config struct {
	// FailThreshold is the number of consecutive Unavailable/Timeout
	// failures that mark a replica down, ProbeInterval how often a down
	// replica is probed for recovery (zero = the backend.Breaker
	// defaults).
	FailThreshold int
	ProbeInterval time.Duration

	// HedgeQuantile is the read-latency quantile that arms a hedge: a
	// READ still outstanding after this quantile fires a second read at
	// the next-best replica (default 0.95). Negative disables hedging.
	HedgeQuantile float64

	// HedgeBudget caps hedged reads as a fraction of all reads
	// (default 0.1). The cap keeps hedging from doubling upstream load
	// when the latency distribution is genuinely wide.
	HedgeBudget float64

	// Quorum makes writes synchronous: fan out to every write-capable
	// replica and acknowledge once a majority succeeded. The default
	// (false) is primary-ack: one durable write, async replication.
	Quorum bool

	// ScrubInterval is the cadence of the background scrub/read-repair
	// pass (default 30s; negative disables the loop — ScrubNow still
	// works).
	ScrubInterval time.Duration
}

const (
	// hedgeMinDelay and hedgeMaxDelay clamp the hedge delay, so a fast
	// steady state cannot hedge every call and a slow one still hedges
	// within the caller's patience.
	hedgeMinDelay = time.Millisecond
	hedgeMaxDelay = 2 * time.Second

	// scrubBlockSize is the block granularity of the scrub's hash
	// comparison.
	scrubBlockSize = 8192
	// scrubFilesPerPass bounds how many files one scrub pass examines.
	scrubFilesPerPass = 16
)

func (c Config) withDefaults() Config {
	if c.HedgeQuantile == 0 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeBudget == 0 {
		c.HedgeBudget = 0.1
	}
	if c.ScrubInterval == 0 {
		c.ScrubInterval = 30 * time.Second
	}
	return c
}

// Backend is the replicated composite. It implements backend.Backend
// plus the optional capability interfaces its replicas support
// (Namespacer, Hasher, TransportStatser).
type Backend struct {
	cfg  Config
	reps []*replica

	lat *latTracker // successful READ latency distribution (hedge trigger)

	// candPool recycles read-routing scratch buffers so candidate
	// selection does not allocate per READ.
	candPool sync.Pool

	reads       atomic.Uint64 // READs handled by the composite
	failovers   atomic.Uint64 // ops re-routed after an Unavailable/Timeout failure
	hedgesFired atomic.Uint64
	hedgesWon   atomic.Uint64 // hedges where the second read answered first

	scrub scrubState

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds the composite over replicas. At least one replica must be
// write-capable unless every caller is read-only.
func New(replicas []Replica, cfg Config) (*Backend, error) {
	if len(replicas) == 0 {
		return nil, errors.New("replbe: no replicas")
	}
	cfg = cfg.withDefaults()
	c := &Backend{
		cfg:  cfg,
		lat:  newLatTracker(),
		done: make(chan struct{}),
	}
	c.scrub.init(&c.cfg)
	for i, r := range replicas {
		if r.B == nil {
			return nil, fmt.Errorf("replbe: replica %d has no backend", i)
		}
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("r%d", i)
		}
		rep := newReplica(name, r.B, r.ReadOnly, &cfg)
		c.reps = append(c.reps, rep)
	}
	// Replication workers only exist in primary-ack mode: quorum writes
	// fan out synchronously and leave only stale marks behind.
	if !cfg.Quorum {
		for _, r := range c.reps {
			if r.readOnly {
				continue
			}
			r.q = newQueue()
			c.wg.Add(1)
			go c.replWorker(r)
		}
	}
	if cfg.ScrubInterval > 0 {
		c.wg.Add(1)
		go c.scrubLoop()
	}
	return c, nil
}

// failoverClass reports whether an error means "try another replica":
// transport-level unavailability and deadline expiry. Every other
// class is an authoritative answer from a live server and is returned
// to the caller as-is.
func failoverClass(err error) bool {
	switch backend.Classify(err) {
	case backend.ClassUnavailable, backend.ClassTimeout:
		return true
	}
	return false
}

// allDown is the error returned when every candidate replica failed
// with a failover class. It is ClassUnavailable so the proxy breaker
// counts it — the breaker should open only when the whole replica set
// is gone, which is exactly this case. The one exception: when the
// last failure was a Timeout, the set is not known dead — the caller's
// deadline ran out — so the class stays Timeout and the breaker is not
// charged for the client's own budget.
func allDown(op string, last error) error {
	class := backend.ClassUnavailable
	if backend.Classify(last) == backend.ClassTimeout {
		class = backend.ClassTimeout
	}
	return &backend.Error{Class: class, Op: op,
		Err: fmt.Errorf("all replicas failed (last: %w)", last)}
}

// failover is the set's retry — the only one a call to a replica gets
// (DESIGN.md §3.2): try runs on each candidate in turn until one
// answers, with success or with an authoritative error; only a
// failover-class failure moves on to the next. No candidate at all, or
// none that answered, is the set's unavailability.
func (c *Backend) failover(op string, cands []*replica, try func(*replica) error) error {
	lastErr := error(errReplicaDown)
	for i, r := range cands {
		if i > 0 {
			c.failovers.Add(1)
		}
		err := try(r)
		if err == nil || !failoverClass(err) {
			return err
		}
		lastErr = err
	}
	return allDown(op, lastErr)
}

// candBuf is reusable scratch for read candidate selection.
type candBuf struct {
	all  []*replica
	down []*replica
}

func (c *Backend) getCandBuf() *candBuf {
	if v := c.candPool.Get(); v != nil {
		b := v.(*candBuf)
		b.all = b.all[:0]
		b.down = b.down[:0]
		return b
	}
	return &candBuf{}
}

func (c *Backend) putCandBuf(b *candBuf) { c.candPool.Put(b) }

// readCandidates orders replicas for a read of key: first the eligible
// ones (healthy, no queued replication and no stale marker for the
// file) by ascending EWMA latency, then — only as a last resort when
// nothing is eligible — consistent-but-down replicas, since a probe
// may not have noticed a recovery yet. Replicas with pending or stale
// state for the file are never read: they may miss acknowledged
// writes.
func (c *Backend) readCandidates(key string) []*replica {
	var elig, downOK []*replica
	for _, r := range c.reps {
		if !r.consistentFor(key) {
			continue
		}
		if r.isDown() {
			downOK = append(downOK, r)
		} else {
			elig = append(elig, r)
		}
	}
	sortByEWMA(elig)
	return append(elig, downOK...)
}

// readCandidatesInto is readCandidates for the hot path: it fills a
// pooled buffer and never materializes the key string, so candidate
// selection costs no per-op allocations. The returned slice aliases
// buf and must not outlive its return to the pool (hedge goroutines
// capture individual *replica pointers, never the slice).
func (c *Backend) readCandidatesInto(f backend.FileID, buf *candBuf) []*replica {
	for _, r := range c.reps {
		if !r.consistentForID(f) {
			continue
		}
		if r.isDown() {
			buf.down = append(buf.down, r)
		} else {
			buf.all = append(buf.all, r)
		}
	}
	sortByEWMA(buf.all)
	buf.all = append(buf.all, buf.down...)
	return buf.all
}

// writeCandidates orders write-capable replicas by index — a stable
// primary, so consecutive writes land on the same replica — healthy
// first, down ones as a last resort.
func (c *Backend) writeCandidates() []*replica {
	var up, down []*replica
	for _, r := range c.reps {
		if r.readOnly {
			continue
		}
		if r.isDown() {
			down = append(down, r)
		} else {
			up = append(up, r)
		}
	}
	return append(up, down...)
}

func sortByEWMA(reps []*replica) {
	// Insertion sort: the set is tiny (2-5 replicas) and mostly sorted.
	for i := 1; i < len(reps); i++ {
		for j := i; j > 0 && reps[j].ewma() < reps[j-1].ewma(); j-- {
			reps[j], reps[j-1] = reps[j-1], reps[j]
		}
	}
}

// scrubSampleMask samples read-path scrub registration: one in 64
// reads takes the registry lock. Writes and creates still register
// unconditionally — those registrations are what stale repair depends
// on — so sampling only thins the rot-detection candidates, and the
// mask is small enough that a steady workload's files register within
// its first moments (read #1 always registers).
const scrubSampleMask = 63

// Read implements backend.Backend with failover and hedging.
func (c *Backend) Read(f backend.FileID, off uint64, count uint32, opts backend.CallOpts) (backend.ReadResult, error) {
	n := c.reads.Add(1)
	buf := c.getCandBuf()
	defer c.putCandBuf(buf)
	cands := c.readCandidatesInto(f, buf)
	if len(cands) == 0 {
		return backend.ReadResult{}, &backend.Error{Class: backend.ClassUnavailable, Op: "read",
			Err: errors.New("no consistent replica for file")}
	}
	if n&scrubSampleMask == 1 {
		c.scrub.register(f, nil, "")
	}
	return c.hedgedRead(cands, f, off, count, opts)
}

// timedRead is one replica read with health/latency observation.
func (c *Backend) timedRead(r *replica, f backend.FileID, off uint64, count uint32, opts backend.CallOpts) (backend.ReadResult, error) {
	start := time.Now()
	res, err := r.b.Read(f, off, count, opts)
	d := time.Since(start)
	r.observe(err, d)
	if err == nil {
		c.lat.observe(d)
	}
	return res, err
}

// seqRead walks cands from index i, returning the first success or the
// first authoritative (non-failover) error.
func (c *Backend) seqRead(cands []*replica, i int, f backend.FileID, off uint64, count uint32, opts backend.CallOpts, lastErr error) (backend.ReadResult, error) {
	for ; i < len(cands); i++ {
		if lastErr != nil {
			c.failovers.Add(1)
		}
		res, err := c.timedRead(cands[i], f, off, count, opts)
		if err == nil {
			return res, nil
		}
		if !failoverClass(err) {
			return backend.ReadResult{}, err
		}
		lastErr = err
	}
	return backend.ReadResult{}, allDown("read", lastErr)
}

// hedgedRead issues the read on the best candidate and, if it is still
// outstanding after the hedge delay, fires a second read at the next
// candidate, taking the first success. Failures (of the failover
// classes) immediately launch the next candidate instead of waiting.
// The winner's result goes to the caller as the replica returned it,
// pooled record and all (ReadResult.Buf); a result that arrives after
// the return is never received, so nobody can release it twice and its
// record is the GC's.
func (c *Backend) hedgedRead(cands []*replica, f backend.FileID, off uint64, count uint32, opts backend.CallOpts) (backend.ReadResult, error) {
	delay := c.hedgeDelay(opts)
	if delay <= 0 || len(cands) < 2 {
		return c.seqRead(cands, 0, f, off, count, opts, nil)
	}

	type result struct {
		res backend.ReadResult
		err error
		rep *replica
	}
	// Buffered to the candidate count: a loser finishing after we
	// return must not block its goroutine forever.
	ch := make(chan result, len(cands))
	launch := func(r *replica) {
		go func() {
			res, err := c.timedRead(r, f, off, count, opts)
			ch <- result{res, err, r}
		}()
	}
	launch(cands[0])
	next := 1
	outstanding := 1
	var hedged *replica
	var lastErr, authErr error
	timer := time.NewTimer(delay)
	defer timer.Stop()
	timerC := timer.C
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if hedged != nil && r.rep == hedged {
					c.hedgesWon.Add(1)
					r.rep.hedgeWins.Add(1)
				}
				return r.res, nil
			}
			if !failoverClass(r.err) {
				// Authoritative failure: remember it, but let an
				// in-flight hedge still win before we surface it.
				if authErr == nil {
					authErr = r.err
				}
				continue
			}
			lastErr = r.err
			if next < len(cands) {
				c.failovers.Add(1)
				launch(cands[next])
				next++
				outstanding++
			}
		case <-timerC:
			timerC = nil
			if outstanding > 0 && next < len(cands) && c.takeHedgeToken() {
				hedged = cands[next]
				launch(cands[next])
				next++
				outstanding++
			}
		}
	}
	if authErr != nil {
		return backend.ReadResult{}, authErr
	}
	return backend.ReadResult{}, allDown("read", lastErr)
}

// hedgeDelay computes the delay before a hedge fires, or 0 when this
// read must not hedge: hedging disabled, the latency distribution is
// still warming up, or the caller's remaining deadline budget cannot
// fit a second attempt (QoS deadline propagation wins over the hedge).
func (c *Backend) hedgeDelay(opts backend.CallOpts) time.Duration {
	if c.cfg.HedgeQuantile < 0 || c.lat.count() < hedgeWarmup {
		return 0
	}
	d := min(max(c.lat.quantile(c.cfg.HedgeQuantile), hedgeMinDelay), hedgeMaxDelay)
	if rem, ok := opts.Remaining(); ok && rem <= 2*d {
		// No budget for a second attempt after the delay; spend the
		// whole deadline on the primary instead.
		return 0
	}
	return d
}

// hedgeWarmup is the minimum observed reads before hedging arms: the
// quantile of a handful of samples is noise.
const hedgeWarmup = 20

// takeHedgeToken enforces the hedge budget: hedges may be at most
// HedgeBudget of all reads.
func (c *Backend) takeHedgeToken() bool {
	for {
		fired := c.hedgesFired.Load()
		if float64(fired+1) > c.cfg.HedgeBudget*float64(c.reads.Load())+1 {
			return false
		}
		if c.hedgesFired.CompareAndSwap(fired, fired+1) {
			return true
		}
	}
}

// Write implements backend.Backend: primary-ack with asynchronous
// replication, or synchronous majority fan-out under Config.Quorum.
func (c *Backend) Write(f backend.FileID, off uint64, data []byte, opts backend.CallOpts) (backend.WriteResult, error) {
	c.scrub.register(f, nil, "")
	if c.cfg.Quorum {
		return c.quorumWrite(f, off, data, opts)
	}
	key := f.Key()
	var w backend.WriteResult
	err := c.failover("write", c.writeCandidates(), func(r *replica) (err error) {
		if w, err = c.writeOn(r, key, f, off, data, opts); err == nil {
			c.replicateWrite(r, f, off, data, opts.Cred)
		}
		return err
	})
	return w, err
}

// writeOn lands one write on r. When r's replication queue still holds
// earlier operations for the file — r is a failover target that has
// not caught up on writes another replica acknowledged — the write is
// routed through the queue and applied in order behind them: a direct
// write would race the worker, which would then apply the older queued
// data over it, silently losing an acknowledged write. The sync route
// blocks until the worker applies the item, so the returned error has
// normal Write semantics and the caller's buffer is never retained.
func (c *Backend) writeOn(r *replica, key string, f backend.FileID, off uint64, data []byte, opts backend.CallOpts) (backend.WriteResult, error) {
	if r.q != nil && r.q.pendingFor(key) > 0 {
		var w backend.WriteResult
		err := <-r.q.addSync(key, "", func(b backend.Backend) (werr error) {
			w, werr = b.Write(f, off, data, opts)
			return werr
		})
		if err != nil {
			return backend.WriteResult{}, err
		}
		return w, nil
	}
	start := time.Now()
	w, err := r.b.Write(f, off, data, opts)
	r.observe(err, time.Since(start))
	return w, err
}

// replicateWrite enqueues the acknowledged write to every other
// write-capable replica, under the acknowledged write's credential. The
// data and the credential are copied once — queue items only hold the
// copies — so the caller may reuse its buffers immediately. The
// enqueue happens before Write returns, which is what guarantees a
// subsequent read never picks a replica missing this write: the
// replica's pending count for the file is already nonzero.
func (c *Backend) replicateWrite(acker *replica, f backend.FileID, off uint64, data []byte, cred backend.Cred) {
	var opts backend.CallOpts
	var cp []byte
	key := f.Key()
	fid := append(backend.FileID(nil), f...)
	for _, r := range c.reps {
		if r == acker || r.readOnly || r.q == nil {
			continue
		}
		if cp == nil {
			cp = append([]byte(nil), data...)
			opts.Cred = keptCred(cred)
		}
		r.q.add(key, "", func(b backend.Backend) error {
			_, err := b.Write(fid, off, cp, opts)
			return err
		})
	}
}

// keptCred is cred with a body of its own, for a call that outlives the
// one it came with.
func keptCred(cred backend.Cred) backend.Cred {
	return backend.Cred{Flavor: cred.Flavor, Body: bytes.Clone(cred.Body)}
}

// quorumWrite fans the write out to every write-capable replica
// concurrently and acknowledges once a majority of them succeeded.
// Replicas that failed or were down get a stale marker so reads skip
// them until the scrub repairs the file — but only when at least one
// writer succeeded: stale means "missing data that exists on another
// replica", and a write that landed nowhere leaves the old state
// uniform. Marking on total failure would brand every replica stale at
// once, leaving the file with no consistent read candidate and the
// scrub with no repair source.
func (c *Backend) quorumWrite(f backend.FileID, off uint64, data []byte, opts backend.CallOpts) (backend.WriteResult, error) {
	var writers []*replica
	for _, r := range c.reps {
		if !r.readOnly {
			writers = append(writers, r)
		}
	}
	if len(writers) == 0 {
		return backend.WriteResult{}, &backend.Error{Class: backend.ClassUnavailable, Op: "write",
			Err: errors.New("no write-capable replica")}
	}
	need := len(writers)/2 + 1
	key := f.Key()

	type result struct {
		w   backend.WriteResult
		err error
		rep *replica
	}
	ch := make(chan result, len(writers))
	attempted := 0
	var missed []*replica // down or failed: stale iff the data landed somewhere
	for _, r := range writers {
		if r.isDown() {
			missed = append(missed, r)
			continue
		}
		attempted++
		go func(r *replica) {
			start := time.Now()
			w, err := r.b.Write(f, off, data, opts)
			r.observe(err, time.Since(start))
			ch <- result{w, err, r}
		}(r)
	}
	var w backend.WriteResult
	var firstErr error
	succ := 0
	for i := 0; i < attempted; i++ {
		res := <-ch
		if res.err == nil {
			succ++
			if !w.After.Known() {
				w = res.w
			}
		} else {
			missed = append(missed, res.rep)
			if firstErr == nil || failoverClass(firstErr) && !failoverClass(res.err) {
				firstErr = res.err
			}
		}
	}
	if succ > 0 {
		for _, r := range missed {
			r.markStale(key)
		}
	}
	if succ >= need {
		return w, nil
	}
	if firstErr == nil {
		firstErr = errors.New("quorum not reached")
	}
	if succ > 0 || failoverClass(firstErr) {
		// Partial success below quorum is still a durability failure the
		// caller must retry; report it as Unavailable so the breaker
		// logic treats the set as unhealthy.
		return backend.WriteResult{}, &backend.Error{Class: backend.ClassUnavailable, Op: "write",
			Err: fmt.Errorf("quorum %d/%d: %w", succ, need, firstErr)}
	}
	return backend.WriteResult{}, firstErr
}

// Commit implements backend.Backend against the write candidates. Like
// writeOn, a commit that fails over to a replica with queued operations
// for the file rides the queue, so the data it makes durable includes
// every write acknowledged before it.
func (c *Backend) Commit(f backend.FileID, opts backend.CallOpts) error {
	key := f.Key()
	return c.failover("commit", c.writeCandidates(), func(r *replica) error {
		if r.q != nil && r.q.pendingFor(key) > 0 {
			return <-r.q.addSync(key, "", func(b backend.Backend) error {
				return b.Commit(f, opts)
			})
		}
		start := time.Now()
		err := r.b.Commit(f, opts)
		r.observe(err, time.Since(start))
		return err
	})
}

// GetAttr implements backend.Backend with the read routing rules
// (attributes from a replica missing acknowledged writes would report
// a stale size).
func (c *Backend) GetAttr(f backend.FileID, opts backend.CallOpts) (backend.Attr, error) {
	buf := c.getCandBuf()
	defer c.putCandBuf(buf)
	var attr backend.Attr
	err := c.failover("getattr", c.readCandidatesInto(f, buf), func(r *replica) (err error) {
		start := time.Now()
		attr, err = r.b.GetAttr(f, opts)
		r.observe(err, time.Since(start))
		return err
	})
	return attr, err
}

// Probe implements backend.Backend: the composite is reachable while
// any replica is. A probe success also feeds the health tracker, so
// the proxy breaker's recovery probe doubles as replica recovery.
func (c *Backend) Probe() error {
	var lastErr error
	for _, r := range c.reps {
		err := r.b.Probe()
		if err == nil {
			r.br.Recover()
			return nil
		}
		lastErr = err
	}
	return &backend.Error{Class: backend.ClassUnavailable, Op: "probe", Err: lastErr}
}

// Caps implements backend.Backend. ContentHashes is advertised only
// when every replica has it, so a BlockHash fallback never silently
// disagrees with a Read served by a hashless replica.
func (c *Backend) Caps() backend.Caps {
	hashes := true
	for _, r := range c.reps {
		if !r.b.Caps().ContentHashes {
			hashes = false
		}
	}
	return backend.Caps{Name: "repl", ContentHashes: hashes}
}

// Close stops the probe, scrub and replication machinery, then closes
// every replica backend.
func (c *Backend) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		for _, r := range c.reps {
			r.br.Stop()
			if r.q != nil {
				r.q.close()
			}
		}
		c.wg.Wait()
		for _, r := range c.reps {
			if cerr := r.b.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// replWorker drains one replica's replication queue. A failed apply —
// the replica is down, or the write errored — marks the file stale on
// that replica: reads skip it and the scrub repairs it from a replica
// that holds the acknowledged data. Sync items (failover ops routed
// through the queue to stay ordered) get their apply error delivered to
// the waiting caller.
func (c *Backend) replWorker(r *replica) {
	defer c.wg.Done()
	for {
		it, ok := r.q.take()
		if !ok {
			return
		}
		var err error
		if r.isDown() {
			err = errReplicaDown
			r.markStale(it.key)
		} else {
			start := time.Now()
			err = it.apply(r.b)
			r.observe(err, time.Since(start))
			if err != nil {
				r.markStale(it.key)
			}
		}
		if it.done != nil {
			it.done <- err
		}
		r.q.finish(it)
	}
}

// nameKey is the queue pending key for a directory entry, letting
// lookup routing see a queued Create for (dir, name) before the created
// file's own FileID is known on that replica. The NUL prefix keeps it
// out of the FileID key space (objstore keys are slash-rooted paths,
// NFS keys are server handles).
func nameKey(dir backend.FileID, name string) string {
	return "\x00n" + string(dir) + "\x00" + name
}

// Lookup implements backend.Lookuper with index-order failover, so a
// lookup immediately after Create resolves on the replica that
// acknowledged the create (both use the same stable order). A replica
// whose queue still holds the Create for this (dir, name) answers
// through the queue — after the create applies — instead of returning
// a NotFound for a file the composite has acknowledged; and a NotFound
// from a replica that is demonstrably behind (non-empty queue or stale
// files) is kept only as a last resort rather than returned over a
// caught-up replica's answer.
func (c *Backend) Lookup(dir backend.FileID, name string, opts backend.CallOpts) (backend.FileID, backend.Attr, error) {
	nk := nameKey(dir, name)
	var notFound error
	// With every capable replica marked down nothing is asked, and the
	// answer is the set's unavailability — not an I/O error, which a
	// client would take for the file's state.
	lastErr, capable := error(errReplicaDown), false
	for _, r := range c.reps {
		if _, ok := r.b.(backend.Lookuper); !ok {
			continue
		}
		capable = true
		if r.isDown() {
			continue
		}
		var fid backend.FileID
		var attr backend.Attr
		run := func(b backend.Backend) error {
			f, a, lerr := b.(backend.Lookuper).Lookup(dir, name, opts)
			fid, attr = f, a
			return lerr
		}
		var err error
		if r.q != nil && r.q.pendingFor(nk) > 0 {
			err = <-r.q.addSync(nk, "", run)
		} else {
			start := time.Now()
			err = run(r.b)
			r.observe(err, time.Since(start))
		}
		if err == nil {
			return fid, attr, nil
		}
		if !failoverClass(err) {
			if backend.Classify(err) == backend.ClassNotFound && r.behind() {
				// The replica may simply not have applied a create it
				// missed (failed replication, recovering from an outage);
				// let a caught-up replica answer before believing it.
				if notFound == nil {
					notFound = err
				}
				continue
			}
			return nil, backend.Attr{}, err
		}
		lastErr = err
	}
	if notFound != nil {
		return nil, backend.Attr{}, notFound
	}
	if !capable {
		return nil, backend.Attr{}, &backend.Error{Class: backend.ClassIO, Op: "lookup",
			Err: errors.New("no replica supports lookup")}
	}
	return nil, backend.Attr{}, allDown("lookup", lastErr)
}

// Root implements backend.Namespacer against the first replica that
// can answer.
func (c *Backend) Root(dirpath string) (backend.FileID, backend.Attr, error) {
	lastErr, capable := error(errReplicaDown), false
	for _, r := range c.reps {
		ns, ok := r.b.(backend.Namespacer)
		if !ok {
			continue
		}
		capable = true
		if r.isDown() {
			continue
		}
		fid, attr, err := ns.Root(dirpath)
		if err == nil {
			return fid, attr, nil
		}
		if !failoverClass(err) {
			return nil, backend.Attr{}, err
		}
		lastErr = err
	}
	if !capable {
		return nil, backend.Attr{}, &backend.Error{Class: backend.ClassIO, Op: "root",
			Err: errors.New("no replica supports namespace operations")}
	}
	return nil, backend.Attr{}, allDown("root", lastErr)
}

// Create implements backend.Namespacer: create on the first healthy
// write-capable replica, replicate the create to the rest. The created
// file's identity (and its parent dir + name, so the scrub can
// re-create it on a replica that missed the replication) is registered
// with the scrub.
func (c *Backend) Create(dir backend.FileID, name string, opts backend.CallOpts) (backend.FileID, backend.Attr, error) {
	var cands []*replica
	for _, r := range c.writeCandidates() {
		if _, ok := r.b.(backend.Namespacer); ok {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return nil, backend.Attr{}, &backend.Error{Class: backend.ClassIO, Op: "create",
			Err: errors.New("no replica supports create")}
	}
	var acker *replica
	var fid backend.FileID
	var attr backend.Attr
	err := c.failover("create", cands, func(r *replica) (err error) {
		start := time.Now()
		fid, attr, err = r.b.(backend.Namespacer).Create(dir, name, opts)
		r.observe(err, time.Since(start))
		acker = r
		return err
	})
	if err != nil {
		return nil, backend.Attr{}, err
	}
	c.scrub.register(fid, dir, name)
	key := fid.Key()
	nk := nameKey(dir, name)
	pdir := append(backend.FileID(nil), dir...)
	kept := backend.CallOpts{Cred: keptCred(opts.Cred)}
	for _, r := range c.reps {
		if r == acker || r.readOnly || r.q == nil {
			continue
		}
		if _, ok := r.b.(backend.Namespacer); !ok {
			continue
		}
		r.q.add(key, nk, func(b backend.Backend) error {
			_, _, err := b.(backend.Namespacer).Create(pdir, name, kept)
			return err
		})
	}
	return fid, attr, nil
}

// BlockHash implements backend.Hasher by asking the read candidates in
// routing order; ok is false when none can answer.
func (c *Backend) BlockHash(f backend.FileID, block uint64, blockSize int) (backend.Hash, uint32, bool) {
	for _, r := range c.readCandidates(f.Key()) {
		if h, ok := r.b.(backend.Hasher); ok {
			if hash, n, ok := h.BlockHash(f, block, blockSize); ok {
				return hash, n, true
			}
		}
	}
	return backend.Hash{}, 0, false
}

// TransportStats implements backend.TransportStatser by summing the
// replicas' transport counters.
func (c *Backend) TransportStats() backend.TransportStats {
	var sum backend.TransportStats
	for _, r := range c.reps {
		if ts, ok := r.b.(backend.TransportStatser); ok {
			s := ts.TransportStats()
			sum.Retries += s.Retries
			sum.Reconnects += s.Reconnects
			sum.Timeouts += s.Timeouts
		}
	}
	return sum
}

// WaitReplicated blocks until every replication queue is empty (or the
// timeout passes), returning whether it drained. Tests and benchmarks
// use it to bound the asynchronous window.
func (c *Backend) WaitReplicated(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, r := range c.reps {
			if r.q != nil && r.q.depth() > 0 {
				idle = false
				break
			}
		}
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}
