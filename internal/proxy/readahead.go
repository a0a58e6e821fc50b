package proxy

import (
	"sync"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/cache"
	"gvfs/internal/nfs3"
)

// Read-ahead implements one of the paper's stated future-work
// directions: "dynamic profiling of application data access behavior
// to support pre-fetching ... in a selective manner". The proxy
// profiles per-file access at RPC granularity; once it observes a
// sequential run of block reads it prefetches a window of following
// blocks into the disk cache concurrently, overlapping many WAN round
// trips. Demand reads that race an in-flight prefetch of the same
// block wait for it instead of duplicating the transfer.

// raMinStreak is how many sequential reads trigger prefetching.
const raMinStreak = 2

// raConcurrency bounds simultaneous prefetch RPCs per proxy.
const raConcurrency = 16

// raMaxFiles caps the per-file profile map. A proxy serving a large
// namespace would otherwise accumulate one profile per file handle it
// ever saw read; past the cap, the least-recently-observed profile is
// evicted (losing only a prefetch hint, never correctness).
const raMaxFiles = 1024

// raState is the per-file sequential-access profile.
type raState struct {
	lastBlock uint64
	seen      bool
	streak    int
	nextWant  uint64 // first block not yet scheduled for prefetch
	touched   uint64 // ra.tick value of the last observation
}

type readAhead struct {
	mu    sync.Mutex
	files map[string]*raState
	tick  uint64 // observation counter ordering profile recency
	// inflight tracks running prefetches. Entries are self-cleaning —
	// finish() always deletes and closes — so reset() must NOT clear
	// it: waiters in waitFor block on the entry's channel.
	inflight map[cache.BlockID]chan struct{}
	sem      chan struct{}
}

func newReadAhead() *readAhead {
	return &readAhead{
		files:    make(map[string]*raState),
		inflight: make(map[cache.BlockID]chan struct{}),
		sem:      make(chan struct{}, raConcurrency),
	}
}

// observe records a read of block and returns the window of blocks to
// prefetch now (nil when the pattern is not sequential enough).
// minBatch adds scheduling hysteresis: once the watermark is ahead of
// the reader, extension of the window is deferred until at least
// minBatch blocks are due, so prefetches go out as batches instead of
// degenerating to one block per demand read in steady state. Batching
// is what lets a pipelined transport amortize a whole burst into one
// round trip; call-per-block backends pass 1.
func (ra *readAhead) observe(fh nfs3.FH, block uint64, window, minBatch int) []uint64 {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	st, ok := ra.files[fh.Key()]
	if !ok {
		if len(ra.files) >= raMaxFiles {
			ra.evictOldestLocked()
		}
		st = &raState{}
		ra.files[fh.Key()] = st
	}
	ra.tick++
	st.touched = ra.tick
	switch {
	case st.seen && block == st.lastBlock+1:
		st.streak++
	case st.seen && block == st.lastBlock:
		// repeated read of the same block: neutral
	default:
		st.streak = 0
		st.nextWant = 0
	}
	st.lastBlock = block
	st.seen = true
	if st.streak < raMinStreak {
		return nil
	}
	start := block + 1
	if st.nextWant > start {
		start = st.nextWant
	}
	end := block + 1 + uint64(window)
	if start >= end {
		return nil
	}
	if minBatch > 1 && start > block+1 && end-start < uint64(minBatch) {
		// Steady state with runway still ahead of the reader: hold off
		// until a full batch is due. nextWant is left alone, so the
		// deferred blocks are picked up by a later observation.
		return nil
	}
	var out []uint64
	for b := start; b < end; b++ {
		out = append(out, b)
	}
	st.nextWant = end
	return out
}

// begin registers an in-flight prefetch for id, returning false if one
// is already running.
func (ra *readAhead) begin(id cache.BlockID) bool {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if _, busy := ra.inflight[id]; busy {
		return false
	}
	ra.inflight[id] = make(chan struct{})
	return true
}

// finish completes the in-flight prefetch for id, waking waiters.
func (ra *readAhead) finish(id cache.BlockID) {
	ra.mu.Lock()
	ch := ra.inflight[id]
	delete(ra.inflight, id)
	ra.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// waitFor blocks until any in-flight prefetch of (fh, block) finishes.
// It reports whether there was one to wait for.
func (ra *readAhead) waitFor(fh nfs3.FH, block uint64) bool {
	id := cache.BlockID{FH: fh.Key(), Block: block}
	ra.mu.Lock()
	ch, ok := ra.inflight[id]
	ra.mu.Unlock()
	if !ok {
		return false
	}
	<-ch
	return true
}

// forget drops profiling state for a file (remove/rename/invalidate).
func (ra *readAhead) forget(fh nfs3.FH) {
	ra.mu.Lock()
	delete(ra.files, fh.Key())
	ra.mu.Unlock()
}

// reset drops every per-file profile (cache flush). In-flight prefetch
// tracking is left alone: those entries are removed by finish() and
// waiters depend on their channels being closed.
func (ra *readAhead) reset() {
	ra.mu.Lock()
	ra.files = make(map[string]*raState)
	ra.mu.Unlock()
}

// evictOldestLocked removes the least-recently-observed profile; the
// caller holds ra.mu.
func (ra *readAhead) evictOldestLocked() {
	var oldestKey string
	var oldest uint64 = ^uint64(0)
	for k, st := range ra.files {
		if st.touched < oldest {
			oldest = st.touched
			oldestKey = k
		}
	}
	if oldestKey != "" {
		delete(ra.files, oldestKey)
	}
}

// profileCount reports how many per-file profiles are resident (tests).
func (ra *readAhead) profileCount() int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return len(ra.files)
}

// maybePrefetch schedules asynchronous prefetches of the blocks after
// block when the file's access pattern warrants it.
func (p *Proxy) maybePrefetch(fh nfs3.FH, block uint64) {
	if p.ra == nil {
		return
	}
	// Optional work is the first thing brownout sheds: prefetching
	// spends WAN round trips the overloaded proxy cannot spare.
	if p.brownout() {
		return
	}
	br, pipelined := p.cfg.Backend.(backend.BatchReader)
	pipelined = pipelined && p.cfg.Backend.Caps().Batched
	minBatch := 1
	if pipelined {
		if minBatch = p.cfg.ReadAhead / 2; minBatch < 1 {
			minBatch = 1
		}
	}
	targets := p.ra.observe(fh, block, p.cfg.ReadAhead, minBatch)
	if len(targets) == 0 {
		return
	}
	v, _ := p.attrs.get(fh)
	bs := uint64(p.cfg.BlockCache.BlockSize())
	eligible := targets[:0]
	for _, b := range targets {
		if v.hasSize && b*bs >= v.attr.Size {
			break
		}
		if cached, _ := p.cfg.BlockCache.Peek(fh, b); cached {
			continue
		}
		if !p.ra.begin(cache.BlockID{FH: fh.Key(), Block: b}) {
			continue
		}
		eligible = append(eligible, b)
	}
	if len(eligible) == 0 {
		return
	}

	if pipelined {
		// One goroutine, one sem slot, the whole batch outstanding
		// on the wire at once. Never block the demand path on
		// prefetch capacity.
		select {
		case p.ra.sem <- struct{}{}:
		default:
			for _, b := range eligible {
				p.ra.finish(cache.BlockID{FH: fh.Key(), Block: b})
			}
			p.ra.rewind(fh, eligible[0])
			return
		}
		go p.prefetchPipelined(br, fh, append([]uint64(nil), eligible...), bs)
		return
	}

	// Call-per-block: one goroutine and one synchronous RPC per target.
	for i, b := range eligible {
		id := cache.BlockID{FH: fh.Key(), Block: b}
		// Never block the demand path on prefetch capacity.
		select {
		case p.ra.sem <- struct{}{}:
		default:
			for _, rb := range eligible[i:] {
				p.ra.finish(cache.BlockID{FH: fh.Key(), Block: rb})
			}
			p.ra.rewind(fh, b)
			return
		}
		go func(b uint64, id cache.BlockID) {
			defer func() {
				<-p.ra.sem
				p.ra.finish(id)
			}()
			p.prefetchBlock(fh, b, bs)
		}(b, id)
	}
}

// prefetchPipelined pulls a window of blocks through the backend's
// batch reader: every request is transmitted back to back, then the
// replies are collected in order (backend/nfs3be pipelines them on the
// upstream connection). Over a WAN the window costs one round trip
// plus serialization instead of one round trip per block. Every block
// in blocks has a registered in-flight entry; this function owns
// finishing all of them.
func (p *Proxy) prefetchPipelined(br backend.BatchReader, fh nfs3.FH, blocks []uint64, bs uint64) {
	defer func() { <-p.ra.sem }()
	if p.Degraded() {
		for _, b := range blocks {
			p.ra.finish(cache.BlockID{FH: fh.Key(), Block: b})
		}
		return
	}
	offs := make([]uint64, len(blocks))
	for i, b := range blocks {
		offs[i] = b * bs
	}
	finished := make([]bool, len(blocks))
	seq := p.attrs.writeSeq(fh)
	br.ReadBatch(backend.FileID(fh), offs, uint32(bs), backend.CallOpts{},
		func(i int, r backend.ReadResult, err error) {
			p.observeUpstream(err)
			if err == nil {
				p.storePrefetched(fh, blocks[i], r, seq)
			}
			p.ra.finish(cache.BlockID{FH: fh.Key(), Block: blocks[i]})
			finished[i] = true
		})
	// A batch cut short (transport down mid-window) still owes every
	// remaining waiter its wake-up.
	for i, done := range finished {
		if !done {
			p.ra.finish(cache.BlockID{FH: fh.Key(), Block: blocks[i]})
		}
	}
}

// prefetchBlock pulls one block into the disk cache. Errors are
// swallowed: prefetching is best-effort and the demand path remains
// correct without it.
func (p *Proxy) prefetchBlock(fh nfs3.FH, block, bs uint64) {
	seq := p.attrs.writeSeq(fh)
	r, err := p.beRead(fh, block*bs, uint32(bs), nil, time.Time{}, false)
	if err != nil {
		return
	}
	p.storePrefetched(fh, block, r, seq)
}

// storePrefetched inserts one prefetched block into the block cache,
// through the dedup table when enabled, and releases r: the cache
// copies into its bank. seq is the file's write sequence from before
// the read left (keepAhead).
func (p *Proxy) storePrefetched(fh nfs3.FH, block uint64, r backend.ReadResult, seq uint64) {
	defer r.Release()
	if r.Attr != nil {
		p.attrs.sawSize(fh, r.Attr.Size, fromReply)
	}
	if len(r.Data) == 0 {
		return
	}
	// A block dirtied by a racing demand write wins: a clean insert
	// never replaces a dirty frame (cache.Put).
	if err := p.cfg.BlockCache.PutDedup(fh, block, r.Data, false); err != nil {
		return
	}
	p.keepAhead(fh, block, seq)
}

// rewind lowers a file's scheduled-prefetch watermark after capacity
// forced some of the window to be skipped, so the blocks are retried
// on the next observation.
func (ra *readAhead) rewind(fh nfs3.FH, to uint64) {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	if st, ok := ra.files[fh.Key()]; ok && st.nextWant > to {
		st.nextWant = to
	}
}
