package replbe

import (
	"sync"
	"sync/atomic"
	"time"

	"gvfs/internal/backend"
)

// scrubState is the background scrub's bookkeeping: the set of files
// the composite has seen (scrub candidates), a rotating cursor over
// them, and the pass counters. Block hashes come from backend.Hasher
// when a replica is content-addressed — the dedup SHA-256 machinery —
// and from Read + HashOf otherwise, so any replica mix can be
// cross-checked.
type scrubState struct {
	cfg *Config

	mu     sync.Mutex
	files  map[string]scrubFile
	order  []string // registration order, scanned round-robin
	cursor int

	running sync.Mutex // serializes passes (ticker vs ScrubNow)

	passes    atomic.Uint64
	filesSeen atomic.Uint64 // files examined across all passes
	blocks    atomic.Uint64 // blocks hash-compared
	divergent atomic.Uint64 // block mismatches found
	repaired  atomic.Uint64 // blocks rewritten from a good replica
	repairErr atomic.Uint64 // repair attempts that failed
}

// scrubFile is one registered file. dir and name are remembered for
// files the composite created, so a replica that missed the create
// replication can have the file re-created before block repair.
type scrubFile struct {
	fid  backend.FileID
	dir  backend.FileID // nil unless registered via Create
	name string
}

// scrubMaxFiles bounds the registry; beyond it new files are not
// tracked (the hot set registered first keeps being scrubbed).
const scrubMaxFiles = 4096

func (s *scrubState) init(cfg *Config) {
	s.cfg = cfg
	s.files = make(map[string]scrubFile)
}

// register remembers a file for scrubbing. Directory-less registration
// (from Read/Write) never downgrades one that knows its parent.
func (s *scrubState) register(fid backend.FileID, dir backend.FileID, name string) {
	key := fid.Key()
	s.mu.Lock()
	if old, ok := s.files[key]; ok {
		if dir != nil && old.dir == nil {
			old.dir = append(backend.FileID(nil), dir...)
			old.name = name
			s.files[key] = old
		}
	} else if len(s.files) < scrubMaxFiles {
		sf := scrubFile{fid: append(backend.FileID(nil), fid...)}
		if dir != nil {
			sf.dir = append(backend.FileID(nil), dir...)
			sf.name = name
		}
		s.files[key] = sf
		s.order = append(s.order, key)
	}
	s.mu.Unlock()
}

// nextFiles returns up to n files starting at the cursor.
func (s *scrubState) nextFiles(n int) []scrubFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		return nil
	}
	if n > len(s.order) {
		n = len(s.order)
	}
	out := make([]scrubFile, 0, n)
	for i := 0; i < n; i++ {
		key := s.order[(s.cursor+i)%len(s.order)]
		out = append(out, s.files[key])
	}
	s.cursor = (s.cursor + n) % len(s.order)
	return out
}

// scrubLoop runs one pass per ScrubInterval.
func (c *Backend) scrubLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.ScrubNow()
		}
	}
}

// ScrubNow runs one synchronous scrub pass: repair every stale file
// first (a replica that failed replication or recovered from an
// outage), then cross-check a window of registered files block by
// block. Tests and benchmarks call it directly for a deterministic
// trigger.
func (c *Backend) ScrubNow() {
	c.scrub.running.Lock()
	defer c.scrub.running.Unlock()
	c.scrub.passes.Add(1)

	// Stale files first: they are known-bad and block read routing.
	for _, r := range c.reps {
		if r.readOnly || r.isDown() {
			continue
		}
		for _, key := range r.staleFiles() {
			c.scrub.mu.Lock()
			sf, ok := c.scrub.files[key]
			c.scrub.mu.Unlock()
			if !ok {
				// Untracked file (registry overflow): leave the marker;
				// the replica simply serves no reads for it.
				continue
			}
			epoch := r.epoch()
			if c.repairFile(r, sf) {
				r.clearStale(key, epoch)
			}
		}
	}

	// Then the rotating verification window over everything seen.
	for _, sf := range c.scrub.nextFiles(scrubFilesPerPass) {
		c.scrub.filesSeen.Add(1)
		c.verifyFile(sf)
	}
}

// scrubSource picks the reference replica for a file: the write
// primary — the first consistent healthy write-capable replica in
// index order, the same stable order writes are acknowledged in — so
// divergence on a secondary is always repaired from the copy that
// acknowledged the writes, never the other way around. Read-only
// replicas are a fallback reference when no writer qualifies.
//
// Last resort: when NO replica — healthy or down — is consistent for
// the file (every copy carries a stale marker, which partial quorum
// failures can produce over time), the first healthy write-capable
// replica becomes the reference even though it is stale. Converging
// the set on the primary-order copy and clearing the markers restores
// availability at the cost of possibly settling on a state missing
// some unacknowledged-or-partially-acknowledged write; the alternative
// is a file that is permanently unreadable because repair has no
// source. If a consistent copy exists but is merely down, repair
// waits for its recovery instead of converging without it.
func (c *Backend) scrubSource(key string, not *replica) *replica {
	for _, r := range c.writeCandidates() {
		if r != not && !r.isDown() && r.consistentFor(key) {
			return r
		}
	}
	for _, r := range c.readCandidates(key) {
		if r != not && !r.isDown() {
			return r
		}
	}
	for _, r := range c.reps {
		if r.consistentFor(key) {
			return nil // a consistent copy exists (down): wait for it
		}
	}
	for _, r := range c.writeCandidates() {
		if r != not && !r.isDown() {
			return r
		}
	}
	return nil
}

// blockHash returns the hash and length of one block on a replica,
// via the Hasher fast path (no data transfer) when available, else by
// reading and hashing. A non-nil error means the block's state could
// not be determined (treat as divergent only on the repair target —
// unless the error says the replica is unreachable, see repairAgainst).
func blockHash(r *replica, f backend.FileID, block uint64, bs int) (backend.Hash, uint32, error) {
	if h, ok := r.b.(backend.Hasher); ok {
		if hash, n, ok := h.BlockHash(f, block, bs); ok {
			return hash, n, nil
		}
	}
	res, err := r.b.Read(f, uint64(block)*uint64(bs), uint32(bs), backend.CallOpts{})
	if err != nil {
		return backend.Hash{}, 0, err
	}
	defer res.Release()
	return backend.HashOf(res.Data), uint32(len(res.Data)), nil
}

// verifyFile cross-checks every other write-capable healthy replica
// against the reference copy (the write primary, see scrubSource),
// repairing divergent blocks in place. The reference itself is the
// definition of the acknowledged state and is never "repaired" from a
// secondary — that direction would propagate a secondary's rot into
// the copy that acknowledged the writes.
func (c *Backend) verifyFile(sf scrubFile) {
	key := sf.fid.Key()
	src := c.scrubSource(key, nil)
	if src == nil {
		return
	}
	for _, r := range c.reps {
		if r == src || r.readOnly || r.isDown() || !r.consistentFor(key) {
			continue
		}
		c.repairAgainst(src, r, sf, false)
	}
}

// repairFile restores a stale file on replica r from a consistent
// source, returning true when the repair completed (the caller clears
// the stale marker if no new staleness raced in).
func (c *Backend) repairFile(r *replica, sf scrubFile) bool {
	src := c.scrubSource(sf.fid.Key(), r)
	if src == nil {
		return false
	}
	return c.repairAgainst(src, r, sf, true)
}

// repairAgainst walks the file block by block, comparing content
// hashes between src and dst and rewriting mismatched blocks on dst
// with src's bytes. When full is set (stale repair), a missing file on
// dst is re-created via Namespacer when the registry knows the
// parent. Returns true when the walk completed without repair errors.
func (c *Backend) repairAgainst(src, dst *replica, sf scrubFile, full bool) bool {
	f := sf.fid
	attr, err := src.b.GetAttr(f, backend.CallOpts{})
	if err != nil {
		return false
	}
	bs := scrubBlockSize
	nblocks := (attr.Size + uint64(bs) - 1) / uint64(bs)

	// A dst that doesn't know the file at all (missed Create) needs the
	// namespace entry before any Write can land.
	if full {
		if _, err := dst.b.GetAttr(f, backend.CallOpts{}); backend.Classify(err) == backend.ClassNotFound {
			ns, ok := dst.b.(backend.Namespacer)
			if !ok || sf.dir == nil {
				return false
			}
			if _, _, err := ns.Create(sf.dir, sf.name, backend.CallOpts{}); err != nil {
				c.scrub.repairErr.Add(1)
				return false
			}
		}
	}

	ok := true
	for i := uint64(0); i < nblocks; i++ {
		c.scrub.blocks.Add(1)
		srcHash, srcN, err := blockHash(src, f, i, bs)
		if err != nil {
			if failoverClass(err) {
				// The reference replica is unreachable mid-walk: nothing
				// useful can be decided about the remaining blocks.
				return false
			}
			ok = false
			continue
		}
		dstHash, dstN, err := blockHash(dst, f, i, bs)
		if err != nil && failoverClass(err) {
			// An unreachable dst is having an outage, not divergence —
			// abort the walk instead of booking every block as divergent
			// with a failed repair. The health layer (probes, op errors)
			// owns outage handling; scrub retries after recovery.
			return false
		}
		if err == nil && dstHash == srcHash && dstN == srcN {
			continue
		}
		// Divergent, missing or unreadable on dst: rewrite from src.
		c.scrub.divergent.Add(1)
		res, err := src.b.Read(f, i*uint64(bs), uint32(bs), backend.CallOpts{})
		if err != nil {
			c.scrub.repairErr.Add(1)
			ok = false
			continue
		}
		_, err = dst.b.Write(f, i*uint64(bs), res.Data, backend.CallOpts{})
		res.Release()
		if err != nil {
			c.scrub.repairErr.Add(1)
			ok = false
			continue
		}
		c.scrub.repaired.Add(1)
	}
	return ok
}

// RegisterFile adds a file to the scrub registry without an operation
// touching it first (benchmarks seed their working set this way).
func (c *Backend) RegisterFile(f backend.FileID) { c.scrub.register(f, nil, "") }
