package cache

import (
	"sync"
	"sync/atomic"

	"gvfs/internal/backend"
	"gvfs/internal/nfs3"
)

// Content-addressed deduplication (Config.Dedup). The paper's
// zero-block map is a special case of a general observation: N VMs
// cloned from one golden image read mostly identical blocks, so the
// shared cache should hold each distinct content once. The dedup
// table maps a block's content hash to the one physical frame holding
// it (the canonical BlockID) plus the set of aliases — other (file,
// block) identities with the same content. Aliases occupy no frame:
// a read of an alias that misses physically is redirected to the
// canonical frame.
//
// Invariants:
//
//   - Aliases never appear in stripe indexes; only the canonical
//     BlockID owns a frame.
//   - refs always contains the canonical ID, so len(refs) is the
//     entry's refcount; the entry dies when the canonical departs
//     (aliases have no frame to promote).
//   - Entries bind to content via the frame CRC: every redirect
//     re-verifies crc32c(frame bytes) == entry CRC, so a canonical
//     frame silently evicted and re-filled with other content can
//     never serve wrong bytes through an alias — the stale mapping is
//     dropped lazily instead.
//   - Dirty data is never deduplicated: a dirty Put forgets the ID's
//     mapping first (content diverges from the shared block).
//
// Lock order: dedup.mu is a leaf under the stripe locks — code
// holding dedup.mu NEVER acquires a stripe lock. Paths that need both
// (redirects, liveness checks) snapshot under dedup.mu, release, do
// the stripe work, then re-take dedup.mu and re-validate.
type dedupTable struct {
	mu     sync.Mutex
	byHash map[backend.Hash]*dentry
	byID   map[BlockID]*dentry

	hits       atomic.Uint64
	aliasDrops atomic.Uint64
}

// dentry is one distinct content currently cached.
type dentry struct {
	hash      backend.Hash
	canonical BlockID
	crc       uint32
	size      uint32
	refs      map[BlockID]struct{} // includes canonical
}

func newDedupTable() *dedupTable {
	return &dedupTable{
		byHash: make(map[backend.Hash]*dentry),
		byID:   make(map[BlockID]*dentry),
	}
}

// forgetLocked unbinds id; caller holds d.mu. When id is the
// canonical, the whole entry dies: the aliases' shared frame is gone
// (or about to change content).
func (d *dedupTable) forgetLocked(id BlockID) {
	e, ok := d.byID[id]
	if !ok {
		return
	}
	delete(d.byID, id)
	delete(e.refs, id)
	if id == e.canonical {
		for r := range e.refs {
			delete(d.byID, r)
		}
		delete(d.byHash, e.hash)
	}
}

// forget unbinds id (nil-safe on the cache).
func (d *dedupTable) forget(id BlockID) {
	d.mu.Lock()
	d.forgetLocked(id)
	d.mu.Unlock()
}

// dropEntry removes e if it is still the live entry for its hash.
func (d *dedupTable) dropEntry(e *dentry) {
	d.mu.Lock()
	if d.byHash[e.hash] == e {
		for r := range e.refs {
			delete(d.byID, r)
		}
		delete(d.byHash, e.hash)
	}
	d.mu.Unlock()
	d.aliasDrops.Add(1)
}

// register binds id (which now owns a physical frame with this
// content) into the table — as a new entry's canonical, or as one
// more ref of an existing entry for the same content.
func (d *dedupTable) register(id BlockID, h backend.Hash, crc, size uint32) {
	d.mu.Lock()
	d.forgetLocked(id)
	if e, ok := d.byHash[h]; ok {
		e.refs[id] = struct{}{}
		d.byID[id] = e
	} else {
		e := &dentry{hash: h, canonical: id, crc: crc, size: size, refs: map[BlockID]struct{}{id: {}}}
		d.byHash[h] = e
		d.byID[id] = e
	}
	d.mu.Unlock()
}

// forgetFile unbinds every ID of one file — including aliases, which
// have no stripe-index entry for InvalidateFile to find.
func (d *dedupTable) forgetFile(key string) {
	d.mu.Lock()
	for id := range d.byID {
		if id.FH == key {
			d.forgetLocked(id)
		}
	}
	d.mu.Unlock()
}

// clear drops every mapping (cache flush).
func (d *dedupTable) clear() {
	d.mu.Lock()
	d.byHash = make(map[backend.Hash]*dentry)
	d.byID = make(map[BlockID]*dentry)
	d.mu.Unlock()
}

// DedupEnabled reports whether content-addressed dedup is on.
func (c *Cache) DedupEnabled() bool { return c.dedup != nil }

// frameMeta reads a frame's tag without touching data or LRU state.
func (c *Cache) frameMeta(id BlockID) (crc uint32, dirty, ok bool) {
	s := c.stripeFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, found := s.index[id]
	if !found {
		return 0, false, false
	}
	fr := &c.frames[idx]
	if !fr.valid || fr.id != id {
		return 0, false, false
	}
	return fr.crc, fr.dirty, true
}

// PutDedup inserts a clean block through the dedup table: when a live
// frame with identical content exists, the (fh, block) identity is
// registered as an alias of it and no frame is consumed; otherwise
// the block is inserted physically and becomes the content's
// canonical frame. Dirty data bypasses dedup entirely (its content
// is about to diverge), as does a disabled table.
func (c *Cache) PutDedup(fh nfs3.FH, block uint64, data []byte, dirty bool) error {
	if c.dedup == nil || dirty {
		return c.Put(fh, block, data, dirty)
	}
	id := BlockID{FH: fh.Key(), Block: block}
	h := backend.HashOf(data)
	d := c.dedup
	d.mu.Lock()
	e := d.byHash[h]
	var canonical BlockID
	var ecrc uint32
	if e != nil {
		canonical, ecrc = e.canonical, e.crc
	}
	d.mu.Unlock()
	if e != nil && canonical != id {
		// Same content already cached: verify the canonical frame is
		// still live and clean, then register the alias.
		if crc, frDirty, live := c.frameMeta(canonical); live && !frDirty && crc == ecrc {
			d.mu.Lock()
			if cur := d.byHash[h]; cur == e && e.canonical == canonical {
				d.forgetLocked(id)
				e.refs[id] = struct{}{}
				d.byID[id] = e
				d.mu.Unlock()
				// The ID's own frame may hold an absorbed write (dirty
				// data is never deduplicated): an alias would outlive
				// it and serve the old content. A dirty Put unbinds as
				// its frame turns dirty, so checking after registering
				// leaves no order of the two in which the alias stays.
				if _, frDirty, live := c.frameMeta(id); live && frDirty {
					d.forget(id)
				}
				return nil
			}
			d.mu.Unlock()
			// Entry changed under us: fall through to a physical insert.
		} else {
			d.dropEntry(e)
		}
	}
	if err := c.Put(fh, block, data, false); err != nil {
		return err
	}
	sum := crc32c(data)
	if crc, frDirty, live := c.frameMeta(id); !live || frDirty || crc != sum {
		return nil // the clean insert stood aside for a dirty frame
	}
	d.register(id, h, sum, uint32(len(data)))
	return nil
}

// getAlias resolves a physical miss through the dedup table: if id is
// an alias, the canonical frame's bytes are returned (CRC-verified
// against the entry, so a replaced canonical is detected and the
// stale mapping dropped instead of served).
func (c *Cache) getAlias(id BlockID, dst []byte) ([]byte, bool) {
	d := c.dedup
	d.mu.Lock()
	e := d.byID[id]
	if e == nil {
		d.mu.Unlock()
		return nil, false
	}
	canonical, crc := e.canonical, e.crc
	d.mu.Unlock()
	if canonical == id {
		// The canonical itself missed physically: the frame is gone.
		d.dropEntry(e)
		return nil, false
	}
	data, ok := c.getPhysical(canonical, dst)
	if !ok || crc32c(data) != crc {
		d.dropEntry(e)
		return nil, false
	}
	d.hits.Add(1)
	return data, true
}

// GetByHash serves a read whose content hash is already known (a
// backend hash hint): if any live frame holds that content, the
// caller's (fh, block) is registered as an alias and the bytes are
// returned without any backend transfer.
func (c *Cache) GetByHash(fh nfs3.FH, block uint64, h backend.Hash, dst []byte) ([]byte, bool) {
	if c.dedup == nil {
		return nil, false
	}
	d := c.dedup
	d.mu.Lock()
	e := d.byHash[h]
	var canonical BlockID
	var crc uint32
	if e != nil {
		canonical, crc = e.canonical, e.crc
	}
	d.mu.Unlock()
	if e == nil {
		return nil, false
	}
	data, ok := c.getPhysical(canonical, dst)
	if !ok || crc32c(data) != crc {
		d.dropEntry(e)
		return nil, false
	}
	id := BlockID{FH: fh.Key(), Block: block}
	if id != canonical {
		d.mu.Lock()
		if cur := d.byHash[h]; cur == e && e.canonical == canonical {
			d.forgetLocked(id)
			e.refs[id] = struct{}{}
			d.byID[id] = e
		}
		d.mu.Unlock()
	}
	d.hits.Add(1)
	// A hash-hint hit is a lookup the stripe counters never saw: report
	// it under the requesting identity. The probe's failure paths stay
	// silent — the caller's preceding Get already reported the miss.
	c.tapLookup(fh, block, LookupAliasHit)
	return data, true
}

// DedupStats summarizes the dedup table.
type DedupStats struct {
	// Entries is the number of distinct contents tracked.
	Entries int
	// Refs is the total number of (file, block) identities bound to
	// those contents; Refs - Entries aliases occupy no frame.
	Refs int
	// Hits counts reads served through an alias or hash-hint mapping.
	Hits uint64
	// AliasDrops counts stale mappings discarded lazily after the
	// canonical frame was evicted or replaced.
	AliasDrops uint64
}

// DedupStats returns a snapshot (zero value when dedup is off).
func (c *Cache) DedupStats() DedupStats {
	if c.dedup == nil {
		return DedupStats{}
	}
	d := c.dedup
	d.mu.Lock()
	st := DedupStats{Entries: len(d.byHash), Refs: len(d.byID)}
	d.mu.Unlock()
	st.Hits = d.hits.Load()
	st.AliasDrops = d.aliasDrops.Load()
	return st
}

// DedupRefCount reports how many identities share the content that
// (fh, block) is bound to — 0 when unbound (tests).
func (c *Cache) DedupRefCount(fh nfs3.FH, block uint64) int {
	if c.dedup == nil {
		return 0
	}
	d := c.dedup
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.byID[BlockID{FH: fh.Key(), Block: block}]
	if e == nil {
		return 0
	}
	return len(e.refs)
}
