// Package cache implements the GVFS proxy-managed disk cache of the
// paper's §3.2.1: a block cache operating at NFS-RPC granularity,
// structured like a set-associative hardware cache. The cache consists
// of file "banks" created on local disk on demand; each bank holds
// frames in which data blocks are stored, with tags kept in memory.
// Indexing hashes the requested NFS file handle and offset, and maps
// consecutive blocks of a file onto consecutive sets to exploit
// spatial locality. Banks, associativity, block size (up to the 32 KB
// NFS limit) and capacity are all configurable per proxy — the
// per-user/per-application tailoring that kernel cache implementations
// (CacheFS, AFS) cannot provide.
//
// The cache supports both write-through and write-back policies.
// Under write-back, dirty frames are retained locally and propagated
// either on eviction or when the middleware triggers WriteBack/Flush —
// the session-based consistency model of the paper.
//
// # Concurrency model
//
// Sets are independent by construction, so the cache is lock-striped:
// sets are spread round-robin over 64 stripes, each with
// its own mutex, index shard, LRU clock and statistics shard. Frame
// data I/O (bank-file ReadAt/WriteAt and eviction write-back RPCs)
// happens *outside* the stripe lock under a per-frame pin protocol:
// readers take a shared pin, writers and evictors an exclusive pin, so
// traffic on other frames — even in the same stripe — proceeds while a
// frame's disk or WAN I/O is in flight. Bank file handles are opened
// once and published through atomic pointers; *os.File ReadAt/WriteAt
// are safe for concurrent use (pread/pwrite).
package cache

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
)

// Policy selects the write policy.
type Policy int

// Write policies.
const (
	// WriteThrough forwards every write to the server immediately;
	// the cache only absorbs reads.
	WriteThrough Policy = iota
	// WriteBack retains dirty blocks locally and propagates them on
	// eviction or explicit flush, hiding WAN write latency.
	WriteBack
)

func (p Policy) String() string {
	if p == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// Config sizes and parameterizes a Cache. The zero value is completed
// by DefaultConfig-like fallbacks in New.
type Config struct {
	// Dir is the directory holding bank files. Required.
	Dir string
	// Banks is the number of bank files (paper default: 512).
	Banks int
	// SetsPerBank is the number of sets in each bank.
	SetsPerBank int
	// Assoc is the set associativity (paper default: 16-way).
	Assoc int
	// BlockSize is the frame size in bytes (up to 32 KB).
	BlockSize int
	// Policy selects write-through or write-back.
	Policy Policy
	// ReadOnly marks the cache shareable for read-only data; writes
	// bypass it entirely (the paper's shared read-only cache mode).
	ReadOnly bool
	// Journal enables the dirty-block intent journal: dirty Puts are
	// appended (data + checksum) to an append-only log in Dir and made
	// durable before they are acknowledged, so a crashed proxy can
	// rebuild and replay its dirty set (see RecoverJournal). Only
	// meaningful under WriteBack on a non-ReadOnly cache.
	Journal bool
	// JournalSync selects journal durability on the write path
	// (default SyncBatch: group-commit fsync).
	JournalSync SyncMode
	// Dedup enables the content-addressed dedup table: clean blocks
	// inserted via PutDedup whose content is already cached become
	// aliases of the existing frame instead of consuming capacity,
	// so N cloned VMs of one golden image share frames (see
	// dedup.go). Off by default — hashing costs SHA-256 per insert.
	Dedup bool
	// Logger receives cache lifecycle events (journal recovery, cold
	// starts, checksum failures). Nil is safe: events are dropped.
	Logger *obs.Logger
	// Tap, when set, observes the access stream (lookups with their
	// outcome, insertions, evictions) for the cache-analytics
	// subsystem. See AccessTap for the cost contract.
	Tap AccessTap

	// flushConcurrency bounds the in-flight write-backs during
	// WriteBackAll/Flush/WriteBackFile (default 8). Dirty data is
	// propagated in a pipeline rather than one blocking RPC at a
	// time, as a kernel client's asynchronous flusher would.
	flushConcurrency int
	// stripes is the number of lock stripes the sets are spread over
	// (default 64, capped at the total set count). 1 gives a single
	// global lock. Only the package's tests set these two.
	stripes int
}

// DefaultConfig mirrors the experimental setup of the paper: 512 banks,
// 16-way associative, 8 KB blocks, 8 GB capacity, scaled down by
// default so unit tests stay light. Callers override as needed.
func DefaultConfig(dir string) Config {
	return Config{
		Dir:         dir,
		Banks:       512,
		SetsPerBank: 128,
		Assoc:       16,
		BlockSize:   8192,
		Policy:      WriteBack,
	}
}

func (c *Config) fill() error {
	if c.Dir == "" {
		return fmt.Errorf("cache: Config.Dir is required")
	}
	if c.Banks <= 0 {
		c.Banks = 512
	}
	if c.SetsPerBank <= 0 {
		c.SetsPerBank = 128
	}
	if c.Assoc <= 0 {
		c.Assoc = 16
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 8192
	}
	if c.BlockSize > nfs3.MaxTransfer {
		return fmt.Errorf("cache: block size %d exceeds the 32 KB NFS limit", c.BlockSize)
	}
	if c.flushConcurrency <= 0 {
		c.flushConcurrency = 8
	}
	if c.stripes <= 0 {
		c.stripes = 64
	}
	c.stripes = min(c.stripes, c.Banks*c.SetsPerBank)
	return nil
}

// Capacity returns the configured data capacity in bytes.
func (c Config) Capacity() uint64 {
	return uint64(c.Banks) * uint64(c.SetsPerBank) * uint64(c.Assoc) * uint64(c.BlockSize)
}

// BlockID names one cached block: a file handle plus block index.
type BlockID struct {
	FH    string // nfs3.FH.Key()
	Block uint64 // block number = offset / BlockSize
}

// frame is one cache frame's in-memory tag. All fields are protected
// by the owning stripe's mutex; frame *data* in the bank file is
// protected by the pin protocol (pins/excl).
type frame struct {
	id    BlockID
	valid bool
	dirty bool
	size  uint32 // valid bytes in the frame (tail blocks may be short)
	crc   uint32 // CRC32C of the frame's bank bytes, set on every fill
	lru   uint64
	// pins counts shared (reader/flusher) pins; excl marks an
	// exclusive (writer/evictor) pin. Frame I/O — bank-file reads and
	// writes, and write-back RPCs — happens only while pinned, with
	// the stripe lock released. Holding a pin across the write-back
	// RPC totally orders propagations of a block: an eviction's
	// exclusive pin cannot overlap a flush's shared pin, so a stale
	// in-flight WRITE can never land after a newer one.
	pins int32
	excl bool
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Insertions uint64
	Evictions  uint64
	// WriteBacks counts dirty frames propagated to the server,
	// whether by eviction or flush.
	WriteBacks uint64
	// ChecksumErrors counts frame reads whose bank bytes failed CRC32C
	// verification (corrupt frames are invalidated or, when dirty and
	// journaled, rescued from the journal).
	ChecksumErrors uint64
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Insertions += o.Insertions
	s.Evictions += o.Evictions
	s.WriteBacks += o.WriteBacks
	s.ChecksumErrors += o.ChecksumErrors
}

// WriteBackFunc propagates dirty data to the next level: one block on
// eviction, a run of consecutive blocks (at most nfs3.MaxTransfer
// bytes, every block but the last full) on flush. The data slice must
// not be retained.
type WriteBackFunc func(fh nfs3.FH, offset uint64, data []byte) error

// stripe is one lock stripe: a group of sets sharing a mutex, an index
// shard, an LRU clock and a statistics shard.
type stripe struct {
	mu    sync.Mutex
	cond  *sync.Cond // signals pin releases and fill completions
	index map[BlockID]int
	clock uint64
	stats Stats
}

// Cache is a proxy-managed disk cache. All methods are safe for
// concurrent use; operations on distinct stripes never contend, and
// frame data I/O proceeds outside the stripe locks.
type Cache struct {
	cfg     Config
	frames  []frame
	stripes []stripe

	banksMu sync.Mutex // serializes bank-file opens and Close
	banks   []atomic.Pointer[os.File]
	closed  atomic.Bool

	// journal is the dirty-block intent log (nil unless Config.Journal
	// under WriteBack); log is the nil-safe event logger.
	journal *journal
	log     *obs.Logger

	// dedup is the content-addressed alias table (nil unless
	// Config.Dedup); see dedup.go for the invariants.
	dedup *dedupTable

	wbMu sync.RWMutex
	wb   WriteBackFunc

	// whole maps each file whose WriteBackWhole send is in flight to a
	// channel closed when it returns; wholeN counts them.
	wholeMu sync.Mutex
	whole   map[string]chan struct{}
	wholeN  atomic.Int32
}

// New creates (or reuses) the bank directory and returns an empty
// cache. Bank files are created lazily on first touch.
func New(cfg Config) (*Cache, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0755); err != nil {
		return nil, err
	}
	n := cfg.Banks * cfg.SetsPerBank * cfg.Assoc
	c := &Cache{
		cfg:     cfg,
		frames:  make([]frame, n),
		stripes: make([]stripe, cfg.stripes),
		banks:   make([]atomic.Pointer[os.File], cfg.Banks),
		whole:   make(map[string]chan struct{}),
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.index = make(map[BlockID]int)
		s.cond = sync.NewCond(&s.mu)
	}
	c.log = cfg.Logger
	if cfg.Journal && cfg.Policy == WriteBack && !cfg.ReadOnly {
		j, err := openJournal(cfg.Dir, cfg.JournalSync)
		if err != nil {
			return nil, fmt.Errorf("cache: open journal: %w", err)
		}
		c.journal = j
	}
	if cfg.Dedup {
		c.dedup = newDedupTable()
	}
	return c, nil
}

// Close releases bank file descriptors. Dirty data is NOT flushed;
// call Flush first if the session requires it.
func (c *Cache) Close() error {
	c.banksMu.Lock()
	defer c.banksMu.Unlock()
	c.closed.Store(true)
	var first error
	if c.journal != nil {
		// Closing does NOT checkpoint: surviving intent must stay on
		// disk so the next start over this directory can recover.
		if err := c.journal.Close(); err != nil {
			first = err
		}
	}
	for i := range c.banks {
		if f := c.banks[i].Swap(nil); f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetWriteBackFunc installs the function used to propagate dirty
// frames on eviction and flush. Required before any write-back
// insertion can evict safely.
func (c *Cache) SetWriteBackFunc(fn WriteBackFunc) {
	c.wbMu.Lock()
	c.wb = fn
	c.wbMu.Unlock()
}

func (c *Cache) writeBackFn() WriteBackFunc {
	c.wbMu.RLock()
	defer c.wbMu.RUnlock()
	return c.wb
}

// Stats returns a snapshot of the counters, merged across the
// per-stripe shards.
func (c *Cache) Stats() Stats {
	var out Stats
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		out.add(s.stats)
		s.mu.Unlock()
	}
	return out
}

// BlockSize returns the frame size in bytes.
func (c *Cache) BlockSize() int { return c.cfg.BlockSize }

// setOf computes the set index for a block, mapping consecutive blocks
// of the same file to consecutive sets (paper §3.2.1).
func (c *Cache) setOf(id BlockID) int {
	h := fnv.New64a()
	h.Write([]byte(id.FH))
	base := h.Sum64()
	totalSets := uint64(c.cfg.Banks * c.cfg.SetsPerBank)
	return int((base + id.Block) % totalSets)
}

// stripeOfSet maps a set to its lock stripe. Consecutive sets land on
// different stripes, so a file's sequential blocks spread across locks.
func (c *Cache) stripeOfSet(set int) *stripe {
	return &c.stripes[set%len(c.stripes)]
}

func (c *Cache) stripeFor(id BlockID) *stripe {
	return c.stripeOfSet(c.setOf(id))
}

// stripeOfFrame maps a frame index to its owning stripe.
func (c *Cache) stripeOfFrame(idx int) *stripe {
	return c.stripeOfSet(idx / c.cfg.Assoc)
}

// frameRange returns the frame index range [lo, hi) of a set.
func (c *Cache) frameRange(set int) (lo, hi int) {
	lo = set * c.cfg.Assoc
	return lo, lo + c.cfg.Assoc
}

// bankOf returns which bank file a frame lives in and its byte offset.
func (c *Cache) bankOf(frameIdx int) (bank int, off int64) {
	framesPerBank := c.cfg.SetsPerBank * c.cfg.Assoc
	bank = frameIdx / framesPerBank
	off = int64(frameIdx%framesPerBank) * int64(c.cfg.BlockSize)
	return bank, off
}

// bankFile returns the (lazily opened) bank file. The fast path is a
// single atomic load; opens are serialized by banksMu.
func (c *Cache) bankFile(bank int) (*os.File, error) {
	if f := c.banks[bank].Load(); f != nil {
		return f, nil
	}
	c.banksMu.Lock()
	defer c.banksMu.Unlock()
	if f := c.banks[bank].Load(); f != nil {
		return f, nil
	}
	if c.closed.Load() {
		return nil, fmt.Errorf("cache: closed")
	}
	name := filepath.Join(c.cfg.Dir, fmt.Sprintf("bank%04d", bank))
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0644)
	if err != nil {
		return nil, err
	}
	c.banks[bank].Store(f)
	return f, nil
}

func (c *Cache) readFrame(idx int, size uint32) ([]byte, error) {
	return c.readFrameInto(idx, size, nil)
}

// readFrameInto reads a frame's bank bytes into dst when it has the
// capacity, allocating only as a fallback.
func (c *Cache) readFrameInto(idx int, size uint32, dst []byte) ([]byte, error) {
	bank, off := c.bankOf(idx)
	f, err := c.bankFile(bank)
	if err != nil {
		return nil, err
	}
	var buf []byte
	if cap(dst) >= int(size) {
		buf = dst[:size]
	} else {
		buf = make([]byte, size)
	}
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (c *Cache) writeFrame(idx int, data []byte) error {
	bank, off := c.bankOf(idx)
	f, err := c.bankFile(bank)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, off)
	return err
}

// --- frame pin protocol (callers hold the stripe lock) ---

// pinShared takes a reader pin, waiting out any exclusive holder.
// After it returns the caller must revalidate the frame's identity:
// the frame may have been replaced while waiting.
func (s *stripe) pinShared(fr *frame) {
	for fr.excl {
		s.cond.Wait()
	}
	fr.pins++
}

func (s *stripe) unpinShared(fr *frame) {
	fr.pins--
	if fr.pins == 0 {
		s.cond.Broadcast()
	}
}

// pinExcl takes the exclusive pin, waiting for all pins to drain. As
// with pinShared, the caller revalidates after any potential wait.
func (s *stripe) pinExcl(fr *frame) {
	for fr.excl || fr.pins > 0 {
		s.cond.Wait()
	}
	fr.excl = true
}

func (s *stripe) unpinExcl(fr *frame) {
	fr.excl = false
	s.cond.Broadcast()
}

// Get returns the cached block if present. The boolean reports a hit.
// The frame is pinned shared and read outside the stripe lock, so
// concurrent traffic on other frames proceeds during the bank I/O.
func (c *Cache) Get(fh nfs3.FH, block uint64) ([]byte, bool) {
	return c.getInto(fh, block, nil)
}

// GetInto is Get with caller-supplied storage: when dst has capacity
// for the frame, the block is read into it and the filled prefix
// returned, so a hit costs no allocation (the proxy passes a pooled
// buffer). The rare journal-rescue path still returns its own slice,
// so callers must use the returned slice, not assume it is dst.
func (c *Cache) GetInto(fh nfs3.FH, block uint64, dst []byte) ([]byte, bool) {
	return c.getInto(fh, block, dst)
}

func (c *Cache) getInto(fh nfs3.FH, block uint64, dst []byte) ([]byte, bool) {
	id := BlockID{FH: fh.Key(), Block: block}
	data, ok := c.getPhysical(id, dst)
	if ok {
		c.tapLookup(fh, block, LookupHit)
		return data, ok
	}
	if c.dedup != nil {
		// Physical miss: the ID may be an alias of a deduplicated frame.
		if data, ok = c.getAlias(id, dst); ok {
			c.tapLookup(fh, block, LookupAliasHit)
			return data, ok
		}
	}
	c.tapLookup(fh, block, LookupMiss)
	return data, ok
}

// getPhysical looks the block up in the stripe indexes only, without
// consulting the dedup alias table.
func (c *Cache) getPhysical(id BlockID, dst []byte) ([]byte, bool) {
	s := c.stripeFor(id)
	s.mu.Lock()
	idx, ok := s.index[id]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	fr := &c.frames[idx]
	s.pinShared(fr)
	if !fr.valid || fr.id != id {
		// Replaced (or a failed fill) while we waited for the pin.
		s.unpinShared(fr)
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	size, sum, wasDirty := fr.size, fr.crc, fr.dirty
	s.clock++
	fr.lru = s.clock
	s.mu.Unlock()
	data, err := c.readFrameInto(idx, size, dst)
	badsum := err == nil && crc32c(data) != sum
	s.mu.Lock()
	s.unpinShared(fr)
	if badsum {
		s.stats.ChecksumErrors++
		if wasDirty && c.journal != nil {
			// The bank copy is torn but the journal holds the
			// acknowledged dirty bytes: serve those. The frame is
			// repaired (or dropped) when the block is next written
			// back — see writeBackFrame/flushBlock.
			if jd, ok := c.journal.Latest(id); ok {
				s.stats.Hits++
				s.mu.Unlock()
				return jd, true
			}
		}
		// Clean (or unjournaled) frame: invalidate it so the caller
		// re-fetches from the server instead of serving corruption.
		err = fmt.Errorf("cache: frame checksum mismatch")
	}
	if err != nil {
		// Bank I/O failure: treat as miss and drop the frame.
		if fr.valid && fr.id == id {
			delete(s.index, id)
			fr.valid = false
		}
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.stats.Hits++
	s.mu.Unlock()
	return data, true
}

// Peek reports whether the block is cached (and dirty) without
// touching LRU state or counters.
func (c *Cache) Peek(fh nfs3.FH, block uint64) (cached, dirty bool) {
	id := BlockID{FH: fh.Key(), Block: block}
	s := c.stripeFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.index[id]
	if !ok {
		return false, false
	}
	fr := &c.frames[idx]
	if !fr.valid || fr.id != id {
		return false, false
	}
	return true, fr.dirty
}

// Put inserts or updates a block. dirty marks the frame for later
// write-back (callers must only set it under the WriteBack policy).
// A clean Put never replaces a dirty frame: it returns nil and the
// frame keeps its bytes (session data wins over a copy of upstream's).
// If inserting requires evicting a dirty victim, the victim is
// propagated through the WriteBackFunc first (with the stripe lock
// released during the RPC); its error aborts the insertion.
//
// When the journal is enabled, a dirty Put's intent is appended and
// made durable BEFORE the bank write, while the frame is exclusively
// pinned — the pin orders journal appends of a block identically to
// its bank writes, so "latest journal record" and "current frame
// content" can never disagree about which write is newest.
func (c *Cache) Put(fh nfs3.FH, block uint64, data []byte, dirty bool) error {
	mode := putClean
	if dirty {
		mode = putDirty
	}
	return c.put(fh, block, data, mode, true)
}

// Overwrite replaces a block's bytes with what upstream now holds (a
// write-through has just put them there). A frame still dirty from an
// earlier absorbed write takes the bytes and stays dirty, journaled like
// any dirty Put; every other block becomes a clean one. Like Put's rule
// it is decided under the frame's pin, not by a Peek before the call.
func (c *Cache) Overwrite(fh nfs3.FH, block uint64, data []byte) error {
	return c.put(fh, block, data, putKeep, true)
}

// putMode is what an insert does about the dirty bit.
type putMode uint8

const (
	putClean putMode = iota // stands aside for a dirty frame
	putDirty
	putKeep // replaces the bytes; dirty exactly if the frame was
)

// put is Put with journaling controllable: recovery re-inserts
// journaled data with journal=false so replayed blocks are not
// re-appended to the log they came from.
func (c *Cache) put(fh nfs3.FH, block uint64, data []byte, mode putMode, journal bool) error {
	if len(data) > c.cfg.BlockSize {
		return fmt.Errorf("cache: block of %d bytes exceeds frame size %d", len(data), c.cfg.BlockSize)
	}
	if c.cfg.ReadOnly && mode == putDirty {
		return fmt.Errorf("cache: dirty insertion into read-only cache")
	}
	journal = journal && c.journal != nil // and only a dirty result is journaled
	sum := crc32c(data)
	id := BlockID{FH: fh.Key(), Block: block}
	if c.dedup != nil {
		// Any insert changes (or re-establishes) this ID's content, so
		// its old dedup binding is stale. PutDedup re-registers after
		// the physical insert; plain and dirty Puts stay unbound.
		// Taken before the stripe lock: dedup.mu is a leaf.
		c.dedup.forget(id)
	}
	s := c.stripeFor(id)
	s.mu.Lock()
	for {
		// Update in place on re-insertion.
		if idx, ok := s.index[id]; ok {
			fr := &c.frames[idx]
			s.pinExcl(fr)
			if !fr.valid || fr.id != id {
				// Replaced while waiting; re-evaluate from the index.
				s.unpinExcl(fr)
				continue
			}
			if fr.dirty && mode == putClean {
				// A clean insert is a copy of what upstream held when it
				// was read; the dirty frame is an acknowledged write
				// upstream has not seen. Decided under the pin, so a
				// READ reply that lands after the WRITE was absorbed
				// cannot replace it, whatever the two calls' order.
				s.unpinExcl(fr)
				s.mu.Unlock()
				return nil
			}
			dirty := mode == putDirty || fr.dirty
			journal := journal && dirty
			if journal {
				if err := c.journalAppend(s, id, data); err != nil {
					// Nothing touched the frame yet: keep the cached
					// copy and fail the write unacknowledged.
					s.unpinExcl(fr)
					s.mu.Unlock()
					return err
				}
				maybeCrash(CrashPostJournalPreBank)
			}
			err := c.dirtyAwareFrameWrite(s, idx, data, journal)
			if err != nil {
				// Frame content is now unknown: drop it. A journaled
				// intent stays live and is replayed at the next start.
				delete(s.index, id)
				fr.valid = false
				s.unpinExcl(fr)
				s.mu.Unlock()
				return err
			}
			fr.size = uint32(len(data))
			fr.crc = sum
			fr.dirty = dirty
			c.unbindDirty(id, dirty)
			s.clock++
			fr.lru = s.clock
			s.unpinExcl(fr)
			s.mu.Unlock()
			if c.cfg.Tap != nil {
				c.cfg.Tap.CacheInsert(id, dirty)
			}
			return nil
		}

		// Insert: pick an unpinned victim in the set.
		set := c.setOf(id)
		lo, hi := c.frameRange(set)
		victim := -1
		var oldest uint64 = ^uint64(0)
		for i := lo; i < hi; i++ {
			fr := &c.frames[i]
			if fr.excl || fr.pins > 0 {
				continue
			}
			if !fr.valid {
				victim = i
				break
			}
			if fr.lru < oldest {
				oldest = fr.lru
				victim = i
			}
		}
		if victim < 0 {
			// Every frame of the set is pinned; wait for a release and
			// re-evaluate (our block may even have been inserted by a
			// racing Put).
			s.cond.Wait()
			continue
		}
		fr := &c.frames[victim]
		fr.excl = true // immediate: the victim is unpinned
		dirty := mode == putDirty
		journal := journal && dirty

		if fr.valid && fr.dirty {
			if err := c.writeBackFrame(s, victim); err != nil {
				s.unpinExcl(fr)
				s.mu.Unlock()
				return err
			}
			// The lock may have been released during the write-back; a
			// racing Put may have inserted our block meanwhile.
			if _, ok := s.index[id]; ok {
				s.unpinExcl(fr)
				continue
			}
		}
		if fr.valid {
			delete(s.index, fr.id)
			s.stats.Evictions++
			if c.cfg.Tap != nil {
				// Counter-only by contract: safe under the stripe lock.
				c.cfg.Tap.CacheEvict(fr.id)
			}
		}
		// Claim the frame and publish the mapping before the data
		// write: readers that find it wait on the exclusive pin and
		// revalidate, so they never observe a half-filled frame.
		fr.id = id
		fr.valid = false
		fr.dirty = false
		s.index[id] = victim
		if journal {
			if err := c.journalAppend(s, id, data); err != nil {
				delete(s.index, id)
				s.unpinExcl(fr)
				s.mu.Unlock()
				return err
			}
			maybeCrash(CrashPostJournalPreBank)
		}
		if err := c.dirtyAwareFrameWrite(s, victim, data, journal); err != nil {
			delete(s.index, id)
			s.unpinExcl(fr)
			s.mu.Unlock()
			return err
		}
		s.clock++
		fr.valid = true
		fr.size = uint32(len(data))
		fr.crc = sum
		fr.dirty = dirty
		fr.lru = s.clock
		s.stats.Insertions++
		c.unbindDirty(id, dirty)
		s.unpinExcl(fr)
		s.mu.Unlock()
		if c.cfg.Tap != nil {
			c.cfg.Tap.CacheInsert(id, dirty)
		}
		return nil
	}
}

// unbindDirty drops the dedup binding of a block whose frame has just
// turned dirty, with the stripe lock held (dedup.mu is a leaf under it).
// put unbinds every insert on entry; this second time orders the unbind
// after the dirty bit, which is what PutDedup's alias path checks for.
func (c *Cache) unbindDirty(id BlockID, dirty bool) {
	if dirty && c.dedup != nil {
		c.dedup.forget(id)
	}
}

// journalAppend journals one dirty intent while the caller holds the
// frame's exclusive pin, releasing the stripe lock around the log I/O
// exactly like frameWrite. The pin serializes the append against the
// frame's bank write; the group-commit fsync still amortizes across
// blocks on other frames.
func (c *Cache) journalAppend(s *stripe, id BlockID, data []byte) error {
	s.mu.Unlock()
	err := c.journal.Append(id, data)
	s.mu.Lock()
	return err
}

// dirtyAwareFrameWrite is frameWrite plus the mid-bank-write
// crashpoint: when armed (and the write is a journaled dirty one), it
// writes only half the block and dies, leaving a torn frame for
// recovery to detect by checksum.
func (c *Cache) dirtyAwareFrameWrite(s *stripe, idx int, data []byte, journaled bool) error {
	if journaled && crashArmed(CrashMidBankWrite) && len(data) > 1 {
		c.writeFrame(idx, data[:len(data)/2])
		crashNow()
	}
	return c.frameWrite(s, idx, data)
}

// frameWrite writes data into a frame the caller holds exclusively
// pinned, releasing the stripe lock around the bank I/O. It returns
// with the lock held.
func (c *Cache) frameWrite(s *stripe, idx int, data []byte) error {
	s.mu.Unlock()
	err := c.writeFrame(idx, data)
	s.mu.Lock()
	return err
}

// writeBackFrame propagates one dirty frame the caller holds
// exclusively pinned, releasing the stripe lock around the bank read
// and the write-back RPC. On success the frame is marked clean. It
// returns with the lock held.
func (c *Cache) writeBackFrame(s *stripe, idx int) error {
	fr := &c.frames[idx]
	wb := c.writeBackFn()
	if wb == nil {
		return fmt.Errorf("cache: dirty eviction with no write-back function installed")
	}
	id, size, sum := fr.id, fr.size, fr.crc
	s.mu.Unlock()
	data, err := c.readFrame(idx, size)
	badsum := false
	if err == nil && crc32c(data) != sum {
		// Torn bank copy: propagate the journal's authoritative bytes
		// instead of corruption (or fail and stay dirty).
		badsum = true
		data, err = c.journalRescue(id)
	}
	if err == nil {
		c.awaitWhole(id.FH)
		err = wb(nfs3.FH(id.FH), id.Block*uint64(c.cfg.BlockSize), data)
	}
	if err == nil && c.journal != nil {
		// A failed commit only costs an idempotent re-send at the next
		// recovery; the write-back itself succeeded.
		c.journal.Commit(id)
	}
	s.mu.Lock()
	if badsum {
		s.stats.ChecksumErrors++
	}
	if err != nil {
		return err
	}
	// The exclusive pin kept writers away, so the propagated bytes are
	// the frame's current content.
	fr.dirty = false
	s.stats.WriteBacks++
	return nil
}

// journalRescue returns the journal's copy of a dirty block whose bank
// bytes failed their checksum.
func (c *Cache) journalRescue(id BlockID) ([]byte, error) {
	if c.journal != nil {
		if data, ok := c.journal.Latest(id); ok {
			return data, nil
		}
	}
	return nil, fmt.Errorf("cache: dirty frame (fh %x block %d) failed checksum and has no journaled copy",
		id.FH, id.Block)
}

// MarkClean clears the dirty bit of a block if cached (used after the
// proxy has independently propagated it).
func (c *Cache) MarkClean(fh nfs3.FH, block uint64) {
	id := BlockID{FH: fh.Key(), Block: block}
	s := c.stripeFor(id)
	s.mu.Lock()
	cleaned := false
	if idx, ok := s.index[id]; ok {
		if fr := &c.frames[idx]; fr.valid && fr.id == id && fr.dirty {
			fr.dirty = false
			cleaned = true
		}
	}
	s.mu.Unlock()
	if cleaned && c.journal != nil {
		c.journal.Commit(id)
	}
}

// DirtyCount returns the number of dirty frames.
func (c *Cache) DirtyCount() int {
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for _, idx := range s.index {
			if c.frames[idx].valid && c.frames[idx].dirty {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// dirtyIDs collects the dirty blocks of fileKey ("" = all files), one
// consistent snapshot per stripe.
func (c *Cache) dirtyIDs(fileKey string) []BlockID {
	var out []BlockID
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for id, idx := range s.index {
			fr := &c.frames[idx]
			if !fr.valid || !fr.dirty || fr.id != id {
				continue
			}
			if fileKey != "" && id.FH != fileKey {
				continue
			}
			out = append(out, id)
		}
		s.mu.Unlock()
	}
	return out
}

// flushBlock propagates one dirty block, holding a shared pin on the
// frame for the read AND the write-back RPC. The pin excludes writers
// and evictors for the whole round trip, so the propagated bytes are
// the frame's content at completion time and the dirty bit can be
// cleared unconditionally on success; it also totally orders
// write-backs of a block (a racing eviction's exclusive pin waits),
// so a stale WRITE never lands after a newer one. A block already
// clean or gone (settled by a racing eviction or flush) is a no-op.
func (c *Cache) flushBlock(id BlockID, wb WriteBackFunc) error {
	s := c.stripeFor(id)
	s.mu.Lock()
	idx, found := s.index[id]
	if !found {
		s.mu.Unlock()
		return nil
	}
	fr := &c.frames[idx]
	s.pinShared(fr)
	if !fr.valid || fr.id != id || !fr.dirty {
		s.unpinShared(fr)
		s.mu.Unlock()
		return nil
	}
	size, sum := fr.size, fr.crc
	s.mu.Unlock()
	data, err := c.readFrame(idx, size)
	badsum := false
	if err == nil && crc32c(data) != sum {
		badsum = true
		data, err = c.journalRescue(id)
	}
	if err == nil {
		c.awaitWhole(id.FH)
		err = wb(nfs3.FH(id.FH), id.Block*uint64(c.cfg.BlockSize), data)
	}
	if err == nil && c.journal != nil {
		c.journal.Commit(id)
	}
	s.mu.Lock()
	if badsum {
		s.stats.ChecksumErrors++
	}
	if err == nil {
		fr.dirty = false
		s.stats.WriteBacks++
	}
	s.unpinShared(fr)
	s.mu.Unlock()
	return err
}

// propagate pushes the dirty blocks through the WriteBackFunc, runs of
// consecutive blocks as one WRITE each (see coalesce.go), with bounded
// concurrency. Failed blocks stay dirty; the first error is returned
// after all in-flight propagations settle.
func (c *Cache) propagate(ids []BlockID) error {
	wb := c.writeBackFn()
	if wb == nil {
		if len(ids) == 0 {
			return nil
		}
		return fmt.Errorf("cache: flush with no write-back function installed")
	}
	runs := coalesceRuns(ids, c.cfg.BlockSize, nfs3.MaxTransfer)
	return flushEach(c.cfg.flushConcurrency, runs, func(r run) error { return c.flushRun(r, wb) })
}

// flushEach calls flush once for every item, from at most workers
// goroutines that each take the next item as they finish the last, and
// returns an error of the earliest failing worker (nil when none
// failed) once every call has returned. A goroutine per item would pay
// for a new stack, grown through the whole write-back call chain, on
// every block.
func flushEach[T any](workers int, items []T, flush func(T) error) error {
	if workers > len(items) {
		workers = len(items)
	}
	var next atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var first error
			for i := next.Add(1) - 1; i < int64(len(items)); i = next.Add(1) - 1 {
				if err := flush(items[i]); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WriteBackAll propagates every dirty frame through the WriteBackFunc,
// leaving the data cached but clean. This is the middleware's
// "write back" signal (SIGUSR1 on the proxy daemon). Propagation is
// pipelined with Config.flushConcurrency in-flight WRITEs; the dirty
// set is snapshotted stripe by stripe, not stop-the-world.
func (c *Cache) WriteBackAll() error {
	return c.propagate(c.dirtyIDs(""))
}

// Flush propagates all dirty frames and invalidates the entire cache —
// the middleware's "flush" signal (SIGUSR2 on the proxy daemon), used
// when a session ends and another client may access the data.
func (c *Cache) Flush() error {
	if err := c.WriteBackAll(); err != nil {
		return err
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for _, idx := range s.index {
			if fr := &c.frames[idx]; fr.valid && fr.dirty {
				// Re-dirtied during propagation: the caller must settle
				// the session before flushing.
				s.mu.Unlock()
				return fmt.Errorf("cache: frame dirtied during flush")
			}
		}
		for id, idx := range s.index {
			fr := &c.frames[idx]
			// Wait out in-flight I/O on the frame before resetting it.
			s.pinExcl(fr)
			if fr.id == id {
				c.resetFrame(fr)
			}
			s.unpinExcl(fr)
			delete(s.index, id)
		}
		s.mu.Unlock()
	}
	if c.dedup != nil {
		c.dedup.clear()
	}
	return nil
}

// resetFrame clears a frame's tag.
func (c *Cache) resetFrame(fr *frame) {
	fr.id = BlockID{}
	fr.valid = false
	fr.dirty = false
	fr.size = 0
	fr.crc = 0
	fr.lru = 0
}

// InvalidateFile drops all frames belonging to fh. Dirty frames are
// written back first.
func (c *Cache) InvalidateFile(fh nfs3.FH) error {
	key := fh.Key()
	if c.dedup != nil {
		// Aliases of this file occupy no frame, so the stripe scan
		// below cannot see them; unbind the whole file up front.
		c.dedup.forgetFile(key)
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		var ids []BlockID
		s.mu.Lock()
		for id := range s.index {
			if id.FH == key {
				ids = append(ids, id)
			}
		}
		s.mu.Unlock()
		for _, id := range ids {
			if err := c.invalidateID(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteBackFile propagates the dirty frames of one file, leaving them
// cached and clean. Used by the proxy before it must forward an
// operation that bypasses the cache for that file.
func (c *Cache) WriteBackFile(fh nfs3.FH) error {
	return c.propagate(c.dirtyIDs(fh.Key()))
}

// InvalidateBlock drops one frame if present. A dirty frame is written
// back first.
func (c *Cache) InvalidateBlock(fh nfs3.FH, block uint64) error {
	return c.invalidateID(BlockID{FH: fh.Key(), Block: block})
}

func (c *Cache) invalidateID(id BlockID) error {
	if c.dedup != nil {
		c.dedup.forget(id)
	}
	s := c.stripeFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		idx, ok := s.index[id]
		if !ok {
			return nil
		}
		fr := &c.frames[idx]
		s.pinExcl(fr)
		if !fr.valid || fr.id != id {
			s.unpinExcl(fr)
			continue // replaced while waiting; re-evaluate
		}
		if fr.dirty {
			if err := c.writeBackFrame(s, idx); err != nil {
				s.unpinExcl(fr)
				return err
			}
		}
		c.resetFrame(fr)
		delete(s.index, id)
		s.unpinExcl(fr)
		return nil
	}
}

// DirtyBlocks returns the IDs of all dirty frames (for inspection and
// tests).
func (c *Cache) DirtyBlocks() []BlockID {
	return c.dirtyIDs("")
}

// lockAll acquires every stripe lock in order, for the rare operations
// that need a globally consistent view (index persistence).
func (c *Cache) lockAll() {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
}

func (c *Cache) unlockAll() {
	for i := range c.stripes {
		c.stripes[i].mu.Unlock()
	}
}
