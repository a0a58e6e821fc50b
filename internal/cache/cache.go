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
// data I/O (copies in and out of the bank mappings, and eviction
// write-back RPCs) happens *outside* the stripe lock under a per-frame
// pin protocol: readers take a shared pin, writers and evictors an
// exclusive pin, so traffic on other frames — even in the same stripe —
// proceeds while a frame's WAN I/O is in flight. Each bank file is
// mapped shared the first time it is touched and the mapping published
// through an atomic pointer, so a hit or an insert costs a memory copy,
// not a system call. The pins also guard the mappings: Close unmaps once
// none is held.
package cache

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"

	"gvfs/internal/bufpool"
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
	Logger *slog.Logger
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

	banksMu sync.Mutex // serializes bank mappings and Close
	banks   []atomic.Pointer[[]byte]
	closed  atomic.Bool

	// journal is the dirty-block intent log (nil unless Config.Journal
	// under WriteBack); log is the event logger (a discard one when
	// Config.Logger is nil).
	journal *journal
	log     *slog.Logger

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
		banks:   make([]atomic.Pointer[[]byte], cfg.Banks),
		whole:   make(map[string]chan struct{}),
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.index = make(map[BlockID]int)
		s.cond = sync.NewCond(&s.mu)
	}
	c.log = obs.OrDiscard(cfg.Logger)
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

// Close unmaps the banks once no frame is pinned; every call after it
// that needs a bank fails. Dirty data is NOT flushed; call Flush first if
// the session requires it.
func (c *Cache) Close() error {
	c.closed.Store(true)
	c.awaitUnpinned()
	c.banksMu.Lock()
	defer c.banksMu.Unlock()
	var first error
	if c.journal != nil {
		// Closing does NOT checkpoint: surviving intent must stay on
		// disk so the next start over this directory can recover.
		if err := c.journal.Close(); err != nil {
			first = err
		}
	}
	for i := range c.banks {
		if m := c.banks[i].Swap(nil); m != nil {
			if err := syscall.Munmap(*m); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// awaitUnpinned waits until no frame is pinned. Every frame I/O happens
// under a pin (or, for the few readers that take none, the frame's stripe
// lock) and asks bank for the mapping after taking it; once closed is
// set, bank refuses. So a pin taken after this has passed its stripe
// never reaches a mapping, and when it returns the mappings are no one's.
func (c *Cache) awaitUnpinned() {
	sets := c.cfg.Banks * c.cfg.SetsPerBank
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for set := i; set < sets; set += len(c.stripes) {
			lo, hi := c.frameRange(set)
			for j := lo; j < hi; j++ {
				for fr := &c.frames[j]; fr.pins > 0 || fr.excl; {
					s.cond.Wait()
				}
			}
		}
		s.mu.Unlock()
	}
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

// errClosed is what a call that needs a bank gets after Close.
var errClosed = errors.New("cache: closed")

// bank returns bank b's mapping, mapping the bank file the first time.
// The fast path is two atomic loads; mappings are serialized by banksMu.
// The caller holds a pin on the frame it touches, or its stripe lock: see
// awaitUnpinned.
func (c *Cache) bank(b int) ([]byte, error) {
	if c.closed.Load() {
		return nil, errClosed
	}
	if m := c.banks[b].Load(); m != nil {
		return *m, nil
	}
	c.banksMu.Lock()
	defer c.banksMu.Unlock()
	if m := c.banks[b].Load(); m != nil {
		return *m, nil
	}
	if c.closed.Load() {
		return nil, errClosed
	}
	size := c.cfg.SetsPerBank * c.cfg.Assoc * c.cfg.BlockSize
	m, err := mapBank(filepath.Join(c.cfg.Dir, fmt.Sprintf("bank%04d", b)), size)
	if err != nil {
		return nil, err
	}
	c.banks[b].Store(&m)
	return m, nil
}

// mapBank opens a bank file, grows it to size — sparse: a frame never
// written takes no disk — and maps it shared, so stores reach the page
// cache as pwrites did. The mapping outlives the descriptor.
func mapBank(name string, size int) ([]byte, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() < int64(size) {
		if err := f.Truncate(int64(size)); err != nil {
			return nil, err
		}
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: name, Err: err}
	}
	return m, nil
}

// bankCopy copies between the heap and a bank or journal mapping. A
// fault in the mapping — the file cut short behind the cache's back, a
// full device under a page never written — is the I/O error pread or
// pwrite would have returned, not a crash.
func bankCopy(dst, src []byte) (err error) {
	defer catchFault(&err, debug.SetPanicOnFault(true))
	copy(dst, src)
	return nil
}

// catchFault, deferred by a function that touches a mapping with
// debug.SetPanicOnFault(true) as its second argument, restores that
// setting and turns a fault's panic into the EIO a read or write would
// have returned.
func catchFault(err *error, old bool) {
	debug.SetPanicOnFault(old)
	if r := recover(); r != nil {
		*err = fmt.Errorf("cache: mapped file I/O: %v: %w", r, syscall.EIO)
	}
}

// readFrameInto reads a frame's bank bytes into dst when it has the
// capacity, allocating only as a fallback.
func (c *Cache) readFrameInto(idx int, size uint32, dst []byte) ([]byte, error) {
	b, off := c.bankOf(idx)
	m, err := c.bank(b)
	if err != nil {
		return nil, err
	}
	var buf []byte
	if cap(dst) >= int(size) {
		buf = dst[:size]
	} else {
		buf = make([]byte, size)
	}
	if err := bankCopy(buf, m[off:off+int64(size)]); err != nil {
		return nil, err
	}
	return buf, nil
}

func (c *Cache) writeFrame(idx int, data []byte) error {
	b, off := c.bankOf(idx)
	m, err := c.bank(b)
	if err != nil {
		return err
	}
	return bankCopy(m[off:off+int64(len(data))], data)
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
// The frame is pinned shared and copied out of its bank outside the
// stripe lock, so concurrent traffic on other frames proceeds meanwhile.
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
		if wasDirty {
			// The bank copy is torn but the journal holds the
			// acknowledged dirty bytes: serve those. The frame is
			// repaired (or dropped) when the block is next written
			// back — see send.
			if jd, ok := c.journalLatest(id); ok {
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
// re-appended to the log they came from. It finds or claims the block's
// frame (claim), then fills it here, the one place a frame takes bytes:
// journal append, bank write, tag.
func (c *Cache) put(fh nfs3.FH, block uint64, data []byte, mode putMode, journal bool) error {
	if len(data) > c.cfg.BlockSize {
		return fmt.Errorf("cache: block of %d bytes exceeds frame size %d", len(data), c.cfg.BlockSize)
	}
	if c.cfg.ReadOnly && mode == putDirty {
		return fmt.Errorf("cache: dirty insertion into read-only cache")
	}
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
	idx, err := c.claim(s, id, mode)
	if idx < 0 {
		s.mu.Unlock()
		return err
	}
	fr := &c.frames[idx]
	// A claimed frame is not valid yet and not dirty; an updated one
	// stays dirty whatever the insert's mode.
	dirty := mode == putDirty || fr.dirty
	journal = journal && c.journal != nil && dirty
	if journal {
		if err := c.journalAppend(s, id, data, sum); err != nil {
			// Nothing touched the frame yet: an updated frame keeps its
			// cached copy, a claimed one goes, and the write fails
			// unacknowledged.
			if !fr.valid {
				delete(s.index, id)
			}
			s.unpinExcl(fr)
			s.mu.Unlock()
			return err
		}
		maybeCrash(CrashPostJournalPreBank)
	}
	if err := c.dirtyAwareFrameWrite(s, idx, data, journal); err != nil {
		// Frame content is now unknown: drop it. A journaled intent stays
		// live and is replayed at the next start.
		delete(s.index, id)
		fr.valid = false
		s.unpinExcl(fr)
		s.mu.Unlock()
		return err
	}
	if !fr.valid {
		s.stats.Insertions++
	}
	s.clock++
	fr.valid, fr.size, fr.crc, fr.dirty, fr.lru = true, uint32(len(data)), sum, dirty, s.clock
	c.unbindDirty(id, dirty)
	s.unpinExcl(fr)
	s.mu.Unlock()
	if c.cfg.Tap != nil {
		c.cfg.Tap.CacheInsert(id, dirty)
	}
	return nil
}

// claim returns, exclusively pinned and with the stripe lock held, the
// frame put fills for id: the block's own frame, or a claimed one — the
// set's least recently used unpinned frame, its dirty bytes sent back
// first, indexed under id but not yet valid, so readers that find it wait
// on the pin and never see it half filled. It returns -1 when a clean
// insert meets a dirty frame (a copy of what upstream held when it was
// read; the frame is an acknowledged write upstream has not seen, and
// this is decided under the pin, whatever order a READ reply and a WRITE
// land in) and when the victim's write-back fails, with its error.
func (c *Cache) claim(s *stripe, id BlockID, mode putMode) (int, error) {
	for {
		if idx, ok := s.index[id]; ok {
			fr := &c.frames[idx]
			s.pinExcl(fr)
			switch {
			case !fr.valid || fr.id != id:
				s.unpinExcl(fr) // replaced while waiting; re-evaluate
				continue
			case fr.dirty && mode == putClean:
				s.unpinExcl(fr)
				return -1, nil
			}
			return idx, nil
		}

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
		if fr.valid && fr.dirty {
			if err := c.writeBackFrame(s, victim); err != nil {
				s.unpinExcl(fr)
				return -1, err
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
		fr.id, fr.valid, fr.dirty = id, false, false
		s.index[id] = victim
		return victim, nil
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
func (c *Cache) journalAppend(s *stripe, id BlockID, data []byte, sum uint32) error {
	s.mu.Unlock()
	err := c.journal.Append(id, data, sum)
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
// exclusively pinned, releasing the stripe lock around send. On success
// the frame is marked clean. It returns with the lock held.
func (c *Cache) writeBackFrame(s *stripe, idx int) error {
	fr := &c.frames[idx]
	wb := c.writeBackFn()
	if wb == nil {
		return fmt.Errorf("cache: dirty eviction with no write-back function installed")
	}
	p := pinnedFrame{s: s, fr: fr, idx: idx, id: fr.id, size: fr.size, crc: fr.crc}
	s.mu.Unlock()
	err := c.send(wb, []pinnedFrame{p})
	s.mu.Lock()
	if err != nil {
		return err
	}
	fr.dirty = false
	s.stats.WriteBacks++
	return nil
}

// pinnedFrame is a frame its sender holds pinned, with the tag it had
// when pinned.
type pinnedFrame struct {
	s    *stripe
	fr   *frame
	idx  int
	id   BlockID
	size uint32
	crc  uint32
}

// send is the one way dirty bytes leave the cache. It propagates frames
// the caller holds pinned — shared for a flush, exclusive for an
// eviction or an invalidation — consecutive blocks of one file, every
// one but the last full, as one WriteBackFunc call. It reads them back
// to back into one pooled buffer under their checksums: a torn frame
// goes out as the journal's copy, or, with none, fails the send. It
// waits out a WriteBackWhole put of the file first, and commits each
// block's journal intent after. The pins keep writers away across the
// read and the call, so what was sent is the frames' content and the
// caller clears their dirty bits on success. No stripe lock is held.
func (c *Cache) send(wb WriteBackFunc, pins []pinnedFrame) error {
	total := 0
	for i := range pins {
		total += int(pins[i].size)
	}
	buf := bufpool.Get(total)
	defer bufpool.Put(buf)
	off := 0
	for i := range pins {
		p := &pins[i]
		dst := buf[off : off+int(p.size)]
		off += int(p.size)
		if _, err := c.readFrameInto(p.idx, p.size, dst); err != nil {
			return err
		}
		if crc32c(dst) == p.crc {
			continue
		}
		p.s.mu.Lock()
		p.s.stats.ChecksumErrors++
		p.s.mu.Unlock()
		if jd, ok := c.journalLatest(p.id); ok && len(jd) == len(dst) {
			copy(dst, jd)
			continue
		}
		return fmt.Errorf("cache: dirty frame (fh %x block %d) failed checksum and has no journaled copy",
			p.id.FH, p.id.Block)
	}
	first := pins[0].id
	c.awaitWhole(first.FH)
	if err := wb(nfs3.FH(first.FH), first.Block*uint64(c.cfg.BlockSize), buf); err != nil {
		return err
	}
	if c.journal != nil {
		// A failed commit only costs an idempotent re-send at the next
		// recovery; the write-back itself succeeded.
		for i := range pins {
			c.journal.Commit(pins[i].id)
		}
	}
	return nil
}

// journalLatest returns the journal's copy of a dirty block whose bank
// bytes failed their checksum, if there is a journal and it has one.
func (c *Cache) journalLatest(id BlockID) ([]byte, bool) {
	if c.journal == nil {
		return nil, false
	}
	return c.journal.Latest(id)
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
