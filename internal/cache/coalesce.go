package cache

// Flush in runs: WriteBackAll, Flush, WriteBackFile and the idle writer
// propagate runs of consecutive dirty blocks of a file as one upstream
// WRITE each, up to nfs3.MaxTransfer bytes — the WtMax every server
// here advertises and the cap on BlockSize, so a 32 KiB block is a run
// of one. What a flush costs is RPCs (socket syscalls and per-call
// scheduling on loopback, a round trip each over a WAN), not bytes, and
// the paper's write-back sessions flush hundreds of adjacent 4-32 KB
// blocks: four 8 KiB blocks to a WRITE quarter the calls.
//
// Correctness reuses the flushBlock pin protocol: every frame of a run
// is held under a shared pin across the combined read and the WRITE
// RPC, which excludes writers and evictors for the whole round trip
// and totally orders propagations of each block. Any frame that fails
// validation (gone, clean, short, torn) simply ends or degrades the
// run; the affected blocks fall back to flushBlock, which handles
// journal rescue. Journal commits and dirty bits stay per block.

import (
	"fmt"
	"io"
	"sort"

	"gvfs/internal/bufpool"
	"gvfs/internal/nfs3"
)

// run is a maximal sequence of consecutive dirty blocks of one file,
// bounded by the WRITE size.
type run struct {
	fh    string // BlockID.FH
	start uint64 // first block
	n     int    // block count
}

// id names the i'th block of the run.
func (r run) id(i int) BlockID { return BlockID{FH: r.fh, Block: r.start + uint64(i)} }

// coalesceRuns partitions a dirty-block snapshot into per-file runs of
// consecutive blocks, splitting whenever a run would exceed maxBytes.
// Duplicate IDs are deduplicated. Pure function; order of ids does not
// matter.
func coalesceRuns(ids []BlockID, blockSize, maxBytes int) []run {
	if len(ids) == 0 {
		return nil
	}
	sorted := append([]BlockID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].FH != sorted[j].FH {
			return sorted[i].FH < sorted[j].FH
		}
		return sorted[i].Block < sorted[j].Block
	})
	maxBlocks := maxBytes / blockSize
	if maxBlocks < 1 {
		maxBlocks = 1
	}
	var out []run
	for _, id := range sorted {
		if n := len(out); n > 0 {
			r := &out[n-1]
			if r.fh == id.FH {
				if id.Block == r.start+uint64(r.n)-1 {
					continue // duplicate
				}
				if id.Block == r.start+uint64(r.n) && r.n < maxBlocks {
					r.n++
					continue
				}
			}
		}
		out = append(out, run{fh: id.FH, start: id.Block, n: 1})
	}
	return out
}

// pinnedFrame is one run member snapshotted under its shared pin.
type pinnedFrame struct {
	s    *stripe
	fr   *frame
	idx  int
	id   BlockID
	size uint32
	crc  uint32
}

// flushRun propagates one run as a single WRITE where possible. Frames
// are pinned shared one at a time (never holding two stripe locks at
// once); a frame that is gone, clean, or short ends the coalesced
// prefix early and the remainder of the run is flushed per-block. The
// shared pins are held across the combined read and the WRITE RPC,
// exactly like flushBlock's, so propagated bytes are the frames'
// content at completion time.
func (c *Cache) flushRun(r run, wb WriteBackFunc) error {
	if r.n == 1 {
		return c.flushBlock(r.id(0), wb)
	}
	bs := c.cfg.BlockSize
	pins := make([]pinnedFrame, 0, r.n)
	total := 0
	for i := 0; i < r.n; i++ {
		id := r.id(i)
		s := c.stripeFor(id)
		s.mu.Lock()
		idx, found := s.index[id]
		if !found {
			s.mu.Unlock()
			break
		}
		fr := &c.frames[idx]
		s.pinShared(fr)
		if !fr.valid || fr.id != id || !fr.dirty {
			s.unpinShared(fr)
			s.mu.Unlock()
			break
		}
		size, sum := fr.size, fr.crc
		s.mu.Unlock()
		pins = append(pins, pinnedFrame{s: s, fr: fr, idx: idx, id: id, size: size, crc: sum})
		total += int(size)
		if int(size) < bs {
			// A short frame's bytes end before the next block starts:
			// it can only be the tail of a coalesced WRITE.
			break
		}
	}

	// Assemble the prefix's bytes in one pooled buffer, verifying each
	// frame's checksum, and send it. A torn frame calls the coalesced
	// WRITE off: flushBlock rescues it from the journal.
	var err error
	sent := 0 // blocks the coalesced WRITE settled
	if len(pins) >= 2 {
		buf := bufpool.Get(total)
		if c.readRun(pins, buf) {
			c.awaitWhole(r.fh)
			if err = wb(nfs3.FH(r.fh), r.start*uint64(bs), buf); err == nil {
				sent = len(pins)
			}
		}
		bufpool.Put(buf)
	}
	for i := range pins {
		p := &pins[i]
		if sent > 0 && c.journal != nil {
			c.journal.Commit(p.id)
		}
		p.s.mu.Lock()
		if sent > 0 {
			p.fr.dirty = false
			p.s.stats.WriteBacks++
		}
		p.s.unpinShared(p.fr)
		p.s.mu.Unlock()
	}
	if err != nil {
		return err // the run stays dirty
	}
	// Whatever the WRITE didn't cover falls back to per-block flushes
	// (blocks settled by racing evictions no-op there).
	for i := sent; i < r.n; i++ {
		if ferr := c.flushBlock(r.id(i), wb); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// readRun reads the pinned frames back to back into buf, reporting
// whether every one was read and matched its checksum.
func (c *Cache) readRun(pins []pinnedFrame, buf []byte) bool {
	off := 0
	for i := range pins {
		p := &pins[i]
		data, err := c.readFrameInto(p.idx, p.size, buf[off:off+int(p.size)])
		if err != nil || crc32c(data) != p.crc {
			return false
		}
		off += int(p.size)
	}
	return true
}

// WriteBackWhole propagates a file's dirty blocks by sending the whole
// file — size() bytes, from block 0 on — through send as one stream, when
// the cache holds every block of it that zero does not call all zeros and
// at least one of them is dirty. It returns the blocks it cleaned.
//
// No frame is pinned across the send, so WRITEs to the file go on during
// it: each block is read under its frame's checksum, and once send
// succeeds a frame turns clean only if it still holds the bytes sent for
// it and lay within the size sent. A block written meanwhile stays dirty.
// The stream replaces the file upstream, so while send runs every other
// write-back of the file waits (awaitWhole): a newer block lands after
// the stream, never under it. size is read once that gate is up.
//
// A file the cache does not hold whole is not sent, and a send that fails
// or meets a torn or vanished frame leaves every block dirty: either way
// the blocks are the ordinary flush's.
func (c *Cache) WriteBackWhole(fh nfs3.FH, size func() uint64, zero func(block uint64) bool, send func(io.Reader) error) (cleaned []uint64, err error) {
	key := fh.Key()
	release := c.holdWhole(key)
	n := size()
	if !c.heldWhole(key, n, zero) {
		release()
		return nil, nil
	}
	r := &wholeReader{c: c, key: key, size: n, zero: zero, block: make([]byte, c.cfg.BlockSize)}
	err = send(r)
	release() // before any pin: a write-back waiting at the gate may hold one
	if err != nil || r.err != nil {
		return nil, err
	}
	for _, f := range r.sent {
		if c.cleanIfSent(f) {
			cleaned = append(cleaned, f.id.Block)
		}
	}
	return cleaned, nil
}

// holdWhole marks a WriteBackWhole send of file key in flight, once no
// other one is, and returns the call that ends it.
func (c *Cache) holdWhole(key string) (release func()) {
	c.wholeMu.Lock()
	for ch := c.whole[key]; ch != nil; ch = c.whole[key] {
		c.wholeMu.Unlock()
		<-ch
		c.wholeMu.Lock()
	}
	ch := make(chan struct{})
	c.whole[key] = ch
	c.wholeN.Add(1)
	c.wholeMu.Unlock()
	return func() {
		c.wholeMu.Lock()
		delete(c.whole, key)
		c.wholeN.Add(-1)
		c.wholeMu.Unlock()
		close(ch)
	}
}

// awaitWhole waits out a WriteBackWhole send of file key, if one is in
// flight. Every write-back calls it just before the WriteBackFunc.
func (c *Cache) awaitWhole(key string) {
	if c.wholeN.Load() == 0 {
		return
	}
	c.wholeMu.Lock()
	ch := c.whole[key]
	c.wholeMu.Unlock()
	if ch != nil {
		<-ch
	}
}

// wholeFrame is a block's frame as WriteBackWhole looked at it.
type wholeFrame struct {
	id        BlockID
	idx       int
	size, crc uint32
	dirty     bool
}

// lookFrame returns id's frame, if the cache holds it.
func (c *Cache) lookFrame(id BlockID) (wholeFrame, bool) {
	s := c.stripeFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, found := s.index[id]
	if !found {
		return wholeFrame{}, false
	}
	fr := &c.frames[idx]
	return wholeFrame{id: id, idx: idx, size: fr.size, crc: fr.crc, dirty: fr.dirty}, fr.valid && fr.id == id
}

// heldWhole reports whether the cache holds the first size bytes of file
// key — a frame for every block zero does not call all zeros, every one
// full but the last — and at least one of those frames is dirty.
func (c *Cache) heldWhole(key string, size uint64, zero func(block uint64) bool) bool {
	bs := uint64(c.cfg.BlockSize)
	dirty := false
	for b := uint64(0); b*bs < size; b++ {
		f, ok := c.lookFrame(BlockID{FH: key, Block: b})
		if !ok && !zero(b) || ok && uint64(f.size) < bs && b*bs+uint64(f.size) < size {
			return false
		}
		dirty = dirty || ok && f.dirty
	}
	return dirty
}

// cleanIfSent clears f's dirty bit, and commits its journal intent, if its
// frame still holds the bytes WriteBackWhole sent for it. The shared pin
// keeps a WRITE from landing between the check and the commit.
func (c *Cache) cleanIfSent(f wholeFrame) bool {
	s := c.stripeFor(f.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := &c.frames[f.idx]
	s.pinShared(fr)
	defer s.unpinShared(fr)
	if !fr.valid || fr.id != f.id || !fr.dirty || fr.size != f.size || fr.crc != f.crc {
		return false
	}
	if c.journal != nil {
		s.mu.Unlock()
		c.journal.Commit(f.id) // a no-op for a block the journal does not hold
		s.mu.Lock()
	}
	fr.dirty = false
	s.stats.WriteBacks++
	return true
}

// wholeReader reads the first size bytes of file key block by block: a
// frame's bytes where the cache holds one, zeros where zero vouches for
// the block. A torn frame, or a block neither, ends it with an error.
type wholeReader struct {
	c     *Cache
	key   string
	size  uint64
	zero  func(block uint64) bool
	off   uint64       // bytes handed out
	block []byte       // one block's room
	rest  []byte       // what Read has not handed out of the current block
	sent  []wholeFrame // the frames read whole, each within size
	err   error
}

func (r *wholeReader) Read(b []byte) (int, error) {
	if len(r.rest) == 0 {
		if r.err == nil && r.off >= r.size {
			return 0, io.EOF
		}
		if r.err == nil {
			r.err = r.next()
		}
		if r.err != nil {
			return 0, r.err
		}
	}
	n := copy(b, r.rest)
	r.rest, r.off = r.rest[n:], r.off+uint64(n)
	return n, nil
}

// next reads the block at off into rest.
func (r *wholeReader) next() error {
	bs := uint64(len(r.block))
	id := BlockID{FH: r.key, Block: r.off / bs}
	rest := r.block
	if left := r.size - r.off; left < bs {
		rest = rest[:left]
	}
	f, ok := r.c.lookFrame(id)
	switch {
	case ok:
		data, err := r.c.readFrameInto(f.idx, f.size, r.block[:f.size])
		if err != nil || crc32c(data) != f.crc || len(data) < len(rest) {
			return fmt.Errorf("cache: frame (fh %x block %d) torn or rewritten while read", id.FH, id.Block)
		}
		if r.off+uint64(f.size) <= r.size {
			r.sent = append(r.sent, f)
		}
	case r.zero(id.Block):
		clear(rest)
	default:
		return fmt.Errorf("cache: block %d of fh %x left the cache while read", id.Block, id.FH)
	}
	r.rest = rest
	return nil
}
