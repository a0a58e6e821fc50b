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
