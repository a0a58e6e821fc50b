package cache

// Write coalescing: at flush time, runs of consecutive dirty blocks of
// a file are propagated as single upstream WRITEs instead of one RPC
// per block. Over a WAN each RPC costs a round trip (the paper's
// write-back sessions flush hundreds of 4-32 KB blocks), so merging
// eight adjacent blocks into one 32 KB WRITE cuts the flush's RPC
// count — and its latency — by the run length.
//
// Correctness reuses the flushBlock pin protocol: every frame of a run
// is held under a shared pin across the combined read and the WRITE
// RPC, which excludes writers and evictors for the whole round trip
// and totally orders propagations of each block. Any frame that fails
// validation (gone, clean, torn) simply ends or degrades the run; the
// affected blocks fall back to the per-block flushBlock path, which
// handles journal rescue.

import (
	"sort"

	"gvfs/internal/bufpool"
	"gvfs/internal/nfs3"
)

// run is a maximal sequence of consecutive dirty blocks of one file,
// bounded by the coalescing byte budget.
type run struct {
	fh    string // BlockID.FH
	start uint64 // first block
	n     int    // block count
}

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

// propagateCoalesced is propagate with runs of adjacent blocks merged
// into single WRITEs, pipelined like the per-block path.
func (c *Cache) propagateCoalesced(ids []BlockID, wb WriteBackFunc) error {
	runs := coalesceRuns(ids, c.cfg.BlockSize, c.cfg.WriteCoalesce)
	return flushEach(c.cfg.FlushConcurrency, runs, func(r run) error { return c.flushRun(r, wb) })
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
		return c.flushBlock(BlockID{FH: r.fh, Block: r.start}, wb)
	}
	bs := c.cfg.BlockSize
	pins := make([]pinnedFrame, 0, r.n)
	release := func(from int) {
		for i := from; i < len(pins); i++ {
			p := &pins[i]
			p.s.mu.Lock()
			p.s.unpinShared(p.fr)
			p.s.mu.Unlock()
		}
	}
	for i := 0; i < r.n; i++ {
		id := BlockID{FH: r.fh, Block: r.start + uint64(i)}
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
		if int(size) < bs {
			// A short frame's bytes end before the next block starts:
			// it can only be the tail of a coalesced WRITE.
			break
		}
	}

	// Whatever the prefix didn't cover falls back to per-block flushes
	// (blocks settled by racing evictions no-op there).
	var firstErr error
	flushRest := func(from int) {
		for i := from; i < r.n; i++ {
			id := BlockID{FH: r.fh, Block: r.start + uint64(i)}
			if err := c.flushBlock(id, wb); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}

	if len(pins) < 2 {
		release(0)
		flushRest(0)
		return firstErr
	}

	// Assemble the run's bytes in one pooled buffer, verifying each
	// frame's checksum. A torn frame aborts the coalesced WRITE; the
	// per-block path rescues it from the journal.
	total := 0
	for i := range pins {
		total += int(pins[i].size)
	}
	buf := bufpool.Get(total)
	off := 0
	assembled := true
	for i := range pins {
		p := &pins[i]
		data, err := c.readFrameInto(p.idx, p.size, buf[off:off+int(p.size)])
		if err != nil || crc32c(data) != p.crc {
			assembled = false
			break
		}
		off += int(p.size)
	}
	if !assembled {
		bufpool.Put(buf)
		release(0)
		flushRest(0)
		return firstErr
	}

	err := wb(nfs3.FH(r.fh), r.start*uint64(bs), buf[:total])
	bufpool.Put(buf)
	if err != nil {
		release(0)
		return err
	}
	for i := range pins {
		p := &pins[i]
		if c.journal != nil {
			c.journal.Commit(p.id)
		}
		p.s.mu.Lock()
		p.fr.dirty = false
		p.s.stats.WriteBacks++
		p.s.unpinShared(p.fr)
		p.s.mu.Unlock()
	}
	flushRest(len(pins))
	return firstErr
}
