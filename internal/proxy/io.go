package proxy

import (
	"fmt"
	"io"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/bufpool"
	"gvfs/internal/cache"
	"gvfs/internal/filechan"
	"gvfs/internal/meta"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/sunrpc"
)

// This file contains the READ/WRITE fast paths — the disk cache, zero
// filtering and file-channel mechanisms — plus the middleware-facing
// consistency entry points.

// accountRead feeds one finished READ into the per-outcome latency
// histogram, the per-file / per-client accounting tables, and the
// cache-analytics demand feed (tenant identity + block touched).
// Degraded reads are attributed to the file and client that issued
// them, so /statusz shows who was served from cache during an outage.
func (p *Proxy) accountRead(c *sunrpc.Call, v *fileView, fh nfs3.FH, off uint64, outcome string, count uint32, start time.Time) {
	p.stats.observeRead(outcome, start)
	// The aggregate histogram above always records; the per-file /
	// per-client table detail is optional work brownout sheds.
	if p.brownout() {
		return
	}
	client := p.clientLabel(c)
	if p.cfg.Cachean != nil && p.cfg.BlockCache != nil && outcome != "error" {
		bs := uint64(p.cfg.BlockCache.BlockSize())
		p.cfg.Cachean.DemandData(client, fh, off/bs, int(count), false)
	}
	served := outcome == "block_hit" || outcome == "file_cache" || outcome == "zero_filter"
	p.acct.recordRead(v.labelOf(fh), client, outcome, count, served && p.Degraded())
}

func (p *Proxy) handleRead(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	// Stack-allocated args: only the FH (copied by DecodeInto) may
	// outlive the call, via prefetch goroutines and accounting keys.
	var args nfs3.ReadArgs
	if err := args.DecodeInto(c.Args); err != nil {
		return nil, sunrpc.GarbageArgs
	}
	start := time.Now()
	// The call's one look at the attribute table: path, size, post-op
	// attributes and meta-data state all come from this view.
	view, known := p.attrs.get(args.FH)
	v := &view

	// Meta-data handling (paper §3.2.2): consult the file's meta-data
	// on first access and act on it.
	var zm *metaState // holds the file's zero map, when this READ is not all zero
	if known {
		if ms := p.metaFor(v, c); ms.m != nil {
			if ms.m.WantsFileChannel() && p.cfg.FileCache != nil && p.cfg.FileChanDial != nil {
				if err := p.ensureFetched(args.FH, v, ms); err == nil {
					res, stat := p.readFromFileCache(c, &args, v)
					tr.Span(obs.LayerFileCache, "hit", start)
					p.accountRead(c, v, args.FH, args.Offset, "file_cache", args.Count, start)
					return res, stat
				}
				// Channel failure: fall through to block-based path.
			} else if ms.m.HasZeroMap() {
				if rangeIsZero(ms, args.Offset, args.Count) {
					res, stat := p.zeroReply(&args, ms.m, v)
					tr.Span(obs.LayerZeroFilter, "hit", start)
					p.accountRead(c, v, args.FH, args.Offset, "zero_filter", args.Count, start)
					return res, stat
				}
				zm = ms
			}
		}
	}

	// A file previously fetched whole stays served from the file cache.
	if p.cfg.FileCache != nil && v.full != "" {
		if p.cfg.FileCache.Has(v.full) {
			res, stat := p.readFromFileCache(c, &args, v)
			tr.Span(obs.LayerFileCache, "hit", start)
			p.accountRead(c, v, args.FH, args.Offset, "file_cache", args.Count, start)
			return res, stat
		}
	}

	if p.cfg.BlockCache == nil {
		return p.readThrough(c, &args, v, tr, start, args.Count, "forwarded", nil)
	}
	if zm != nil {
		if lead, trail := zeroEdges(zm, &args, uint64(p.cfg.BlockCache.BlockSize())); lead+trail > 0 {
			return p.readBetweenZeros(c, &args, lead, trail, zm.m, v, tr, start)
		}
	}
	return p.readBlocks(c, &args, v, tr, start)
}

// readBlocks answers a READ from the block cache, or through it.
func (p *Proxy) readBlocks(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, tr *obs.Active, start time.Time) ([]byte, sunrpc.AcceptStat) {
	bs := uint64(p.cfg.BlockCache.BlockSize())
	// What the cache answers starts on a block boundary and asks for part
	// of one block or for whole blocks up to one transfer: a client's
	// page, or the miss run of a caching proxy below this one (cascaded
	// caches, paper §3.2.1).
	count := uint64(args.Count)
	k := max(count/bs, 1)
	whole := count == k*bs // else part of one block: answered, never cached
	if args.Offset%bs != 0 || count > nfs3.MaxTransfer || (count > bs && count%bs != 0) {
		return p.readUncached(c, args, v, tr, start)
	}
	first := args.Offset / bs
	lookup := time.Now()
	if res, stat, ok := p.serveBlockHit(c, args, v, first, k, tr, "hit", lookup, start); ok {
		return res, stat
	}
	// A run ahead that covers this block may be in flight: join it rather
	// than duplicating the WAN transfer.
	if p.ra != nil && p.ra.waitFor(args.FH, first/(nfs3.MaxTransfer/bs)) {
		if res, stat, ok := p.serveBlockHit(c, args, v, first, k, tr, "join", lookup, start); ok {
			return res, stat
		}
	}
	tr.Span(obs.LayerBlockCache, "miss", lookup)
	// Content-hash hints: with dedup enabled and a hashing backend, a
	// clone's block often already sits in the shared cache under
	// another file's identity — serve it without any upstream
	// transfer. Zero-content blocks need no frame at all (the paper's
	// zero-block map generalized to the well-known zero hash). Local
	// work, so it runs even under brownout.
	if count == bs && p.cfg.BlockCache.DedupEnabled() {
		if hr, ok := p.cfg.Backend.(backend.Hasher); ok {
			if h, n, ok := hr.BlockHash(backend.FileID(args.FH), first, int(bs)); ok {
				if res, stat, ok := p.serveByHash(c, args, v, first, h, n, tr, lookup, start); ok {
					return res, stat
				}
			}
		}
	}
	// Several blocks, not all resident, one of them an absorbed write:
	// upstream cannot answer for the range until it has the write.
	if k > 1 {
		for b := first; b < first+k; b++ {
			if _, dirty := p.cfg.BlockCache.Peek(args.FH, b); dirty {
				return p.readUncached(c, args, v, tr, start)
			}
		}
	}
	// Brownout: hits above kept being served, but a miss means WAN work
	// the overloaded proxy cannot afford — defer it with a retriable
	// error so the queues drain.
	if res, stat, shed := p.deferMissInBrownout(c); shed {
		p.accountRead(c, v, args.FH, args.Offset, "error", args.Count, start)
		return res, stat
	}
	p.stats.readMisses.Add(1)
	// Miss in runs: what a miss costs is the upstream call, not the bytes,
	// so a sequential miss brings the rest of its aligned run with it and
	// the READs that follow are hits. Only whole-block requests are
	// cached, so that a frame is always its block's prefix; a run of one
	// block is the plain miss.
	fetch := args.Count
	seq := p.attrs.writeSeq(args.FH)
	if whole {
		fetch = uint32((p.missRunEnd(args.FH, v, first, first+k, bs) - first) * bs)
	}
	return p.readThrough(c, args, v, tr, start, fetch, "block_miss", func(r backend.ReadResult) error {
		if whole {
			if err := p.installRun(args.FH, first, k, r, seq); err != nil {
				return err
			}
		}
		p.maybePrefetch(c, args.FH, v, first, first+k)
		return nil
	})
}

// readUncached answers a READ the block cache cannot: dirty state is
// made visible upstream first, then the call bypasses the cache.
func (p *Proxy) readUncached(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, tr *obs.Active, start time.Time) ([]byte, sunrpc.AcceptStat) {
	if err := p.cfg.BlockCache.WriteBackFile(args.FH); err != nil {
		return nil, sunrpc.SystemErr
	}
	return p.readThrough(c, args, v, tr, start, args.Count, "forwarded", nil)
}

// scanning reports whether the client reading from block first on looks
// to be scanning the file: the block before is resident. That evidence
// needs no per-file state, and a random miss over a cold cache almost
// never has it.
func (p *Proxy) scanning(fh nfs3.FH, first uint64) bool {
	if first == 0 {
		return false
	}
	cached, _ := p.cfg.BlockCache.Peek(fh, first-1)
	return cached
}

// missRunEnd decides how far past the demanded blocks [first, end) the
// miss's one upstream READ goes: the rest of the run for a client that is
// scanning, nothing for any other.
func (p *Proxy) missRunEnd(fh nfs3.FH, v *fileView, first, end, bs uint64) uint64 {
	if !p.scanning(fh, first) {
		return end
	}
	return p.runEnd(fh, v, first, end, bs)
}

// runEnd extends blocks [first, end) to the end of first's
// nfs3.MaxTransfer-aligned window (so runs tile a file however the scan
// entered it, and never exceed what any server here transfers), cut short
// at the first block already cached — clean or dirty — and at a known end
// of file, and then back to the last block the file's zero map does not
// answer (not, that is, for a block the session has written): like
// zeroEdges, a zero block between two others rides along and the ones at
// the end are not fetched.
func (p *Proxy) runEnd(fh nfs3.FH, v *fileView, first, end, bs uint64) uint64 {
	per := nfs3.MaxTransfer / bs
	demanded := end
	for limit := (first/per + 1) * per; end < limit; end++ {
		if v.hasSize && end*bs >= v.attr.Size {
			break
		}
		if cached, _ := p.cfg.BlockCache.Peek(fh, end); cached {
			break
		}
	}
	if end == demanded {
		return end
	}
	if v.meta != nil {
		end = v.meta.trimZeros(demanded, end, bs)
	}
	return end
}

// installRun caches what one upstream READ from block first on brought
// back: every whole block, and a short last one only where the file ends
// there (a frame is its block's prefix up to the end of the file). A
// block that was dirtied meanwhile keeps its bytes — the cache decides
// that under the frame's pin. Blocks past the demanded ones are a bonus:
// their insertion may fail without failing the READ, and they stay only
// under keepAhead's rule.
func (p *Proxy) installRun(fh nfs3.FH, first, demanded uint64, r backend.ReadResult, seq uint64) error {
	bs := p.cfg.BlockCache.BlockSize()
	rest := r.Data
	for i := uint64(0); len(rest) > 0; i++ {
		piece := rest[:min(len(rest), bs)]
		rest = rest[len(piece):]
		if len(piece) < bs && !r.EOF {
			break
		}
		if err := p.cfg.BlockCache.PutDedup(fh, first+i, piece, false); err != nil {
			if i < demanded {
				return err
			}
			break
		}
		if i >= demanded {
			p.keepAhead(fh, first+i, seq)
		}
	}
	return nil
}

// keepAhead settles a block just cached clean that no client has asked
// for yet — the rest of a miss run, a run ahead. seq is the file's write
// sequence from before its READ went upstream. If upstream has answered
// a WRITE of the file since (a flush, an eviction's write-back, a
// write-through), the bytes may be older than what it wrote, and the
// frame that would have refused them, being dirty, may be clean or gone
// by now: the block is dropped again. The sequence moves before a frame
// turns clean and is compared after the insert, so no order of the two
// leaves old bytes cached; a dirty frame met here is a newer write still
// and InvalidateBlock writes it back first. A demanded block is not held
// to this: its client raced the WRITE itself. The blocks that stay are
// the ones gvfs_proxy_prefetched_total counts.
func (p *Proxy) keepAhead(fh nfs3.FH, block, seq uint64) {
	if p.attrs.writeSeq(fh) != seq {
		p.cfg.BlockCache.InvalidateBlock(fh, block)
		return
	}
	p.stats.prefetched.Add(1)
}

// serveByHash tries to satisfy a missed block read by content: a known
// zero block is synthesized locally, and content already cached under
// another file's identity is served through a dedup alias. Both avoid
// the upstream transfer entirely.
func (p *Proxy) serveByHash(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, block uint64, h backend.Hash, n uint32, tr *obs.Active, lookup, start time.Time) ([]byte, sunrpc.AcceptStat, bool) {
	if backend.IsZeroHash(h, int(n)) {
		p.stats.zeroFiltered.Add(1)
		res, stat := p.cachedReadReply(c, args, v, make([]byte, n), p.cfg.BlockCache.BlockSize())
		tr.Span(obs.LayerZeroFilter, "hit", lookup)
		p.accountRead(c, v, args.FH, args.Offset, "zero_filter", args.Count, start)
		return res, stat, true
	}
	buf := bufpool.Get(p.cfg.BlockCache.BlockSize())
	data, ok := p.cfg.BlockCache.GetByHash(args.FH, block, h, buf)
	if !ok {
		bufpool.Put(buf)
		return nil, 0, false
	}
	tr.Span(obs.LayerBlockCache, "dedup_hit", lookup)
	p.stats.readHits.Add(1)
	p.maybePrefetch(c, args.FH, v, block, block+1)
	res, stat := p.cachedReadReply(c, args, v, data, len(buf))
	bufpool.Put(buf)
	p.accountRead(c, v, args.FH, args.Offset, "block_hit", args.Count, start)
	return res, stat, true
}

// serveBlockHit serves a READ of k blocks from the block cache when all
// of them are present (clean or dirty: session data wins), using pooled
// buffers end to end: the frames are read into a pooled buffer, the
// reply encoded into a pooled results buffer that the RPC server
// releases after framing (Call.ReplyBuf). A short frame ends the reply.
// The boolean reports whether the blocks were cached.
func (p *Proxy) serveBlockHit(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, first, k uint64, tr *obs.Active, outcome string, lookup, start time.Time) ([]byte, sunrpc.AcceptStat, bool) {
	bs := p.cfg.BlockCache.BlockSize()
	buf := bufpool.Get(int(k) * bs)
	data := buf[:0]
	for b := first; b < first+k; b++ {
		n := len(data)
		blk, ok := p.cfg.BlockCache.GetInto(args.FH, b, buf[n:n+bs])
		if !ok {
			bufpool.Put(buf)
			return nil, 0, false
		}
		data = append(data, blk...) // in place, but for the journal's copy of a torn frame
		if len(blk) < bs {
			break
		}
	}
	tr.Span(obs.LayerBlockCache, outcome, lookup)
	p.stats.readHits.Add(1)
	p.maybePrefetch(c, args.FH, v, first, first+k)
	res, stat := p.cachedReadReply(c, args, v, data, int(k)*bs)
	bufpool.Put(buf)
	p.accountRead(c, v, args.FH, args.Offset, "block_hit", args.Count, start)
	return res, stat, true
}

// cachedReadReply serves a READ hit from the cached bytes of the span
// whole blocks it covers, trimming to the requested count and to the
// known file size. The reply is encoded into a pooled
// buffer released by the RPC server (ReplyBuf); cached is only
// read before returning, so the caller may release it immediately.
func (p *Proxy) cachedReadReply(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, cached []byte, span int) ([]byte, sunrpc.AcceptStat) {
	if p.Degraded() {
		p.stats.degradedReads.Add(1)
	}
	data := cached
	if uint64(len(data)) > uint64(args.Count) {
		data = data[:args.Count]
	}
	eof := len(cached) < span
	if size := v.attr.Size; v.hasSize {
		end := args.Offset + uint64(len(data))
		if args.Offset >= size {
			data = nil
			eof = true
		} else {
			if end > size {
				data = data[:size-args.Offset]
				end = size
			}
			eof = end >= size
		}
	}
	res := nfs3.ReadRes{Status: nfs3.OK, Attr: v.post(), Count: uint32(len(data)), EOF: eof, Data: data}
	c.ReplyBuf = res.AppendTo(bufpool.Get(nfs3.ReadResSize(len(data)))[:0])
	return c.ReplyBuf, sunrpc.Success
}

// rangeIsZero reports whether [off, off+count) is covered by all-zero
// blocks of the meta-data map — blocks, that is, which the map called
// zero and the session has not written since (metaState.wrote).
func rangeIsZero(ms *metaState, off uint64, count uint32) bool {
	if count == 0 {
		return false
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m := ms.m
	bs := uint64(m.BlockSize)
	end := off + uint64(count)
	if end > m.FileSize {
		end = m.FileSize
	}
	if off >= end {
		return true // fully past EOF: trivially zero-satisfiable
	}
	for b := off / bs; b <= (end-1)/bs; b++ {
		if !m.IsZeroBlock(b) {
			return false
		}
	}
	return true
}

// zeroReply satisfies a read of all-zero blocks locally — the paper's
// zero filtering for memory-state files.
func (p *Proxy) zeroReply(args *nfs3.ReadArgs, m *meta.Meta, v *fileView) ([]byte, sunrpc.AcceptStat) {
	p.stats.zeroFiltered.Add(1)
	size := m.FileSize
	var data []byte
	eof := true
	if args.Offset < size {
		end := args.Offset + uint64(args.Count)
		if end > size {
			end = size
		}
		data = make([]byte, end-args.Offset)
		eof = end >= size
	}
	// AppendTo, not Encode: Encode would move the caller's view to the heap.
	res := nfs3.ReadRes{Status: nfs3.OK, Attr: v.post(), Count: uint32(len(data)), EOF: eof, Data: data}
	return res.AppendTo(make([]byte, 0, nfs3.ReadResSize(len(data)))), sunrpc.Success
}

// zeroEdges is the zero filter for a READ of several whole cache blocks
// that is not all zero: how many bytes at its head and at its tail the
// map answers — blocks it calls zero, and what lies past the end of the
// file — so that only the span from the first non-zero block to the last
// is asked of the cache and, on a miss, of the upstream. Nothing is cut
// from any other READ, or under a map whose blocks are not the cache's.
func zeroEdges(ms *metaState, args *nfs3.ReadArgs, bs uint64) (lead, trail uint32) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m := ms.m
	count := uint64(args.Count)
	if uint64(m.BlockSize) != bs || args.Offset%bs != 0 || count%bs != 0 || count <= bs || count > nfs3.MaxTransfer {
		return 0, 0
	}
	zero := func(b uint64) bool { return b*bs >= m.FileSize || m.IsZeroBlock(b) }
	first, end := args.Offset/bs, (args.Offset+count)/bs
	// The caller found rangeIsZero false: some block in between is not zero.
	for ; first < end && zero(first); first++ {
		lead += uint32(bs)
	}
	for ; first < end && zero(end-1); end-- {
		trail += uint32(bs)
	}
	return lead, trail
}

// readBetweenZeros answers a READ whose first lead and last trail bytes
// zeroEdges cut: the block path serves the span between, from the cache
// or in one upstream READ, and the reply is that span with the map's
// zeros around it. The blocks cut are never fetched, so a fetch never
// brings them into the cache. gvfs_proxy_zero_filtered_total does not
// count the READ — it counts READs answered wholly from the map — and
// the READ is accounted as the block path's, with the span's bytes.
func (p *Proxy) readBetweenZeros(c *sunrpc.Call, args *nfs3.ReadArgs, lead, trail uint32, m *meta.Meta, v *fileView, tr *obs.Active, start time.Time) ([]byte, sunrpc.AcceptStat) {
	span := *args
	span.Offset += uint64(lead)
	span.Count -= lead + trail
	res, stat := p.readBlocks(c, &span, v, tr, start)
	var r nfs3.ReadRes
	if stat != sunrpc.Success || r.DecodeRefInto(res) != nil || r.Status != nfs3.OK {
		return res, stat
	}
	n := int(lead) + len(r.Data)
	if len(r.Data) == int(span.Count) { // the span came whole: the map knows what follows it
		if end := span.Offset + uint64(span.Count); end < m.FileSize {
			n += int(min(uint64(trail), m.FileSize-end))
		}
		r.EOF = args.Offset+uint64(n) >= m.FileSize
	}
	data := bufpool.Get(n)
	clear(data)
	copy(data[lead:], r.Data)
	r.Count, r.Data = uint32(n), data
	out := r.AppendTo(bufpool.Get(nfs3.ReadResSize(n))[:0])
	bufpool.Put(data)
	bufpool.Put(c.ReplyBuf) // the span's reply, which res and r.Data aliased
	c.ReplyBuf = out
	return out, sunrpc.Success
}

// readFromFileCache serves a READ from the whole-file cache, through
// pooled buffers like a block-cache hit: the bytes are read into one, the
// reply encoded into another that the RPC server releases (ReplyBuf).
func (p *Proxy) readFromFileCache(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView) ([]byte, sunrpc.AcceptStat) {
	size, _ := p.cfg.FileCache.Size(v.full) // what a READ can bring, whatever it asks for
	buf := bufpool.Get(int(min(uint64(args.Count), size-min(size, args.Offset))))
	defer bufpool.Put(buf)
	n, eof, err := p.cfg.FileCache.ReadInto(v.full, args.Offset, buf)
	if err != nil {
		res := nfs3.ReadRes{Status: nfs3.ErrIO}
		return res.Encode(), sunrpc.Success
	}
	p.stats.fileChanReads.Add(1)
	if p.Degraded() {
		p.stats.degradedReads.Add(1)
	}
	res := nfs3.ReadRes{Status: nfs3.OK, Attr: v.post(), Count: uint32(n), EOF: eof, Data: buf[:n]}
	c.ReplyBuf = res.AppendTo(bufpool.Get(nfs3.ReadResSize(n))[:0])
	return c.ReplyBuf, sunrpc.Success
}

func (p *Proxy) handleWrite(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	// Zero-copy parse: args.Data aliases the transport's pooled request
	// record, which stays valid until this handler returns. Every sink
	// below (file cache, bank write, journal append, upstream marshal)
	// copies the bytes before then; only the FH is retained, and
	// DecodeRefInto copies it.
	var args nfs3.WriteArgs
	if err := args.DecodeRefInto(c.Args); err != nil {
		return nil, sunrpc.GarbageArgs
	}
	start := time.Now()
	v, known := p.attrs.get(args.FH)
	file := v.labelOf(args.FH)
	if known {
		v.meta.wrote(args.Offset, uint64(len(args.Data))) // whichever way the bytes go from here
	}

	// Writes to a file resident in the file cache stay local; the
	// file-based channel uploads them at flush time.
	if p.cfg.FileCache != nil && v.full != "" && p.cfg.FileCache.Has(v.full) {
		writer, err := p.keep(c)
		if err != nil {
			return nil, sunrpc.SystemErr
		}
		if err := p.cfg.FileCache.WriteAt(v.full, args.Offset, args.Data); err != nil {
			return nil, sunrpc.SystemErr
		}
		p.stats.writesAbsorbed.Add(1)
		p.acct.recordWrite(file, p.clientLabel(c), len(args.Data))
		tr.Span(obs.LayerFileCache, "absorb", start)
		return p.absorbedWriteReply(c, &args, start, writer), sunrpc.Success
	}

	if p.cfg.BlockCache == nil || p.cfg.WritePolicy != cache.WriteBack {
		return p.writeThrough(c, &args, file, tr)
	}

	bs := uint64(p.cfg.BlockCache.BlockSize())
	if args.Offset%bs != 0 {
		// Unaligned: push dirty state upstream first, then forward.
		if err := p.cfg.BlockCache.WriteBackFile(args.FH); err != nil {
			return nil, sunrpc.SystemErr
		}
		return p.writeThrough(c, &args, file, tr)
	}

	// An aligned WRITE is absorbed block by block: a client's page is one
	// block, the flush of a caching proxy below this one is a run of
	// them (cascaded caches, paper §3.2.1). Only the last block can be
	// short, and only a short block can need bytes the proxy does not
	// hold, so it is settled before anything is absorbed and the
	// write-through fallback stays all or nothing. The bytes a short block
	// lacks are read, and the blocks later written back, as the writer.
	writer, err := p.keep(c)
	if err != nil {
		return nil, sunrpc.SystemErr
	}
	data := args.Data
	first := args.Offset / bs
	last := first
	if n := uint64(len(data)); n > bs {
		last += (n - 1) / bs
	}
	tail, err := p.mergeBlock(args.FH, &v, last, bs, data[(last-first)*bs:], writer)
	if err != nil {
		return p.writeThrough(c, &args, file, tr)
	}
	client := p.clientLabel(c)
	for b := first; b <= last; b++ {
		rest := data[(b-first)*bs:]
		written := min(len(rest), int(bs))
		piece := rest[:written]
		if b == last {
			piece = tail // merged with what the block already held
		}
		if err := p.cfg.BlockCache.Put(args.FH, b, piece, true); err != nil {
			return nil, sunrpc.SystemErr
		}
		if p.cfg.Cachean != nil {
			p.cfg.Cachean.DemandData(client, args.FH, b, written, true)
		}
		p.acct.blockDirtied(file, b, written)
	}
	p.stats.writesAbsorbed.Add(1)
	p.acct.recordWrite(file, client, len(data))
	tr.Span(obs.LayerBlockCache, "absorb", start)
	return p.absorbedWriteReply(c, &args, start, writer), sunrpc.Success
}

// mergeBlock combines newly written data (always at the block's start,
// since callers check alignment) with any existing block content so the
// cached frame remains a faithful prefix of the block.
func (p *Proxy) mergeBlock(fh nfs3.FH, v *fileView, block, bs uint64, data []byte, writer backend.Cred) ([]byte, error) {
	if uint64(len(data)) == bs {
		return data, nil
	}
	if existing, ok := p.cfg.BlockCache.Get(fh, block); ok {
		if len(existing) <= len(data) {
			return data, nil
		}
		merged := make([]byte, len(existing))
		copy(merged, existing)
		copy(merged, data)
		return merged, nil
	}
	blockStart := block * bs
	if v.hasSize && v.attr.Size <= blockStart+uint64(len(data)) {
		// Writing the current tail of the file: the partial block is
		// the whole block content.
		return data, nil
	}
	// The block has bytes beyond the write that we don't hold, or may
	// have (a handle kept across a Flush has no size in the table):
	// read-modify-write through the backend. Failures come back
	// classified (backend.Error), so the caller's fallback treats
	// every backend identically.
	r, err := p.beRead(fh, blockStart, uint32(bs), backend.CallOpts{Cred: writer}, nil, false)
	if err != nil {
		return nil, err
	}
	defer r.Release()
	if r.Attr.Known() {
		*v = p.attrs.sawSize(fh, r.Attr.Size, false)
	}
	if len(r.Data) <= len(data) {
		return data, nil
	}
	merged := make([]byte, len(r.Data))
	copy(merged, r.Data)
	copy(merged, data)
	return merged, nil
}

// absorbedWriteReply records a WRITE by writer the caches now hold in
// the attribute table (dirty data wins: size, used bytes and times move
// forward) and fabricates its reply. The proxy reports FILE_SYNC: under
// the session consistency model the proxy is the authority for this data
// until the middleware flushes it. The reply is encoded into a pooled
// buffer released by the RPC server (ReplyBuf).
func (p *Proxy) absorbedWriteReply(c *sunrpc.Call, args *nfs3.WriteArgs, now time.Time, writer backend.Cred) []byte {
	v := p.attrs.wrote(args.FH, args.Offset+uint64(len(args.Data)),
		nfs3.Time{Sec: uint32(now.Unix()), Nsec: uint32(now.Nanosecond())}, writer)
	res := nfs3.WriteRes{
		Status:    nfs3.OK,
		Count:     uint32(len(args.Data)),
		Committed: nfs3.FileSync,
		Verf:      nfs3.WriteVerf,
	}
	res.Wcc.After = v.post()
	c.ReplyBuf = res.AppendTo(bufpool.Get(nfs3.WriteResSize)[:0])
	return c.ReplyBuf
}

// writeThrough pushes a write upstream synchronously, under the
// client's credential, and keeps the block cache coherent. The backend
// contract is FILE_SYNC stability, so that is what the client is told
// regardless of what it asked for, with the backend's pre-operation
// attributes.
func (p *Proxy) writeThrough(c *sunrpc.Call, args *nfs3.WriteArgs, file string, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	p.stats.writesForwarded.Add(1)
	if p.cfg.Cachean != nil && p.cfg.BlockCache != nil {
		bs := uint64(p.cfg.BlockCache.BlockSize())
		p.cfg.Cachean.DemandData(p.clientLabel(c), args.FH, args.Offset/bs, len(args.Data), true)
	}
	p.acct.recordWrite(file, p.clientLabel(c), len(args.Data))
	opts, err := p.callOpts(c, tr)
	var w backend.WriteResult
	if err == nil {
		w, err = p.beWrite(args.FH, args.Offset, args.Data, opts, tr, true)
	}
	if err != nil {
		if st, ok := nfs3be.ErrStatus(err); ok {
			return (&nfs3.WriteRes{Status: st, Verf: nfs3.WriteVerf}).Encode(), sunrpc.Success
		}
		return nil, sunrpc.SystemErr
	}
	size := args.Offset + uint64(len(args.Data))
	if w.After.Known() {
		size = w.After.Size
	}
	v := p.attrs.sawSize(args.FH, size, false)
	if err := p.coherentAfterWrite(args); err != nil {
		return nil, sunrpc.SystemErr
	}
	var before nfs3.WccAttr
	var after nfs3.Fattr
	res := nfs3.WriteRes{Status: nfs3.OK, Wcc: nfs3.WccData{After: p.replyAttr(&v, w.After, &after)},
		Count: uint32(len(args.Data)), Committed: nfs3.FileSync, Verf: nfs3.WriteVerf}
	if w.HasBefore {
		before = nfs3be.WccAttrOf(w.Before)
		res.Wcc.Before = &before
	}
	c.ReplyBuf = res.AppendTo(bufpool.Get(nfs3.WriteResSize)[:0])
	return c.ReplyBuf, sunrpc.Success
}

// coherentAfterWrite reconciles the block cache with a write that was
// just made durable upstream, block by block over everything the write
// overlaps: a multi-block WRITE (a lower proxy's flush) must not leave
// the blocks after its first one stale.
func (p *Proxy) coherentAfterWrite(args *nfs3.WriteArgs) error {
	bc := p.cfg.BlockCache
	if bc == nil {
		return nil
	}
	bs := uint64(bc.BlockSize())
	// Shared read-only caches hold golden (immutable) data; a write
	// through this proxy only drops the stale frames.
	readOnly := bc.Config().ReadOnly
	end := args.Offset + uint64(len(args.Data))
	for b := args.Offset / bs; b*bs < end; b++ {
		lo, hi := b*bs, (b+1)*bs
		var err error
		if !readOnly && lo >= args.Offset && hi <= end {
			// A frame still dirty from an earlier absorbed write takes
			// the newer bytes and stays dirty; a clean insert would
			// stand aside for it.
			err = bc.Overwrite(args.FH, b, args.Data[lo-args.Offset:hi-args.Offset])
		} else {
			// Partial overlap: drop any stale frame.
			err = bc.InvalidateBlock(args.FH, b)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// --- meta-data machinery ---

// metaFor returns the file's meta-data state, looking the meta-data up
// on first use, for c's READ and as its client — in the table first,
// which has it (or knows it is not there) once the file's directory is
// listed. A file whose place in the name space the table does not know
// (yet) has none, and is asked again on its next READ.
func (p *Proxy) metaFor(v *fileView, c *sunrpc.Call) *metaState {
	ms := v.meta
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.checked || v.dir == "" {
		return ms
	}
	ms.checked = true
	if meta.IsMetaName(v.name) {
		return ms
	}
	opts, err := p.callOpts(c, nil)
	if err != nil {
		return ms
	}
	opts.Deadline = time.Time{} // the meta-data is the file's, not this READ's
	dir, name := nfs3.FH(v.dir), meta.NameFor(v.name)
	obj, mv, known := p.attrs.child(dir, name)
	size := mv.attr.Size
	if !known {
		var attr backend.Attr
		if obj, attr, err = p.beLookup(dir, name, opts); err != nil {
			return ms
		}
		size = attr.Size
	}
	if len(obj) == 0 {
		return ms
	}
	if size == 0 {
		size = 1 << 20
	}
	blob, err := p.readAllUpstream(obj, size, opts)
	if err != nil {
		return ms
	}
	m, err := meta.Decode(blob)
	if err != nil {
		return ms
	}
	ms.m = m
	ms.unzero(ms.wroteLo, ms.wroteHi)
	return ms
}

// readAllUpstream fetches an entire (small) file block by block
// through the backend.
func (p *Proxy) readAllUpstream(fh nfs3.FH, sizeHint uint64, opts backend.CallOpts) ([]byte, error) {
	const chunk = 8192
	out := make([]byte, 0, sizeHint)
	var off uint64
	for {
		r, err := p.beRead(fh, off, chunk, opts, nil, false)
		if err != nil {
			return nil, err
		}
		out = append(out, r.Data...)
		r.Release() // only r.Data's length is looked at below
		off += uint64(len(r.Data))
		if r.EOF || len(r.Data) == 0 {
			return out, nil
		}
		if off > 64<<20 {
			return nil, fmt.Errorf("proxy: meta-data file unreasonably large")
		}
	}
}

// ensureFetched runs the file-based data channel once per file:
// compress on the server, remote copy, uncompress into the file cache.
func (p *Proxy) ensureFetched(fh nfs3.FH, v *fileView, ms *metaState) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.fetched && p.cfg.FileCache.Has(v.full) { // a RENAME drops the copy and moves the path
		return nil
	}
	if v.full == "" {
		return fmt.Errorf("proxy: no path known for %s", fh)
	}
	if sz, ok := p.cfg.FileCache.Size(v.full); ok {
		// A previous session (or clone) already pulled this file.
		ms.fetched = true
		*v = p.attrs.sawSize(fh, sz, true)
		return nil
	}
	conn, err := p.cfg.FileChanDial()
	if err != nil {
		return err
	}
	defer conn.Close()
	// The reply is gunzipped into the file cache as it arrives; the entry
	// appears only once its size and gzip trailer check out.
	size, err := p.cfg.FileCache.Fill(v.full, func(w io.Writer) error {
		_, err := filechan.FetchTo(conn, v.full, ms.m.WantsCompression(), w)
		return err
	})
	if err != nil {
		return err
	}
	*v = p.attrs.sawSize(fh, size, true)
	p.stats.fileChanFetch.Add(1)
	ms.fetched = true
	return nil
}

// --- middleware-driven consistency (paper §3.2.1) ---

// WriteBack propagates all dirty state upstream while keeping it
// cached. The gvfsproxy daemon binds this to SIGUSR1.
func (p *Proxy) WriteBack() error {
	return p.writeBackReason(TriggerWriteBack)
}

// writeBackReason is WriteBack with the audit-log trigger reason
// attributed to whichever path asked (middleware signal, idle-session
// writer, post-recovery replay).
func (p *Proxy) writeBackReason(reason string) error {
	p.acct.flushTriggered(reason)
	seq := p.attrs.absorbed.Load()
	if p.cfg.BlockCache != nil {
		if err := p.cfg.BlockCache.WriteBackAll(); err != nil {
			return err
		}
	}
	if err := p.flushFileCache(); err != nil {
		return err
	}
	p.attrs.settled(seq)
	return nil
}

// Flush propagates all dirty state and invalidates every cache — blocks,
// whole files, attributes and names — ending the session's ownership of
// the data. The gvfsproxy daemon binds this
// to SIGUSR2.
func (p *Proxy) Flush() error {
	p.acct.flushTriggered(TriggerFlush)
	if p.cfg.BlockCache != nil {
		if err := p.cfg.BlockCache.Flush(); err != nil {
			return err
		}
	}
	if err := p.flushFileCache(); err != nil {
		return err
	}
	if p.cfg.FileCache != nil {
		p.cfg.FileCache.InvalidateAll()
	}
	p.attrs.reset()
	return nil
}

func (p *Proxy) flushFileCache() error {
	if p.cfg.FileCache == nil || p.cfg.FileChanDial == nil {
		return nil
	}
	return p.cfg.FileCache.Flush(p.putFile)
}

// evictFileCache sends what the file cache holds at or under path back to
// the origin, where it was written, and drops it: a RENAME is about to
// move the path.
func (p *Proxy) evictFileCache(path string) error {
	if path == "" || p.cfg.FileCache == nil || p.cfg.FileChanDial == nil {
		return nil
	}
	return p.cfg.FileCache.Evict(path, p.putFile)
}

// putFile streams one whole file upstream through the file channel.
func (p *Proxy) putFile(path string, r io.Reader, size uint64) error {
	conn, err := p.cfg.FileChanDial()
	if err != nil {
		return err
	}
	defer conn.Close()
	return filechan.PutFrom(conn, path, r, size, true)
}
