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

// readAnswer is what one source hands back for a READ — the zero map, the
// dedup zero hash or an alias, the block cache (a hit or a join, of a
// file fetched through the file channel or not), or the upstream (a miss
// or a forwarded READ). handleRead encodes, spans and accounts it,
// whichever source it came from.
type readAnswer struct {
	data []byte             // the bytes from the READ's offset on
	eof  bool               // the source's word on whether they end the file
	buf  []byte             // the pooled buffer data aliases, released after the encode
	r    backend.ReadResult // the upstream read data aliases, released after the encode
	// outcome labels gvfs_proxy_read_duration_seconds and the accounting;
	// "error" is a failed READ, answered with status, or without a reply
	// when stat says so.
	outcome string
	status  nfs3.Status
	stat    sunrpc.AcceptStat
	// The answer's trace span, when layer is set. An upstream answer has
	// the upstream_rpc span upcall records.
	layer, span string
	since       time.Time
	// The bytes the READ is accounted for, when spanCount is set: the span
	// between the zero edges that the block path was asked for.
	spanOff   uint64
	spanCount uint32
}

// readSystemErr is the answer to a READ that failed without an NFS status.
var readSystemErr = readAnswer{outcome: "error", stat: sunrpc.SystemErr}

// servedLocally reports whether a READ with this outcome was answered by
// the proxy's caches or maps. A local answer ends where the table says
// the file does and carries the table's attributes; an upstream answer
// carries the upstream's EOF and attributes (replyAttr).
func servedLocally(outcome string) bool {
	return outcome == "block_hit" || outcome == "file_cache" || outcome == "zero_filter"
}

// accountRead feeds one finished READ into the per-outcome latency
// histogram, the degraded-read counter, the per-file / per-client
// accounting tables, and the cache-analytics demand feed (tenant identity
// + block touched). Reads answered locally while degraded are attributed
// to the file and client that issued them, so /statusz shows who was
// served from cache during an outage.
func (p *Proxy) accountRead(c *sunrpc.Call, v *fileView, args *nfs3.ReadArgs, outcome string, start time.Time) {
	p.stats.observeRead(outcome, start)
	degraded := servedLocally(outcome) && p.Degraded()
	if degraded {
		p.stats.degradedReads.Add(1)
	}
	// The aggregate counters above always record; the per-file /
	// per-client table detail is optional work brownout sheds.
	if p.brownout() {
		return
	}
	client := p.clientLabel(c)
	if p.cfg.Cachean != nil && p.cfg.BlockCache != nil && outcome != "error" {
		bs := uint64(p.cfg.BlockCache.BlockSize())
		p.cfg.Cachean.DemandData(client, args.FH, args.Offset/bs, int(args.Count), false)
	}
	p.acct.recordRead(v.labelOf(args.FH), client, outcome, args.Count, degraded)
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
	a := p.readSource(c, &args, v, known, tr, start)
	if a.layer != "" {
		tr.Span(a.layer, a.span, a.since)
	}
	// The client gets the count bytes it asked for and is told of the end
	// of the file only when it lies inside them. The reply is encoded into
	// a pooled buffer released by the RPC server (ReplyBuf), and with that
	// copy made the answer's buffers are released.
	var res []byte
	if a.outcome != "error" {
		data, eof := a.data, a.eof
		if len(data) > int(args.Count) {
			data, eof = data[:args.Count], false
		}
		var upstream nfs3.Fattr
		attr := v.post()
		if !servedLocally(a.outcome) {
			attr = p.replyAttr(v, a.r.Attr, &upstream)
		} else if size := v.attr.Size; v.hasSize {
			data = data[:min(uint64(len(data)), size-min(size, args.Offset))]
			eof = args.Offset+uint64(len(data)) >= size
		}
		r := nfs3.ReadRes{Status: nfs3.OK, Attr: attr, Count: uint32(len(data)), EOF: eof, Data: data}
		c.ReplyBuf = r.AppendTo(bufpool.Get(nfs3.ReadResSize(len(data)))[:0])
		res = c.ReplyBuf
	} else if a.stat == sunrpc.Success {
		res = (&nfs3.ReadRes{Status: a.status}).Encode()
	}
	bufpool.Put(a.buf)
	a.r.Release()
	acct := args
	if a.spanCount != 0 {
		acct.Offset, acct.Count = a.spanOff, a.spanCount
	}
	p.accountRead(c, v, &acct, a.outcome, start)
	return res, a.stat
}

// readSource picks the one source that answers a READ and has it answer.
// Meta-data handling (paper §3.2.2) comes first: the file's meta-data is
// consulted on first access and acted on.
func (p *Proxy) readSource(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, known bool, tr *obs.Active, start time.Time) readAnswer {
	var lead, trail uint32
	var end uint64 // where the file ends, to the zero map
	if known {
		if ms := p.metaFor(v, c); ms.m != nil {
			if ms.m.WantsFileChannel() && p.cfg.BlockCache != nil && p.cfg.FileChanDial != nil {
				p.ensureFetched(args.FH, v, ms) // a fetch that fails installs nothing: upstream answers
			}
			if ms.m.HasZeroMap() {
				// The end the map was made for, or a later one the table knows.
				end = ms.m.FileSize
				if v.hasSize {
					end = max(end, v.attr.Size)
				}
				var whole bool
				if lead, trail, whole = p.zeroEdges(ms, args, end); whole {
					return p.readZeros(args, end, start)
				}
			}
		}
	}
	if p.cfg.BlockCache == nil {
		return p.readUpstream(c, args, v, tr, args.Count, "forwarded", nil)
	}
	if lead+trail > 0 {
		return p.readBetweenZeros(c, args, v, tr, lead, trail, end)
	}
	return p.readBlocks(c, args, v, tr)
}

// zeroEdges is the zero filter's look at a READ through the file's map:
// the blocks it calls zero — which the session has not written since
// (metaState.wrote) — and whatever lies past end, where the file ends.
// whole reports that the map answers all of the READ. Else, for a READ of
// several whole cache blocks (when the map's blocks are the cache's),
// lead and trail are how many bytes at its head and tail the map answers,
// so that only the span from the first non-zero block to the last is
// asked of the cache and, on a miss, of the upstream.
func (p *Proxy) zeroEdges(ms *metaState, args *nfs3.ReadArgs, end uint64) (lead, trail uint32, whole bool) {
	if args.Count == 0 {
		return 0, 0, false
	}
	if args.Offset >= end {
		return 0, 0, true
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m := ms.m
	bs, count := uint64(m.BlockSize), uint64(args.Count)
	// Blocks [first, last) hold what the READ asks for short of end; what
	// it asks for past them lies past end, and is not looked at.
	first := args.Offset / bs
	last := (args.Offset+min(count, end-args.Offset)-1)/bs + 1
	lo, hi := first, last
	for lo < hi && m.IsZeroBlock(lo) {
		lo++
	}
	if lo == hi {
		return 0, 0, true
	}
	if bc := p.cfg.BlockCache; bc == nil || uint64(bc.BlockSize()) != bs ||
		args.Offset%bs != 0 || count%bs != 0 || count <= bs || count > nfs3.MaxTransfer {
		return 0, 0, false
	}
	for hi > lo && m.IsZeroBlock(hi-1) {
		hi--
	}
	return uint32((lo - first) * bs), uint32(count - (hi-first)*bs), false
}

// readZeros answers a READ the zero map answers whole — the paper's zero
// filtering for memory-state files — with zeros up to end, the file's.
func (p *Proxy) readZeros(args *nfs3.ReadArgs, end uint64, start time.Time) readAnswer {
	p.stats.zeroFiltered.Add(1)
	n := min(uint64(args.Count), end-min(end, args.Offset))
	a := readAnswer{eof: args.Offset+n >= end, outcome: "zero_filter", layer: obs.LayerZeroFilter, span: "hit", since: start}
	a.buf = bufpool.Get(int(n))
	a.data = a.buf
	clear(a.data)
	return a
}

// readBetweenZeros answers a READ whose first lead and last trail bytes
// the zero map answers, where the file ends at end (past the READ's
// offset): the block path serves the span between, from the cache or in
// one upstream READ, and the answer is that span with the map's zeros
// around it. The blocks cut are never fetched, so a fetch never brings
// them into the cache. gvfs_proxy_zero_filtered_total does not count the
// READ — it counts READs answered wholly from the map — and the READ is
// accounted as the block path's, with the span's bytes.
func (p *Proxy) readBetweenZeros(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, tr *obs.Active, lead, trail uint32, end uint64) readAnswer {
	span := *args
	span.Offset += uint64(lead)
	span.Count -= lead + trail
	a := p.readBlocks(c, &span, v, tr)
	a.spanOff, a.spanCount = span.Offset, span.Count
	if a.outcome == "error" {
		return a
	}
	got := a.data[:min(len(a.data), int(span.Count))]
	n := uint64(lead) + uint64(len(got))
	a.eof = a.eof && len(got) == len(a.data)
	if len(got) == int(span.Count) { // the span came whole: the map knows what follows it
		n = max(n, min(uint64(args.Count), end-args.Offset))
		a.eof = n >= end-args.Offset
	}
	buf := bufpool.Get(int(n))
	clear(buf[:lead])
	copy(buf[lead:], got)
	clear(buf[int(lead)+len(got):])
	bufpool.Put(a.buf)
	a.data, a.buf = buf, buf
	return a
}

// readBlocks answers a READ from the block cache, or through it.
func (p *Proxy) readBlocks(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, tr *obs.Active) readAnswer {
	bs := uint64(p.cfg.BlockCache.BlockSize())
	// What the cache answers starts on a block boundary and asks for part
	// of one block or for whole blocks up to one transfer: a client's
	// page, or the miss run of a caching proxy below this one (cascaded
	// caches, paper §3.2.1).
	count := uint64(args.Count)
	k := max(count/bs, 1)
	whole := count == k*bs // else part of one block: answered, never cached
	if args.Offset%bs != 0 || count > nfs3.MaxTransfer || (count > bs && count%bs != 0) {
		return p.readUncached(c, args, v, tr)
	}
	first := args.Offset / bs
	lookup := time.Now()
	if a, ok := p.serveBlockHit(c, args, v, first, k, "hit", lookup); ok {
		return a
	}
	// A run ahead that covers this block may be in flight: join it rather
	// than duplicating the WAN transfer.
	if p.ra != nil && p.ra.waitFor(args.FH, first/(nfs3.MaxTransfer/bs)) {
		if a, ok := p.serveBlockHit(c, args, v, first, k, "join", lookup); ok {
			return a
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
				if a, ok := p.serveByHash(c, args, v, first, h, n, lookup); ok {
					return a
				}
			}
		}
	}
	// Several blocks, not all resident, one of them an absorbed write:
	// upstream cannot answer for the range until it has the write.
	if k > 1 {
		for b := first; b < first+k; b++ {
			if _, dirty := p.cfg.BlockCache.Peek(args.FH, b); dirty {
				return p.readUncached(c, args, v, tr)
			}
		}
	}
	// Brownout: hits above kept being served, but a miss means WAN work
	// the overloaded proxy cannot afford — defer it with a retriable
	// error so the queues drain.
	if p.brownout() {
		p.stats.brownoutShed.Add(1)
		return readAnswer{outcome: "error", status: nfs3.ErrJukebox}
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
	return p.readUpstream(c, args, v, tr, fetch, "block_miss", func(r backend.ReadResult) error {
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
func (p *Proxy) readUncached(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, tr *obs.Active) readAnswer {
	if err := p.cfg.BlockCache.WriteBackFile(args.FH); err != nil {
		return readSystemErr
	}
	return p.readUpstream(c, args, v, tr, args.Count, "forwarded", nil)
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
		if i >= demanded && p.keepAhead(fh, first+i, seq) {
			p.stats.prefetched.Add(1) // the bonus blocks that stay
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
// to this: its client raced the WRITE itself. It reports whether the
// block stayed.
func (p *Proxy) keepAhead(fh nfs3.FH, block, seq uint64) bool {
	if p.attrs.writeSeq(fh) != seq {
		p.cfg.BlockCache.InvalidateBlock(fh, block)
		return false
	}
	return true
}

// serveByHash tries to satisfy a missed block read by content: a known
// zero block is answered with zeros, and content already cached under
// another file's identity is served through a dedup alias. Both avoid
// the upstream transfer entirely.
func (p *Proxy) serveByHash(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, block uint64, h backend.Hash, n uint32, lookup time.Time) (readAnswer, bool) {
	bs := p.cfg.BlockCache.BlockSize()
	if backend.IsZeroHash(h, int(n)) {
		p.stats.zeroFiltered.Add(1)
		a := readAnswer{eof: int(n) < bs, outcome: "zero_filter", layer: obs.LayerZeroFilter, span: "hit", since: lookup}
		a.buf = bufpool.Get(int(n))
		a.data = a.buf
		clear(a.data)
		return a, true
	}
	a := readAnswer{outcome: "block_hit", layer: obs.LayerBlockCache, span: "dedup_hit", since: lookup}
	buf := bufpool.Get(bs)
	data, ok := p.cfg.BlockCache.GetByHash(args.FH, block, h, buf)
	if !ok {
		bufpool.Put(buf)
		return a, false
	}
	p.stats.readHits.Add(1)
	p.maybePrefetch(c, args.FH, v, block, block+1)
	a.data, a.eof, a.buf = append(buf[:0], data...), len(data) < bs, buf // in place, but for the journal's copy of a torn frame
	return a, true
}

// serveBlockHit serves a READ of k blocks from the block cache when all
// of them are present (clean or dirty: session data wins), read into a
// pooled buffer and never copied again before the encode. A short frame
// ends the answer. The boolean reports whether the blocks were cached.
// A file fetched through the file channel is read locally (paper §3.2.2):
// its hits are the file cache's, the blocks its zero map vouches for were
// never installed and are zeros, and it needs no read-ahead.
func (p *Proxy) serveBlockHit(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, first, k uint64, span string, lookup time.Time) (readAnswer, bool) {
	bs := p.cfg.BlockCache.BlockSize()
	fetched := v.meta != nil && v.meta.fetched.Load()
	a := readAnswer{outcome: "block_hit", layer: obs.LayerBlockCache, span: span, since: lookup}
	if fetched {
		a.outcome, a.layer = "file_cache", obs.LayerFileCache
	}
	buf := bufpool.Get(int(k) * bs)
	data := buf[:0]
	for b := first; b < first+k; b++ {
		n := len(data)
		blk, ok := p.cfg.BlockCache.GetInto(args.FH, b, buf[n:n+bs])
		if !ok && fetched && v.meta.vouches(b, uint64(bs)) {
			blk, ok = buf[n:n+bs], true
			clear(blk)
		}
		if !ok {
			bufpool.Put(buf)
			return a, false
		}
		data = append(data, blk...) // in place, but for the journal's copy of a torn frame
		if len(blk) < bs {
			break
		}
	}
	if fetched {
		p.stats.fileChanReads.Add(1)
	} else {
		p.stats.readHits.Add(1)
		p.maybePrefetch(c, args.FH, v, first, first+k)
	}
	a.data, a.eof, a.buf = data, len(data) < int(k)*bs, buf
	return a, true
}

func (p *Proxy) handleWrite(c *sunrpc.Call, tr *obs.Active) ([]byte, sunrpc.AcceptStat) {
	// Zero-copy parse: args.Data aliases the transport's pooled request
	// record, which stays valid until this handler returns. Every sink
	// below (bank write, journal append, upstream marshal)
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
		*v = p.attrs.sawSize(fh, r.Attr.Size)
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
	v := p.attrs.sawSize(args.FH, size)
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

// ensureFetched runs the file-based data channel once per file: compress
// on the server, remote copy, uncompress into the block cache, cut into
// blocks as the reply arrives. Each block the zero map does not vouch for
// (the map stops vouching for one the transfer shows is not zeros) is
// installed clean by installRun's rule: never over a dirty frame, and kept
// only under keepAhead's. A fetch that fails drops the clean frames it
// reached: no byte of a broken transfer is served.
func (p *Proxy) ensureFetched(fh nfs3.FH, v *fileView, ms *metaState) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.fetched.Load() {
		return nil
	}
	if v.full == "" {
		return fmt.Errorf("proxy: no path known for %s", fh)
	}
	conn, err := p.cfg.FileChanDial()
	if err != nil {
		return err
	}
	defer conn.Close()
	bc := p.cfg.BlockCache
	bs := uint64(bc.BlockSize())
	seq := p.attrs.writeSeq(fh)
	buf := bufpool.Get(int(bs))
	defer bufpool.Put(buf)
	w := blockWriter{buf: buf[:0:bs], install: func(b uint64, data []byte) (err error) {
		if uint64(ms.m.BlockSize) != bs || !ms.m.ConfirmZero(b, data) {
			if err = bc.PutDedup(fh, b, data, false); err == nil {
				p.keepAhead(fh, b, seq)
			}
		}
		return err
	}}
	size, err := filechan.FetchTo(conn, v.full, ms.m.WantsCompression(), &w)
	if err == nil {
		err = w.flush() // the short last block
	}
	if err != nil {
		for b := range w.block {
			if _, dirty := bc.Peek(fh, b); !dirty {
				bc.InvalidateBlock(fh, b)
			}
		}
		return err
	}
	*v = p.attrs.sawSize(fh, size)
	p.stats.fileChanFetch.Add(1)
	ms.fetched.Store(true)
	return nil
}

// blockWriter cuts a byte stream into blocks of cap(buf) bytes and hands
// each one, numbered from 0, to install as it completes.
type blockWriter struct {
	buf     []byte
	block   uint64 // the number of the block buf is filling
	install func(block uint64, data []byte) error
}

func (w *blockWriter) Write(p []byte) (n int, err error) {
	for len(p) > 0 && err == nil {
		k := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf, p, n = w.buf[:len(w.buf)+k], p[k:], n+k
		if len(w.buf) == cap(w.buf) {
			err = w.flush()
		}
	}
	return n, err
}

// flush installs what buf holds, if anything, as the next block.
func (w *blockWriter) flush() (err error) {
	if len(w.buf) > 0 {
		err = w.install(w.block, w.buf)
		w.block, w.buf = w.block+1, w.buf[:0]
	}
	return err
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
		p.putFetched()
		if err := p.cfg.BlockCache.WriteBackAll(); err != nil {
			return err
		}
	}
	p.attrs.settled(seq)
	return nil
}

// Flush propagates all dirty state and invalidates every cache — blocks,
// attributes and names — ending the session's ownership of the data. The
// gvfsproxy daemon binds this to SIGUSR2.
func (p *Proxy) Flush() error {
	p.acct.flushTriggered(TriggerFlush)
	if p.cfg.BlockCache != nil {
		p.putFetched()
		if err := p.cfg.BlockCache.Flush(); err != nil {
			return err
		}
	}
	p.attrs.reset()
	return nil
}

// putFetched sends each fetched file that has absorbed writes back the way
// it came (paper §3.2.2): one compressed file-channel transfer, read from
// the block cache and the zero map, settles its dirty blocks. A block
// written during the transfer, and those of a file the cache no longer
// holds whole or whose put fails, go back in runs: the write-back that
// follows sends every block still dirty.
func (p *Proxy) putFetched() {
	if p.cfg.FileChanDial == nil {
		return
	}
	bs := uint64(p.cfg.BlockCache.BlockSize())
	for _, fh := range p.attrs.fetchedDirty() {
		var v fileView
		size := func() uint64 { // read once no other write-back of the file can land
			if v, _ = p.attrs.get(fh); v.full == "" || !v.meta.fetched.Load() {
				return 0 // gone, fetched anew, or moved where the table has no path: not sent
			}
			return v.attr.Size
		}
		p.puts.RLock()
		cleaned, _ := p.cfg.BlockCache.WriteBackWhole(fh, size, func(b uint64) bool { return v.meta.vouches(b, bs) },
			func(r io.Reader) error {
				conn, err := p.cfg.FileChanDial()
				if err != nil {
					return err
				}
				defer conn.Close()
				defer p.attrs.wroteUpstream(fh) // before a block turns clean, as in beWrite
				return filechan.PutFrom(conn, v.full, r, v.attr.Size, true)
			})
		p.puts.RUnlock()
		for _, b := range cleaned {
			p.acct.writeCommitted(v.label, b, int(bs))
		}
	}
}
