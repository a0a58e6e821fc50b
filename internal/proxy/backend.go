package proxy

// Backend plumbing for the data path. The proxy's READ/WRITE handling,
// write-back, read-ahead and meta-data machinery speak the
// internal/backend interface exclusively; the NFSv3 wire client lives
// behind it in internal/backend/nfs3be. The one deliberate exception
// is the cache-less relay (no block cache, real RPC upstream — the
// gvfsd identity-mapping role), which keeps raw call forwarding so
// each client's own credentials ride every data call.

import (
	"errors"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/bufpool"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/sunrpc"
)

// useBackendIO reports whether READ/WRITE data-path calls go through
// the backend interface (caching proxy, or no RPC upstream at all).
func (p *Proxy) useBackendIO() bool {
	return p.cfg.BlockCache != nil || p.cfg.Upstream == nil
}

// beOpts builds backend call options from a live trace span and the
// call's remaining deadline budget.
func beOpts(tr *obs.Active, deadline time.Time) backend.CallOpts {
	opts := backend.CallOpts{Deadline: deadline}
	if tr != nil {
		opts.TraceID, opts.Hop = tr.ID(), tr.Hop()+1
	}
	return opts
}

// beRead issues a backend read with breaker fast-fail and health
// observation. demand marks a client's own READ, which counts toward
// the forwarded counter exactly like a relayed call (the fast-fail path
// does not); the proxy's own reads (write-back RMW, read-ahead,
// meta-data) do not.
func (p *Proxy) beRead(fh nfs3.FH, off uint64, count uint32, tr *obs.Active, deadline time.Time, demand bool) (backend.ReadResult, error) {
	if p.Degraded() {
		p.stats.breakerFastFails.Add(1)
		return backend.ReadResult{}, errUpstreamDown
	}
	if demand {
		p.stats.forwarded.Add(1)
	}
	upStart := time.Now()
	r, err := p.cfg.Backend.Read(backend.FileID(fh), off, count, beOpts(tr, deadline))
	tr.Span(obs.LayerUpstream, callOutcome(err), upStart)
	p.observeUpstream(err)
	return r, err
}

// beWrite issues a durable backend write under the same protocol as
// beRead: demand is a client's write-through WRITE, counted as
// forwarded and attributed to the call's trace and deadline; write-back
// passes neither.
func (p *Proxy) beWrite(fh nfs3.FH, off uint64, data []byte, tr *obs.Active, deadline time.Time, demand bool) (*backend.Attr, error) {
	if p.Degraded() {
		p.stats.breakerFastFails.Add(1)
		return nil, errUpstreamDown
	}
	if demand {
		p.stats.forwarded.Add(1)
	}
	upStart := time.Now()
	attr, err := p.cfg.Backend.Write(backend.FileID(fh), off, data, beOpts(tr, deadline))
	// Before the caller marks anything clean: from here on a READ that
	// left earlier may hold bytes older than upstream's (a WRITE that
	// failed may have been applied all the same).
	p.attrs.wroteUpstream(fh)
	tr.Span(obs.LayerUpstream, callOutcome(err), upStart)
	p.observeUpstream(err)
	return attr, err
}

// errNoNamespace marks a backend without namespace support.
var errNoNamespace = errors.New("proxy: backend has no namespace support")

// beLookup resolves dir/name through the backend's namespace.
func (p *Proxy) beLookup(dir nfs3.FH, name string) (nfs3.FH, backend.Attr, error) {
	lk, ok := p.cfg.Backend.(backend.Lookuper)
	if !ok {
		return nil, backend.Attr{}, errNoNamespace
	}
	if p.Degraded() {
		p.stats.breakerFastFails.Add(1)
		return nil, backend.Attr{}, errUpstreamDown
	}
	gen := p.attrs.generation(dir, name)
	fid, attr, err := lk.Lookup(backend.FileID(dir), name, backend.CallOpts{})
	p.observeUpstream(err)
	// The proxy's own lookups (meta-data files) feed the table like a
	// client's: the name, the size, or that the name is not there.
	if err == nil {
		p.attrs.learn(nfs3.FH(fid), dir, name, nil, false, gen)
		p.attrs.sawSize(nfs3.FH(fid), attr.Size, fromReply)
	} else if backend.Classify(err) == backend.ClassNotFound {
		p.attrs.negative(dir, name, gen)
	}
	return nfs3.FH(fid), attr, err
}

// backendReadError encodes a failed backend read as the NFS reply. A
// stale handle is evidence against whatever the table holds for it.
func (p *Proxy) backendReadError(fh nfs3.FH, err error) ([]byte, sunrpc.AcceptStat) {
	if st, ok := nfs3be.ErrStatus(err); ok {
		if st == nfs3.ErrStale {
			p.attrs.forget(fh)
		}
		res := nfs3.ReadRes{Status: st}
		return res.Encode(), sunrpc.Success
	}
	return nil, sunrpc.SystemErr
}

// backendWriteError encodes a failed backend write as the NFS reply.
func backendWriteError(err error) ([]byte, sunrpc.AcceptStat) {
	if st, ok := nfs3be.ErrStatus(err); ok {
		res := nfs3.WriteRes{Status: st, Verf: nfs3.WriteVerf}
		return res.Encode(), sunrpc.Success
	}
	return nil, sunrpc.SystemErr
}

// readResultReply encodes a successful backend read as the NFS READ
// reply, into a pooled buffer released by the RPC server (ReplyBuf),
// and with that copy made releases r. The client gets the count bytes it
// asked for — a miss run brings more — and is told of the end of the
// file only when it lies inside them. The post-op attribute is the
// table's when it has the file's whole fattr3, else what the backend's
// three fields make.
func (p *Proxy) readResultReply(c *sunrpc.Call, r backend.ReadResult, count uint32, v *fileView) ([]byte, sunrpc.AcceptStat) {
	data, eof := r.Data, r.EOF
	if len(data) > int(count) {
		data, eof = data[:count], false
	}
	res := nfs3.ReadRes{
		Status: nfs3.OK,
		Count:  uint32(len(data)),
		EOF:    eof,
		Data:   data,
		Attr:   v.post(),
	}
	if res.Attr == nil {
		res.Attr = nfs3be.FattrOf(r.Attr)
	}
	c.ReplyBuf = res.AppendTo(bufpool.Get(nfs3.ReadResSize(len(data)))[:0])
	r.Release()
	return c.ReplyBuf, sunrpc.Success
}

// backendWriteReply encodes a successful durable backend write. The
// backend contract is FILE_SYNC stability, so that is what the client
// is told regardless of what it asked for.
func (p *Proxy) backendWriteReply(c *sunrpc.Call, args *nfs3.WriteArgs, attr *backend.Attr, v *fileView) []byte {
	res := nfs3.WriteRes{
		Status:    nfs3.OK,
		Count:     uint32(len(args.Data)),
		Committed: nfs3.FileSync,
		Verf:      nfs3.WriteVerf,
	}
	if res.Wcc.After = v.post(); res.Wcc.After == nil {
		res.Wcc.After = nfs3be.FattrOf(attr)
	}
	c.ReplyBuf = res.AppendTo(bufpool.Get(nfs3.WriteResSize)[:0])
	return c.ReplyBuf
}

// readThrough satisfies a READ that bypasses the block cache — none
// configured, or a request readUncached sent here.
func (p *Proxy) readThrough(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, tr *obs.Active, start time.Time) ([]byte, sunrpc.AcceptStat) {
	if !p.useBackendIO() {
		res, stat := p.forward(c, tr)
		p.accountRead(c, v, args.FH, args.Offset, "forwarded", args.Count, start)
		return res, stat
	}
	r, err := p.beRead(args.FH, args.Offset, args.Count, tr, c.Deadline, true)
	if err != nil {
		p.accountRead(c, v, args.FH, args.Offset, "error", args.Count, start)
		return p.backendReadError(args.FH, err)
	}
	if r.Attr != nil {
		*v = p.attrs.sawSize(args.FH, r.Attr.Size, fromReply)
	}
	res, stat := p.readResultReply(c, r, args.Count, v)
	p.accountRead(c, v, args.FH, args.Offset, "forwarded", args.Count, start)
	return res, stat
}
