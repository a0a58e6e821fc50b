package proxy

// Backend plumbing for the data path. The proxy's READ/WRITE handling,
// write-back, read-ahead and meta-data machinery speak the
// internal/backend interface exclusively, the cache-less relay's (the
// gvfsd identity-mapping role) included; the NFSv3 wire client lives
// behind it in internal/backend/nfs3be. Every call carries the
// credential of the client it is made for (callOpts): a client's own
// calls and the calls they set off (RMW, read-ahead, meta-data) its own,
// a write-back the credential of the last WRITE its file absorbed
// (fileInfo.writer).

import (
	"bytes"
	"errors"
	"sync"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/sunrpc"
)

// callOpts is what c's own upstream calls carry: its deadline, with tr
// its trace, and its credential, mapped when the proxy maps identities
// (Config.Mapper) — whose body may alias c's request record (keep).
func (p *Proxy) callOpts(c *sunrpc.Call, tr *obs.Active) (opts backend.CallOpts, err error) {
	opts = backend.CallOpts{Deadline: c.Deadline, Cred: backend.Cred(c.Cred)}
	if tr != nil {
		opts.TraceID, opts.Hop = tr.ID(), tr.Hop()+1
	}
	if p.cfg.Mapper != nil {
		var out sunrpc.OpaqueAuth
		out, _, err = p.cfg.Mapper.Rewrite(c.Cred)
		opts.Cred = backend.Cred(out)
	}
	return opts, err
}

// keep is c's upstream credential with a body the proxy may hold past
// the call — a dirty file's writer, a run ahead's reader: interned, so a
// credential kept again costs a map hit, not a copy.
func (p *Proxy) keep(c *sunrpc.Call) (backend.Cred, error) {
	opts, err := p.callOpts(c, nil)
	cred := opts.Cred
	cred.Body = p.bodies.get(cred.Body, func() []byte { return bytes.Clone(cred.Body) })
	return cred, err
}

// internMax bounds an intern table; a burst of distinct credentials
// (identity churn) resets it rather than growing it for ever.
const internMax = 1024

// intern is a bounded table of values derived from credential bodies,
// keyed by the body's bytes: a lookup allocates nothing, and one that
// hits costs a read-locked map access.
type intern[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// get returns body's value, made by mk on a miss.
func (t *intern[V]) get(body []byte, mk func() V) V {
	t.mu.RLock()
	v, ok := t.m[string(body)]
	t.mu.RUnlock()
	if ok {
		return v
	}
	v = mk()
	t.mu.Lock()
	if t.m == nil || len(t.m) >= internMax {
		t.m = make(map[string]V)
	}
	t.m[string(body)] = v
	t.mu.Unlock()
	return v
}

// upcall runs one upstream call under the breaker protocol — fast-fail
// while the breaker is open, count, span, observe — whichever way it
// leaves: relayed (forward, listDir) or through the backend. demand marks
// a call made for a client (relayed, or its own READ or WRITE), which
// counts toward the forwarded counter (the fast-fail path does not); the
// proxy's own calls (write-back, RMW, read-ahead, meta-data) do not.
func (p *Proxy) upcall(tr *obs.Active, demand bool, call func() error) error {
	if p.Degraded() {
		p.stats.breakerFastFails.Add(1)
		return errUpstreamDown
	}
	if demand {
		p.stats.forwarded.Add(1)
	}
	upStart := time.Now()
	err := call()
	tr.Span(obs.LayerUpstream, callOutcome(err), upStart)
	p.observeUpstream(err)
	return err
}

// beRead is a backend read under upcall's protocol.
func (p *Proxy) beRead(fh nfs3.FH, off uint64, count uint32, opts backend.CallOpts, tr *obs.Active, demand bool) (r backend.ReadResult, err error) {
	err = p.upcall(tr, demand, func() (err error) {
		r, err = p.cfg.Backend.Read(backend.FileID(fh), off, count, opts)
		return err
	})
	return r, err
}

// beWrite is a durable backend write under upcall's protocol.
func (p *Proxy) beWrite(fh nfs3.FH, off uint64, data []byte, opts backend.CallOpts, tr *obs.Active, demand bool) (w backend.WriteResult, err error) {
	err = p.upcall(tr, demand, func() (err error) {
		w, err = p.cfg.Backend.Write(backend.FileID(fh), off, data, opts)
		// Before the caller marks anything clean: from here on a READ that
		// left earlier may hold bytes older than upstream's (a WRITE that
		// failed may have been applied all the same).
		p.attrs.wroteUpstream(fh)
		return err
	})
	return w, err
}

// errNoNamespace marks a backend without namespace support.
var errNoNamespace = errors.New("proxy: backend has no namespace support")

// beLookup resolves dir/name through the backend's namespace.
func (p *Proxy) beLookup(dir nfs3.FH, name string, opts backend.CallOpts) (fh nfs3.FH, attr backend.Attr, err error) {
	lk, ok := p.cfg.Backend.(backend.Lookuper)
	if !ok {
		return nil, backend.Attr{}, errNoNamespace
	}
	gen := p.attrs.generation(dir, name)
	err = p.upcall(nil, false, func() (err error) {
		var fid backend.FileID
		fid, attr, err = lk.Lookup(backend.FileID(dir), name, opts)
		fh = nfs3.FH(fid)
		return err
	})
	// The proxy's own lookups (meta-data files) feed the table like a
	// client's: the name, the size, or that the name is not there.
	if err == nil {
		p.attrs.learn(fh, dir, name, nil, false, gen)
		p.attrs.sawSize(fh, attr.Size)
	} else if backend.Classify(err) == backend.ClassNotFound {
		p.attrs.negative(dir, name, gen)
	}
	return fh, attr, err
}

// replyAttr is the post-op attribute of a reply to a READ or WRITE that
// went upstream: the table's when the proxy answers for the file's
// attributes and has its whole fattr3 (dirty data wins), else a, the
// backend's — the origin's own, at a relay — put in buf.
func (p *Proxy) replyAttr(v *fileView, a backend.Attr, buf *nfs3.Fattr) *nfs3.Fattr {
	if at := v.post(); at != nil && p.answersLocally() {
		return at
	}
	if !a.Known() {
		return nil
	}
	*buf = nfs3be.FattrOf(a)
	return buf
}

// readUpstream answers c's READ with one upstream read of fetch bytes at
// its offset, under c's credential: a READ that bypasses the block cache
// — none configured, or one readUncached sent here — or a block cache
// miss, whose install caches what came back before the READ is answered.
// The answer is the read, released once the reply is encoded: the cache
// frames and the reply are its copies. A failure with an NFS status is
// that status's answer, and a stale handle is evidence against whatever
// the table holds for it.
func (p *Proxy) readUpstream(c *sunrpc.Call, args *nfs3.ReadArgs, v *fileView, tr *obs.Active, fetch uint32, outcome string, install func(backend.ReadResult) error) readAnswer {
	opts, err := p.callOpts(c, tr)
	var r backend.ReadResult
	if err == nil {
		r, err = p.beRead(args.FH, args.Offset, fetch, opts, tr, true)
	}
	if err != nil {
		st, ok := nfs3be.ErrStatus(err)
		if !ok {
			return readSystemErr
		}
		if st == nfs3.ErrStale {
			p.attrs.forget(args.FH)
		}
		return readAnswer{outcome: "error", status: st}
	}
	if r.Attr.Known() {
		*v = p.attrs.sawSize(args.FH, r.Attr.Size)
	}
	if install != nil {
		if err := install(r); err != nil {
			return readSystemErr // r is left to the GC
		}
	}
	return readAnswer{data: r.Data, eof: r.EOF, r: r, outcome: outcome}
}
