// Package nfs3be adapts the NFSv3-over-sunrpc client to the
// backend.Backend contract. It is the paper's original upstream — a
// (possibly WAN-distant) NFS server — moved behind the pluggable
// boundary: per-call deadline propagation, trace-context verifiers,
// transport retry counters and the error taxonomy the circuit breaker
// keys on are all preserved here, out of the proxy's data path.
package nfs3be

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/bufpool"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

// defaultCred authenticates a call whose options name no credential —
// the proxy's journal replay and breaker probe, replbe's scrub.
var defaultCred = sunrpc.UnixCred{MachineName: "gvfs-proxy", UID: 0, GID: 0}.Encode()

// Backend speaks NFSv3 to the next hop over an RPC transport.
type Backend struct {
	rpc nfs3.Caller
}

// New wraps an NFSv3 RPC transport. The caller keeps ownership of the
// transport's lifecycle (Close here does not close it).
func New(rpc nfs3.Caller) *Backend { return &Backend{rpc: rpc} }

// credOf is the credential a call with opts runs under.
func credOf(opts *backend.CallOpts) sunrpc.OpaqueAuth {
	if opts.Cred.IsZero() {
		return defaultCred
	}
	return sunrpc.OpaqueAuth(opts.Cred)
}

// remainingBudgetMs converts a call's deadline back into a verifier
// budget word for the next hop. Returns 0 (no budget) for a call with
// no deadline; an expired deadline yields the 1ms floor so the wire
// never carries "no deadline" for a call that has one.
func remainingBudgetMs(opts *backend.CallOpts) uint32 {
	rem, ok := opts.Remaining()
	if !ok {
		return 0
	}
	return uint32(min(max(rem/time.Millisecond, 1), 1<<31))
}

// verf builds the trace/budget verifier for opts.
func verf(opts *backend.CallOpts) sunrpc.OpaqueAuth {
	tc := sunrpc.TraceContext{BudgetMs: remainingBudgetMs(opts)}
	if opts.TraceID != 0 {
		tc.ID, tc.Hop = opts.TraceID, opts.Hop
	}
	return tc.EncodeVerf()
}

// Call issues one upstream RPC on rpc. It is the one upstream call path,
// where a failed call is classified: the backend's own calls and the
// proxy's verbatim relay all go through it. A
// call with neither trace nor deadline — every call of a default
// deployment — goes straight to the transport; one with either goes
// through CallPooled, and the reply is copied out of its pooled record
// (sunrpc.Keep), which goes back for the READ and WRITE callers.
func Call(rpc nfs3.Caller, prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte, opts backend.CallOpts) ([]byte, error) {
	if opts.TraceID == 0 && opts.Deadline.IsZero() {
		res, err := rpc.Call(prog, vers, proc, cred, args)
		return res, classify(prog, proc, err)
	}
	res, rec, err := CallPooled(rpc, prog, vers, proc, cred, args, opts)
	return sunrpc.Keep(res, rec), err
}

// CallPooled is Call with the reply lent, not given: res aliases rec,
// the caller's to bufpool.Put. A sunrpc.PooledCaller carries the trace
// context and/or remaining deadline budget upstream as the call's verifier
// (see sunrpc.TraceContext) and caps retransmission at the deadline; any
// other transport can carry neither, and answers through its plain Call
// with a nil rec.
func CallPooled(rpc nfs3.Caller, prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte, opts backend.CallOpts) (res, rec []byte, err error) {
	pc, ok := rpc.(sunrpc.PooledCaller)
	if !ok {
		res, err = rpc.Call(prog, vers, proc, cred, args)
		return res, nil, classify(prog, proc, err)
	}
	v := sunrpc.AuthNoneCred
	if opts.TraceID != 0 || !opts.Deadline.IsZero() {
		v = verf(&opts)
	}
	res, rec, err = pc.CallPooled(prog, vers, proc, cred, v, args, opts.Deadline)
	return res, rec, classify(prog, proc, err)
}

// call issues one NFS RPC under opts' credential.
func (b *Backend) call(proc uint32, args []byte, opts backend.CallOpts) ([]byte, error) {
	return Call(b.rpc, nfs3.Program, nfs3.Version, proc, credOf(&opts), args, opts)
}

// classify classifies a failed upstream call, kept as it is if classified
// (Serve's). An *sunrpc.RPCError is the server's answer, so the path is
// alive: ClassIO, the error kept in the chain for a relay to pass on. An
// expired deadline is ClassTimeout, any other failure ClassUnavailable.
func classify(prog, proc uint32, err error) error {
	if err == nil {
		return nil
	}
	var be *backend.Error
	if errors.As(err, &be) {
		return err
	}
	class := backend.ClassUnavailable
	var rpcErr *sunrpc.RPCError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		class = backend.ClassTimeout
	case errors.As(err, &rpcErr):
		class = backend.ClassIO
	}
	op := fmt.Sprintf("program %d procedure %d", prog, proc)
	if prog == nfs3.Program {
		op = strings.ToLower(nfs3.ProcName(proc))
	}
	return &backend.Error{Class: class, Op: op, Err: err}
}

// replyErr is what a reply to op that did not decode (err) or that says
// st is: NFS3ERR_IO, or st's failure; nil for a decoded NFS3_OK.
func replyErr(op string, st nfs3.Status, err error) error {
	switch {
	case err != nil:
		return nfs3.Fail(op, nfs3.ErrIO, err)
	case st != nfs3.OK:
		return nfs3.Fail(op, st, nil)
	}
	return nil
}

// attrOf is a post_op_attr as a backend.Attr: not Known when nil.
func attrOf(a *nfs3.Fattr) backend.Attr {
	if a == nil {
		return backend.Attr{}
	}
	return backend.Attr{Type: uint32(a.Type), Mode: a.Mode, Nlink: a.Nlink, UID: a.UID, GID: a.GID,
		Size: a.Size, Used: a.Used, RdevMajor: a.RdevMajor, RdevMinor: a.RdevMinor,
		FSID: a.FSID, FileID: a.FileID,
		Atime: backend.Time(a.Atime), Mtime: backend.Time(a.Mtime), Ctime: backend.Time(a.Ctime)}
}

// FattrOf is attrOf's inverse: a backend attribute as NFS's fattr3.
func FattrOf(a backend.Attr) nfs3.Fattr {
	return nfs3.Fattr{Type: nfs3.FileType(a.Type), Mode: a.Mode, Nlink: a.Nlink, UID: a.UID, GID: a.GID,
		Size: a.Size, Used: a.Used, RdevMajor: a.RdevMajor, RdevMinor: a.RdevMinor,
		FSID: a.FSID, FileID: a.FileID,
		Atime: nfs3.Time(a.Atime), Mtime: nfs3.Time(a.Mtime), Ctime: nfs3.Time(a.Ctime)}
}

// WccAttrOf is a backend's pre-operation attributes as NFS's wcc_attr.
func WccAttrOf(p backend.PreAttr) nfs3.WccAttr {
	return nfs3.WccAttr{Size: p.Size, Mtime: nfs3.Time(p.Mtime), Ctime: nfs3.Time(p.Ctime)}
}

// Read implements backend.Backend. The result aliases the pooled reply
// record until the caller releases it.
func (b *Backend) Read(f backend.FileID, off uint64, count uint32, opts backend.CallOpts) (backend.ReadResult, error) {
	args := nfs3.ReadArgs{FH: nfs3.FH(f), Offset: off, Count: count}
	buf := args.AppendTo(bufpool.Get(nfs3.FHSize + 16)[:0])
	res, rec, err := CallPooled(b.rpc, nfs3.Program, nfs3.Version, nfs3.ProcRead, credOf(&opts), buf, opts)
	bufpool.Put(buf)
	return readResult(res, rec, err)
}

// readResult decodes a READ reply lent as (res, rec) into a result that
// owns rec; on any failure rec goes back to the pool here.
func readResult(res, rec []byte, err error) (backend.ReadResult, error) {
	if err != nil {
		return backend.ReadResult{}, err
	}
	var r nfs3.ReadRes
	var attr nfs3.Fattr
	has, err := r.DecodeRefAttrInto(res, &attr)
	if err = replyErr("read", r.Status, err); err != nil {
		bufpool.Put(rec)
		return backend.ReadResult{}, err
	}
	out := backend.ReadResult{Data: r.Data, EOF: r.EOF, Buf: rec}
	if has {
		out.Attr = attrOf(&attr)
	}
	return out, nil
}

// Write implements backend.Backend with FILE_SYNC stability: the data
// is durable at the server when Write returns nil.
func (b *Backend) Write(f backend.FileID, off uint64, data []byte, opts backend.CallOpts) (backend.WriteResult, error) {
	args := nfs3.WriteArgs{FH: nfs3.FH(f), Offset: off, Count: uint32(len(data)), Stable: nfs3.FileSync, Data: data}
	buf := args.AppendTo(bufpool.Get(nfs3.WriteArgsSize(len(data)))[:0])
	res, err := b.call(nfs3.ProcWrite, buf, opts)
	bufpool.Put(buf)
	if err != nil {
		return backend.WriteResult{}, err
	}
	var r nfs3.WriteRes
	var before nfs3.WccAttr
	var after nfs3.Fattr
	hasBefore, hasAfter, err := r.DecodeWccInto(res, &before, &after)
	if err = replyErr("write", r.Status, err); err != nil {
		return backend.WriteResult{}, err
	}
	w := backend.WriteResult{HasBefore: hasBefore,
		Before: backend.PreAttr{Size: before.Size, Mtime: backend.Time(before.Mtime), Ctime: backend.Time(before.Ctime)}}
	if hasAfter {
		w.After = attrOf(&after)
	}
	return w, nil
}

// Commit implements backend.Backend.
func (b *Backend) Commit(f backend.FileID, opts backend.CallOpts) error {
	args := nfs3.CommitArgs{FH: nfs3.FH(f)}
	res, err := b.call(nfs3.ProcCommit, args.Encode(), opts)
	if err != nil {
		return err
	}
	st, err := nfs3.DecodeCommitRes(res)
	return replyErr("commit", st, err)
}

// GetAttr implements backend.Backend.
func (b *Backend) GetAttr(f backend.FileID, opts backend.CallOpts) (backend.Attr, error) {
	args := nfs3.GetattrArgs{FH: nfs3.FH(f)}
	res, err := b.call(nfs3.ProcGetattr, args.Encode(), opts)
	if err != nil {
		return backend.Attr{}, err
	}
	r, err := nfs3.DecodeGetattrRes(res)
	if err = replyErr("getattr", r.Status, err); err != nil {
		return backend.Attr{}, err
	}
	return attrOf(&r.Attr), nil
}

// Lookup implements backend.Lookuper (the meta-data machinery resolves
// .meta companions through it).
func (b *Backend) Lookup(dir backend.FileID, name string, opts backend.CallOpts) (backend.FileID, backend.Attr, error) {
	args := nfs3.LookupArgs{Dir: nfs3.FH(dir), Name: name}
	res, err := b.call(nfs3.ProcLookup, args.Encode(), opts)
	if err != nil {
		return nil, backend.Attr{}, err
	}
	r, err := nfs3.DecodeLookupRes(res)
	if err = replyErr("lookup", r.Status, err); err != nil {
		return nil, backend.Attr{}, err
	}
	return backend.FileID(r.Object), attrOf(r.ObjAttr), nil
}

// Probe implements the circuit breaker's recovery check: a NULL call
// that reaches the server at the RPC level means the path is back,
// even if the server rejects the program or credential (ClassIO).
func (b *Backend) Probe() error {
	_, err := b.call(nfs3.ProcNull, nil, backend.CallOpts{})
	if err != nil && backend.Classify(err) == backend.ClassIO {
		return nil
	}
	return err
}

// TransportStats implements backend.TransportStatser by passing
// through the RPC client's counters when it keeps them.
func (b *Backend) TransportStats() backend.TransportStats {
	if ts, ok := b.rpc.(interface{ TransportStats() sunrpc.TransportStats }); ok {
		t := ts.TransportStats()
		return backend.TransportStats{Retries: t.Retries, Reconnects: t.Reconnects, Timeouts: t.Timeouts}
	}
	return backend.TransportStats{}
}

// Caps implements backend.Backend.
func (b *Backend) Caps() backend.Caps { return backend.Caps{Name: "nfs3"} }

// Close implements backend.Backend. The RPC transport belongs to the
// caller, so there is nothing to release here.
func (b *Backend) Close() error { return nil }
