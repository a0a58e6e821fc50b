package nfs3be

import (
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/bufpool"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

// Serve is New's inverse: it returns b as an in-process NFSv3 + MOUNT
// service, so whatever speaks NFS to an upstream (the proxy's
// control-plane relay) can speak it to any backend. Replies come from
// nfs3.Server and mountd.Server; procedures b cannot express answer
// NFS3ERR_NOTSUPP. A transport-class failure of b (ClassUnavailable,
// ClassTimeout, unclassified) has no NFS status a client could take as
// the file's state: Call returns that error itself, as a dead RPC
// transport would, and the caller's breaker classifies it as it does on
// the data path.
func Serve(b backend.Backend) nfs3.Caller { return local{b} }

type local struct{ b backend.Backend }

func (l local) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	res, rec, err := l.CallPooled(prog, vers, proc, cred, sunrpc.OpaqueAuth{}, args, time.Time{})
	return sunrpc.Keep(res, rec), err
}

// CallPooled implements sunrpc.PooledCaller, the relay's way in: the
// credential and the deadline reach b as CallOpts and the server's
// pooled reply comes back as rec, uncopied.
func (l local) CallPooled(prog, vers, proc uint32, cred, verf sunrpc.OpaqueAuth, args []byte, deadline time.Time) ([]byte, []byte, error) {
	v := &served{b: l.b, opts: backend.CallOpts{Deadline: deadline, Cred: backend.Cred(cred)}}
	res, rec, err := sunrpc.Local{H: v}.CallPooled(prog, vers, proc, cred, verf, args, deadline)
	if v.fault != nil {
		bufpool.Put(rec)
		return nil, nil, v.fault
	}
	return res, rec, err
}

// served adapts a backend.Backend (and what it implements of
// Namespacer) to nfs3.Backend for the length of one call, which is what
// lets it carry the call's options down and its fault back up.
type served struct {
	b     backend.Backend
	opts  backend.CallOpts
	fault error // the call's first transport-class backend failure
}

// HandleCall implements sunrpc.Handler for both programs.
func (v *served) HandleCall(c *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
	switch c.Prog {
	case nfs3.Program:
		return nfs3.NewServer(v).HandleCall(c)
	case nfs3.MountProgram:
		return (&mountd.Server{Resolve: v.root}).HandleCall(c)
	}
	return nil, sunrpc.ProgUnavail
}

var errNotSupp = &nfs3.Error{Status: nfs3.ErrNotSupp}

// err passes a backend error to the server, which answers with the
// status nfs3.StatusOf reads from it, and records it as the call's fault
// when it is transport-class, with no status to answer.
func (v *served) err(e error) error {
	if e == nil {
		return nil
	}
	if c := backend.Classify(e); (c == backend.ClassUnavailable || c == backend.ClassTimeout) && v.fault == nil {
		v.fault = e
	}
	return e
}

// root resolves a MOUNT dirpath: any path the backend's namespace
// knows is an export.
func (v *served) root(dirpath string) (nfs3.FH, error) {
	ns, ok := v.b.(backend.Namespacer)
	if !ok {
		return nil, &nfs3.Error{Status: nfs3.ErrAcces}
	}
	fid, _, err := ns.Root(dirpath)
	return nfs3.FH(fid), v.err(err)
}

func (v *served) Root() (nfs3.FH, error) { return v.root("/") }

func (v *served) GetAttr(fh nfs3.FH) (nfs3.Fattr, error) {
	a, err := v.b.GetAttr(backend.FileID(fh), v.opts)
	if err != nil {
		return nfs3.Fattr{}, v.err(err)
	}
	return FattrOf(a), nil
}

func (v *served) Lookup(dir nfs3.FH, name string) (nfs3.FH, nfs3.Fattr, error) {
	lk, ok := v.b.(backend.Lookuper)
	if !ok {
		return nil, nfs3.Fattr{}, errNotSupp
	}
	fid, a, err := lk.Lookup(backend.FileID(dir), name, v.opts)
	if err != nil {
		return nil, nfs3.Fattr{}, v.err(err)
	}
	return nfs3.FH(fid), FattrOf(a), nil
}

func (v *served) Read(fh nfs3.FH, off uint64, count uint32) ([]byte, bool, error) {
	r, err := v.b.Read(backend.FileID(fh), off, count, v.opts)
	return r.Data, r.EOF, v.err(err)
}

func (v *served) Write(fh nfs3.FH, off uint64, data []byte) (nfs3.Fattr, error) {
	w, err := v.b.Write(backend.FileID(fh), off, data, v.opts)
	if err != nil {
		return nfs3.Fattr{}, v.err(err)
	}
	if !w.After.Known() {
		return v.GetAttr(fh)
	}
	return FattrOf(w.After), nil
}

// Create makes an empty regular file; the backend contract has neither
// initial attributes nor a guarded mode.
func (v *served) Create(dir nfs3.FH, name string, _ nfs3.SetAttr, _ bool) (nfs3.FH, nfs3.Fattr, error) {
	ns, ok := v.b.(backend.Namespacer)
	if !ok {
		return nil, nfs3.Fattr{}, errNotSupp
	}
	fid, a, err := ns.Create(backend.FileID(dir), name, v.opts)
	if err != nil {
		return nil, nfs3.Fattr{}, v.err(err)
	}
	return nfs3.FH(fid), FattrOf(a), nil
}

func (v *served) Commit(fh nfs3.FH) error {
	return v.err(v.b.Commit(backend.FileID(fh), v.opts))
}

// What backend.Backend has no word for.
func (v *served) SetAttr(nfs3.FH, nfs3.SetAttr) (nfs3.Fattr, error) { return nfs3.Fattr{}, errNotSupp }
func (v *served) ReadLink(nfs3.FH) (string, error)                  { return "", errNotSupp }
func (v *served) Remove(nfs3.FH, string) error                      { return errNotSupp }
func (v *served) Rmdir(nfs3.FH, string) error                       { return errNotSupp }
func (v *served) Rename(nfs3.FH, string, nfs3.FH, string) error     { return errNotSupp }
func (v *served) FSStat(nfs3.FH) (nfs3.FSStatRes, error)            { return nfs3.FSStatRes{}, errNotSupp }
func (v *served) Mkdir(nfs3.FH, string, nfs3.SetAttr) (nfs3.FH, nfs3.Fattr, error) {
	return nil, nfs3.Fattr{}, errNotSupp
}
func (v *served) Symlink(nfs3.FH, string, string) (nfs3.FH, nfs3.Fattr, error) {
	return nil, nfs3.Fattr{}, errNotSupp
}
func (v *served) ReadDir(nfs3.FH, uint64, uint32) ([]nfs3.DirEntry, bool, error) {
	return nil, false, errNotSupp
}
