// Package mountd implements the MOUNT version 3 protocol (RFC 1813
// appendix I) used to obtain the root file handle of an NFS export.
// Real NFS deployments run mountd beside nfsd; GVFS sessions start with
// exactly this exchange before NFS traffic begins flowing through the
// proxy chain. A MOUNT status (mountstat3) has the number of the NFS
// status of the same name, so it is spelled as an nfs3.Status.
package mountd

import (
	"sync"

	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
	"gvfs/internal/xdr"
)

// MOUNT v3 procedures.
const (
	ProcNull   = 0
	ProcMnt    = 1
	ProcDump   = 2
	ProcUmnt   = 3
	ProcExport = 5
)

// Server answers MOUNT requests for a set of named exports.
type Server struct {
	mu      sync.RWMutex
	exports map[string]nfs3.FH

	// Resolve, when set, answers for a dirpath that is no named export
	// (a namespace in which every directory can be mounted). Its error
	// picks the MOUNT status the way nfs3.StatusOf picks an NFS status.
	Resolve func(dirpath string) (nfs3.FH, error)
}

// NewServer returns a Server with no exports.
func NewServer() *Server { return &Server{exports: make(map[string]nfs3.FH)} }

// Export registers dirpath as an export rooted at fh.
func (s *Server) Export(dirpath string, fh nfs3.FH) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exports[dirpath] = fh
}

// HandleCall implements sunrpc.Handler.
func (s *Server) HandleCall(c *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
	switch c.Proc {
	case ProcNull:
		return nil, sunrpc.Success
	case ProcMnt:
		var d xdr.Decoder
		d.ResetBytes(c.Args)
		dirpath := d.String()
		if d.Err() != nil {
			return nil, sunrpc.GarbageArgs
		}
		s.mu.RLock()
		fh, ok := s.exports[dirpath]
		s.mu.RUnlock()
		status := nfs3.ErrNoEnt
		if !ok && s.Resolve != nil {
			var err error
			fh, err = s.Resolve(dirpath)
			ok, status = err == nil, nfs3.StatusOf(err)
		}
		b := xdr.NewBuilder()
		if !ok {
			b.Uint32(uint32(status))
			return b.B, sunrpc.Success
		}
		b.Uint32(uint32(nfs3.OK))
		b.Opaque(fh)
		b.Uint32(1) // one auth flavor follows
		b.Uint32(sunrpc.AuthUnix)
		return b.B, sunrpc.Success
	case ProcUmnt, ProcDump:
		return nil, sunrpc.Success
	case ProcExport:
		s.mu.RLock()
		defer s.mu.RUnlock()
		var b xdr.Builder
		for dirpath := range s.exports {
			b.Bool(true)
			b.String(dirpath)
			b.Bool(false) // no group list
		}
		b.Bool(false)
		return b.B, sunrpc.Success
	}
	return nil, sunrpc.ProcUnavail
}

// Mount asks the MOUNT service reachable through rpc for the root
// handle of dirpath.
func Mount(rpc nfs3.Caller, cred sunrpc.OpaqueAuth, dirpath string) (nfs3.FH, error) {
	var args xdr.Builder
	args.String(dirpath)
	res, err := rpc.Call(nfs3.MountProgram, nfs3.MountVersion, ProcMnt, cred, args.B)
	if err != nil {
		return nil, err
	}
	var d xdr.Decoder
	d.ResetBytes(res)
	if status := nfs3.Status(d.Uint32()); status != nfs3.OK {
		return nil, &nfs3.Error{Status: status, Op: "mount " + dirpath}
	}
	fh := nfs3.DecodeFH(&d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return fh, nil
}
