package nfs3

import (
	"sync/atomic"

	"gvfs/internal/bufpool"
	"gvfs/internal/sunrpc"
	"gvfs/internal/xdr"
)

// WriteVerf is this server instance's write/commit verifier. NFSv3 uses
// it to let clients detect server reboots; a process-constant value is
// sufficient here.
var WriteVerf = [8]byte{'g', 'v', 'f', 's', 'n', 'f', 's', '3'}

// ServerStats counts RPCs processed by a Server, one counter per
// procedure. Counters are updated atomically and may be read while the
// server is running.
type ServerStats struct {
	Calls [22]atomic.Uint64
}

// Total returns the total number of calls across all procedures.
func (s *ServerStats) Total() uint64 {
	var t uint64
	for i := range s.Calls {
		t += s.Calls[i].Load()
	}
	return t
}

// Server dispatches NFSv3 RPC calls to a Backend. It implements
// sunrpc.Handler; register it with a sunrpc.Server under
// (nfs3.Program, nfs3.Version).
type Server struct {
	backend Backend
	stats   ServerStats
}

// NewServer returns a Server exporting backend.
func NewServer(backend Backend) *Server { return &Server{backend: backend} }

// Stats exposes the server's RPC counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// HandleCall implements sunrpc.Handler.
func (s *Server) HandleCall(c *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
	if c.Proc < uint32(len(s.stats.Calls)) {
		s.stats.Calls[c.Proc].Add(1)
	}
	switch c.Proc {
	case ProcNull:
		return nil, sunrpc.Success
	case ProcGetattr:
		return s.getattr(c.Args)
	case ProcSetattr:
		return s.setattr(c.Args)
	case ProcLookup:
		return s.lookup(c.Args)
	case ProcAccess:
		return s.access(c.Args)
	case ProcReadlink:
		return s.readlink(c.Args)
	case ProcRead:
		return s.read(c)
	case ProcWrite:
		return s.write(c)
	case ProcCreate:
		return s.create(c.Args)
	case ProcMkdir:
		return s.mkdir(c.Args)
	case ProcSymlink:
		return s.symlink(c.Args)
	case ProcRemove:
		return s.remove(c.Args)
	case ProcRmdir:
		return s.rmdir(c.Args)
	case ProcRename:
		return s.rename(c.Args)
	case ProcReaddir:
		return s.readdir(c.Args)
	case ProcReaddirplus:
		return s.readdirplus(c.Args)
	case ProcFSStat:
		return s.fsstat(c.Args)
	case ProcFSInfo:
		return s.fsinfo(c.Args)
	case ProcPathconf:
		return s.pathconf(c.Args)
	case ProcCommit:
		return s.commit(c.Args)
	case ProcMknod, ProcLink:
		// Device nodes and hard links are not needed for VM state;
		// answer NFS3ERR_NOTSUPP as period servers did, rather than
		// rejecting at the RPC layer.
		return s.notSupported(c.Proc, c.Args)
	}
	return nil, sunrpc.ProcUnavail
}

// notSupported encodes the proper NOTSUPP reply shape for MKNOD (new
// object reply) and LINK (post_op_attr + wcc_data).
func (s *Server) notSupported(proc uint32, args []byte) ([]byte, sunrpc.AcceptStat) {
	b := reply(ErrNotSupp)
	switch proc {
	case ProcMknod:
		// MKNOD3resfail: wcc_data on the directory.
		(&WccData{}).Append(&b)
	case ProcLink:
		// LINK3resfail: post_op_attr + wcc_data.
		AppendPostOpAttr(&b, nil)
		(&WccData{}).Append(&b)
	}
	return b.B, sunrpc.Success
}

// reply starts a result body of status st.
func reply(st Status) xdr.Builder {
	b := xdr.NewBuilder()
	b.Uint32(uint32(st))
	return b
}

// attrOf fetches attributes, returning nil on failure (post_op_attr is
// optional on the wire).
func (s *Server) attrOf(fh FH) *Fattr {
	a, err := s.backend.GetAttr(fh)
	if err != nil {
		return nil
	}
	return &a
}

// preOf captures pre-operation attributes for wcc_data, letting
// clients validate their caches across modifying operations.
func (s *Server) preOf(fh FH) *WccAttr {
	a, err := s.backend.GetAttr(fh)
	if err != nil {
		return nil
	}
	return &WccAttr{Size: a.Size, Mtime: a.Mtime, Ctime: a.Ctime}
}

func (s *Server) getattr(args []byte) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeGetattrArgs(args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	attr, berr := s.backend.GetAttr(a.FH)
	res := GetattrRes{Status: StatusOf(berr), Attr: attr}
	return res.Encode(), sunrpc.Success
}

func (s *Server) setattr(args []byte) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeSetattrArgs(args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	before := s.preOf(a.FH)
	attr, berr := s.backend.SetAttr(a.FH, a.Attr)
	b := reply(StatusOf(berr))
	wcc := WccData{Before: before}
	if berr == nil {
		wcc.After = &attr
	} else {
		wcc.After = s.attrOf(a.FH)
	}
	wcc.Append(&b)
	return b.B, sunrpc.Success
}

func (s *Server) lookup(args []byte) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeLookupArgs(args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	fh, attr, berr := s.backend.Lookup(a.Dir, a.Name)
	res := LookupRes{Status: StatusOf(berr), DirAttr: s.attrOf(a.Dir)}
	if berr == nil {
		res.Object = fh
		res.ObjAttr = &attr
	}
	return res.Encode(), sunrpc.Success
}

func (s *Server) access(args []byte) ([]byte, sunrpc.AcceptStat) {
	var d xdr.Decoder
	d.ResetBytes(args)
	fh := DecodeFH(&d)
	want := d.Uint32()
	if d.Err() != nil {
		return nil, sunrpc.GarbageArgs
	}
	attr, berr := s.backend.GetAttr(fh)
	b := reply(StatusOf(berr))
	if berr != nil {
		AppendPostOpAttr(&b, nil)
		return b.B, sunrpc.Success
	}
	AppendPostOpAttr(&b, &attr)
	// Access control is enforced by the GVFS proxy layer (identity
	// mapping); the end server grants whatever was requested.
	b.Uint32(want)
	return b.B, sunrpc.Success
}

func (s *Server) readlink(args []byte) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeGetattrArgs(args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	target, berr := s.backend.ReadLink(a.FH)
	res := ReadlinkRes{Status: StatusOf(berr), Attr: s.attrOf(a.FH), Target: target}
	return res.Encode(), sunrpc.Success
}

// read encodes an OK reply, payload included, into a pooled buffer of
// the right size that the RPC server releases (Call.ReplyBuf).
func (s *Server) read(c *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeReadArgs(c.Args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	data, eof, berr := s.backend.Read(a.FH, a.Offset, a.Count)
	res := ReadRes{Status: StatusOf(berr), Attr: s.attrOf(a.FH)}
	if berr != nil {
		return res.Encode(), sunrpc.Success
	}
	res.Count = uint32(len(data))
	res.EOF = eof
	res.Data = data
	c.ReplyBuf = res.AppendTo(bufpool.Get(ReadResSize(len(data)))[:0])
	return c.ReplyBuf, sunrpc.Success
}

// write hands the backend the payload where it lies in the request
// record (see Backend.Write) and, like read, encodes an OK reply into a
// pooled buffer the RPC server releases.
func (s *Server) write(c *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
	var a WriteArgs
	if err := a.DecodeRefInto(c.Args); err != nil {
		return nil, sunrpc.GarbageArgs
	}
	if uint32(len(a.Data)) > a.Count {
		a.Data = a.Data[:a.Count]
	}
	before := s.preOf(a.FH)
	attr, berr := s.backend.Write(a.FH, a.Offset, a.Data)
	res := WriteRes{Status: StatusOf(berr), Verf: WriteVerf}
	res.Wcc.Before = before
	if berr != nil {
		res.Wcc.After = s.attrOf(a.FH)
		return res.Encode(), sunrpc.Success
	}
	res.Wcc.After = &attr
	res.Count = uint32(len(a.Data))
	res.Committed = FileSync
	c.ReplyBuf = res.AppendTo(bufpool.Get(WriteResSize)[:0])
	return c.ReplyBuf, sunrpc.Success
}

func (s *Server) create(args []byte) ([]byte, sunrpc.AcceptStat) {
	var d xdr.Decoder
	d.ResetBytes(args)
	dir := DecodeFH(&d)
	name := d.String()
	mode := d.Uint32()
	var attr SetAttr
	guarded := false
	switch mode {
	case CreateUnchecked:
		attr = DecodeSetAttr(&d)
	case CreateGuarded:
		attr = DecodeSetAttr(&d)
		guarded = true
	case CreateExclusive:
		var verf [8]byte
		d.FixedOpaque(verf[:])
		guarded = true
	default:
		return nil, sunrpc.GarbageArgs
	}
	if d.Err() != nil {
		return nil, sunrpc.GarbageArgs
	}
	before := s.preOf(dir)
	fh, fattr, berr := s.backend.Create(dir, name, attr, guarded)
	return s.newObjectReply(StatusOf(berr), fh, fattr, berr == nil, dir, before), sunrpc.Success
}

func (s *Server) mkdir(args []byte) ([]byte, sunrpc.AcceptStat) {
	var d xdr.Decoder
	d.ResetBytes(args)
	dir := DecodeFH(&d)
	name := d.String()
	attr := DecodeSetAttr(&d)
	if d.Err() != nil {
		return nil, sunrpc.GarbageArgs
	}
	before := s.preOf(dir)
	fh, fattr, berr := s.backend.Mkdir(dir, name, attr)
	return s.newObjectReply(StatusOf(berr), fh, fattr, berr == nil, dir, before), sunrpc.Success
}

func (s *Server) symlink(args []byte) ([]byte, sunrpc.AcceptStat) {
	var d xdr.Decoder
	d.ResetBytes(args)
	dir := DecodeFH(&d)
	name := d.String()
	_ = DecodeSetAttr(&d) // symlink attributes: accepted, ignored
	target := d.String()
	if d.Err() != nil {
		return nil, sunrpc.GarbageArgs
	}
	before := s.preOf(dir)
	fh, fattr, berr := s.backend.Symlink(dir, name, target)
	return s.newObjectReply(StatusOf(berr), fh, fattr, berr == nil, dir, before), sunrpc.Success
}

// newObjectReply encodes the common CREATE/MKDIR/SYMLINK result shape.
func (s *Server) newObjectReply(st Status, fh FH, attr Fattr, ok bool, dir FH, before *WccAttr) []byte {
	b := reply(st)
	if ok {
		AppendPostOpFH(&b, fh)
		AppendPostOpAttr(&b, &attr)
	}
	wcc := WccData{Before: before, After: s.attrOf(dir)}
	wcc.Append(&b)
	return b.B
}

func (s *Server) remove(args []byte) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeLookupArgs(args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	before := s.preOf(a.Dir)
	berr := s.backend.Remove(a.Dir, a.Name)
	return s.wccReply(StatusOf(berr), a.Dir, before), sunrpc.Success
}

func (s *Server) rmdir(args []byte) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeLookupArgs(args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	before := s.preOf(a.Dir)
	berr := s.backend.Rmdir(a.Dir, a.Name)
	return s.wccReply(StatusOf(berr), a.Dir, before), sunrpc.Success
}

func (s *Server) wccReply(st Status, dir FH, before *WccAttr) []byte {
	b := reply(st)
	wcc := WccData{Before: before, After: s.attrOf(dir)}
	wcc.Append(&b)
	return b.B
}

func (s *Server) rename(args []byte) ([]byte, sunrpc.AcceptStat) {
	var d xdr.Decoder
	d.ResetBytes(args)
	fromDir := DecodeFH(&d)
	fromName := d.String()
	toDir := DecodeFH(&d)
	toName := d.String()
	if d.Err() != nil {
		return nil, sunrpc.GarbageArgs
	}
	fromBefore := s.preOf(fromDir)
	toBefore := s.preOf(toDir)
	berr := s.backend.Rename(fromDir, fromName, toDir, toName)
	b := reply(StatusOf(berr))
	(&WccData{Before: fromBefore, After: s.attrOf(fromDir)}).Append(&b)
	(&WccData{Before: toBefore, After: s.attrOf(toDir)}).Append(&b)
	return b.B, sunrpc.Success
}

func (s *Server) readdir(args []byte) ([]byte, sunrpc.AcceptStat) {
	var d xdr.Decoder
	d.ResetBytes(args)
	dir := DecodeFH(&d)
	cookie := d.Uint64()
	var verf [8]byte
	d.FixedOpaque(verf[:])
	count := d.Uint32()
	if d.Err() != nil {
		return nil, sunrpc.GarbageArgs
	}
	entries, eof, berr := s.backend.ReadDir(dir, cookie, count)
	b := reply(StatusOf(berr))
	AppendPostOpAttr(&b, s.attrOf(dir))
	if berr != nil {
		return b.B, sunrpc.Success
	}
	b.FixedOpaque(verf[:]) // cookieverf echoed back
	for _, ent := range entries {
		b.Bool(true)
		b.Uint64(ent.FileID)
		b.String(ent.Name)
		b.Uint64(ent.Cookie)
	}
	b.Bool(false)
	b.Bool(eof)
	return b.B, sunrpc.Success
}

func (s *Server) readdirplus(args []byte) ([]byte, sunrpc.AcceptStat) {
	var d xdr.Decoder
	d.ResetBytes(args)
	dir := DecodeFH(&d)
	cookie := d.Uint64()
	var verf [8]byte
	d.FixedOpaque(verf[:])
	dircount := d.Uint32()
	maxcount := d.Uint32()
	_ = dircount
	if d.Err() != nil {
		return nil, sunrpc.GarbageArgs
	}
	entries, eof, berr := s.backend.ReadDir(dir, cookie, maxcount)
	b := reply(StatusOf(berr))
	AppendPostOpAttr(&b, s.attrOf(dir))
	if berr != nil {
		return b.B, sunrpc.Success
	}
	b.FixedOpaque(verf[:])
	for _, ent := range entries {
		b.Bool(true)
		b.Uint64(ent.FileID)
		b.String(ent.Name)
		b.Uint64(ent.Cookie)
		attr := ent.Attr
		handle := ent.Handle
		if handle == nil {
			if fh, fa, err := s.backend.Lookup(dir, ent.Name); err == nil {
				handle, attr = fh, &fa
			}
		}
		AppendPostOpAttr(&b, attr)
		AppendPostOpFH(&b, handle)
	}
	b.Bool(false)
	b.Bool(eof)
	return b.B, sunrpc.Success
}

func (s *Server) fsstat(args []byte) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeGetattrArgs(args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	st, berr := s.backend.FSStat(a.FH)
	b := reply(StatusOf(berr))
	AppendPostOpAttr(&b, s.attrOf(a.FH))
	if berr == nil {
		b.Uint64(st.TotalBytes)
		b.Uint64(st.FreeBytes)
		b.Uint64(st.AvailBytes)
		b.Uint64(st.TotalFiles)
		b.Uint64(st.FreeFiles)
		b.Uint64(st.AvailFiles)
		b.Uint32(st.Invarsec)
	}
	return b.B, sunrpc.Success
}

func (s *Server) fsinfo(args []byte) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeGetattrArgs(args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	info := DefaultFSInfo()
	b := reply(OK)
	AppendPostOpAttr(&b, s.attrOf(a.FH))
	b.Uint32(info.RtMax)
	b.Uint32(info.RtPref)
	b.Uint32(info.RtMult)
	b.Uint32(info.WtMax)
	b.Uint32(info.WtPref)
	b.Uint32(info.WtMult)
	b.Uint32(info.DtPref)
	b.Uint64(info.MaxFileSize)
	b.Uint32(info.TimeDelta.Sec)
	b.Uint32(info.TimeDelta.Nsec)
	b.Uint32(info.Properties)
	return b.B, sunrpc.Success
}

func (s *Server) pathconf(args []byte) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeGetattrArgs(args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	b := reply(OK)
	AppendPostOpAttr(&b, s.attrOf(a.FH))
	b.Uint32(255) // linkmax
	b.Uint32(255) // name_max
	b.Bool(true)  // no_trunc
	b.Bool(false) // chown_restricted
	b.Bool(true)  // case_insensitive = false? (true means preserves case)
	b.Bool(true)  // case_preserving
	return b.B, sunrpc.Success
}

func (s *Server) commit(args []byte) ([]byte, sunrpc.AcceptStat) {
	a, err := DecodeCommitArgs(args)
	if err != nil {
		return nil, sunrpc.GarbageArgs
	}
	berr := s.backend.Commit(a.FH)
	b := reply(StatusOf(berr))
	wcc := WccData{After: s.attrOf(a.FH)}
	wcc.Append(&b)
	if berr == nil {
		b.FixedOpaque(WriteVerf[:])
	}
	return b.B, sunrpc.Success
}
