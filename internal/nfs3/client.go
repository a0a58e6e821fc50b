package nfs3

import (
	"fmt"
	"time"

	"gvfs/internal/bufpool"
	"gvfs/internal/sunrpc"
	"gvfs/internal/xdr"
)

// Caller abstracts the RPC transport under a Client. *sunrpc.Client
// satisfies it; tests can substitute an in-process transport.
type Caller interface {
	Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error)
}

// Client issues NFSv3 calls with a fixed credential over a Caller. It
// plays the role of the kernel NFS client in the paper's stack: the VM
// monitor's file accesses become Client calls, which flow through the
// GVFS proxy chain to the end server.
type Client struct {
	rpc  Caller
	cred sunrpc.OpaqueAuth
}

// NewClient wraps rpc with credential cred. A zero OpaqueAuth means
// AUTH_NONE.
func NewClient(rpc Caller, cred sunrpc.OpaqueAuth) *Client {
	return &Client{rpc: rpc, cred: cred}
}

// Cred returns the client's RPC credential.
func (c *Client) Cred() sunrpc.OpaqueAuth { return c.cred }

func (c *Client) call(proc uint32, args []byte) ([]byte, error) {
	return c.rpc.Call(Program, Version, proc, c.cred, args)
}

// statusErr converts a non-OK status into an *Error.
func statusErr(op string, st Status) error {
	if st == OK {
		return nil
	}
	return &Error{Status: st, Op: op}
}

// Null issues the NULL ping procedure.
func (c *Client) Null() error {
	_, err := c.call(ProcNull, nil)
	return err
}

// GetAttr fetches attributes for fh.
func (c *Client) GetAttr(fh FH) (Fattr, error) {
	res, err := c.call(ProcGetattr, (&GetattrArgs{FH: fh}).Encode())
	if err != nil {
		return Fattr{}, err
	}
	r, err := DecodeGetattrRes(res)
	if err != nil {
		return Fattr{}, err
	}
	return r.Attr, statusErr("getattr", r.Status)
}

// SetAttr applies attribute changes to fh.
func (c *Client) SetAttr(fh FH, attr SetAttr) (*Fattr, error) {
	res, err := c.call(ProcSetattr, (&SetattrArgs{FH: fh, Attr: attr}).Encode())
	if err != nil {
		return nil, err
	}
	var d xdr.Decoder
	d.ResetBytes(res)
	st := Status(d.Uint32())
	wcc := DecodeWccData(&d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return wcc.After, statusErr("setattr", st)
}

// Lookup resolves name in dir.
func (c *Client) Lookup(dir FH, name string) (FH, *Fattr, error) {
	res, err := c.call(ProcLookup, (&LookupArgs{Dir: dir, Name: name}).Encode())
	if err != nil {
		return nil, nil, err
	}
	r, err := DecodeLookupRes(res)
	if err != nil {
		return nil, nil, err
	}
	if r.Status != OK {
		return nil, nil, statusErr("lookup "+name, r.Status)
	}
	return r.Object, r.ObjAttr, nil
}

// Access checks access rights; returns the granted subset of want.
func (c *Client) Access(fh FH, want uint32) (uint32, error) {
	b := xdr.NewBuilder()
	b.Opaque(fh)
	b.Uint32(want)
	res, err := c.call(ProcAccess, b.B)
	if err != nil {
		return 0, err
	}
	var d xdr.Decoder
	d.ResetBytes(res)
	st := Status(d.Uint32())
	DecodePostOpAttr(&d)
	if st != OK {
		return 0, statusErr("access", st)
	}
	granted := d.Uint32()
	return granted, d.Err()
}

// ReadLink fetches the target of a symlink.
func (c *Client) ReadLink(fh FH) (string, error) {
	res, err := c.call(ProcReadlink, (&GetattrArgs{FH: fh}).Encode())
	if err != nil {
		return "", err
	}
	r, err := DecodeReadlinkRes(res)
	if err != nil {
		return "", err
	}
	if r.Status != OK {
		return "", statusErr("readlink", r.Status)
	}
	return r.Target, nil
}

// Read reads up to count bytes at off. The returned data aliases the
// reply buffer, which the caller owns.
func (c *Client) Read(fh FH, off uint64, count uint32) (data []byte, eof bool, err error) {
	data, eof, _, err = c.read(fh, off, count, false)
	return data, eof, err
}

// ReadPooled is Read with the reply lent, not given: data aliases rec,
// the transport's pooled reply record, which is the caller's to
// bufpool.Put once it has copied the bytes to where they are going — so
// a caller with a buffer of its own leaves nothing to the GC. Not
// releasing is legal; using data afterwards is the bug. rec is nil when
// the transport cannot lend (it is not a sunrpc.PooledCaller).
func (c *Client) ReadPooled(fh FH, off uint64, count uint32) (data []byte, eof bool, rec []byte, err error) {
	return c.read(fh, off, count, true)
}

// read issues one READ; lend asks the transport for its pooled record.
func (c *Client) read(fh FH, off uint64, count uint32, lend bool) (data []byte, eof bool, rec []byte, err error) {
	args := ReadArgs{FH: fh, Offset: off, Count: count}
	buf := args.AppendTo(bufpool.Get(FHSize + 16)[:0])
	var res []byte
	if pc, ok := c.rpc.(sunrpc.PooledCaller); lend && ok {
		res, rec, err = pc.CallPooled(Program, Version, ProcRead, c.cred, sunrpc.AuthNoneCred, buf, time.Time{})
	} else {
		res, err = c.call(ProcRead, buf)
	}
	bufpool.Put(buf)
	if err != nil {
		return nil, false, nil, err
	}
	// The post-op attributes are decoded into a stack value and dropped:
	// neither Read nor ReadPooled returns them.
	var r ReadRes
	var attr Fattr
	if _, err = r.DecodeRefAttrInto(res, &attr); err == nil {
		err = statusErr("read", r.Status)
	}
	if err != nil {
		bufpool.Put(rec)
		return nil, false, nil, err
	}
	return r.Data, r.EOF, rec, nil
}

// Write writes data at off with the given stability level, returning
// the server's count and post-op attributes when available.
func (c *Client) Write(fh FH, off uint64, data []byte, stable uint32) (uint32, *Fattr, error) {
	args := WriteArgs{FH: fh, Offset: off, Count: uint32(len(data)), Stable: stable, Data: data}
	buf := args.AppendTo(bufpool.Get(WriteArgsSize(len(data)))[:0])
	res, err := c.call(ProcWrite, buf)
	bufpool.Put(buf)
	if err != nil {
		return 0, nil, err
	}
	var r WriteRes
	if err := r.DecodeInto(res); err != nil {
		return 0, nil, err
	}
	if r.Status != OK {
		return 0, r.Wcc.After, statusErr("write", r.Status)
	}
	return r.Count, r.Wcc.After, nil
}

// Create makes a regular file in dir.
func (c *Client) Create(dir FH, name string, attr SetAttr, guarded bool) (FH, *Fattr, error) {
	b := xdr.NewBuilder()
	b.Opaque(dir)
	b.String(name)
	if guarded {
		b.Uint32(CreateGuarded)
	} else {
		b.Uint32(CreateUnchecked)
	}
	attr.Append(&b)
	return c.newObjectCall(ProcCreate, "create "+name, b.B)
}

// Mkdir makes a directory in dir.
func (c *Client) Mkdir(dir FH, name string, attr SetAttr) (FH, *Fattr, error) {
	b := xdr.NewBuilder()
	b.Opaque(dir)
	b.String(name)
	attr.Append(&b)
	return c.newObjectCall(ProcMkdir, "mkdir "+name, b.B)
}

// Symlink makes a symbolic link dir/name -> target.
func (c *Client) Symlink(dir FH, name, target string) (FH, *Fattr, error) {
	b := xdr.NewBuilder()
	b.Opaque(dir)
	b.String(name)
	(&SetAttr{}).Append(&b)
	b.String(target)
	return c.newObjectCall(ProcSymlink, "symlink "+name, b.B)
}

func (c *Client) newObjectCall(proc uint32, op string, args []byte) (FH, *Fattr, error) {
	res, err := c.call(proc, args)
	if err != nil {
		return nil, nil, err
	}
	var d xdr.Decoder
	d.ResetBytes(res)
	st := Status(d.Uint32())
	if st != OK {
		return nil, nil, statusErr(op, st)
	}
	fh := DecodePostOpFH(&d)
	attr := DecodePostOpAttr(&d)
	DecodeWccData(&d)
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if fh == nil {
		return nil, nil, fmt.Errorf("nfs3: %s: server returned no handle", op)
	}
	return fh, attr, nil
}

// Remove unlinks dir/name.
func (c *Client) Remove(dir FH, name string) error {
	return c.dirOpCall(ProcRemove, "remove "+name, dir, name)
}

// Rmdir removes the directory dir/name.
func (c *Client) Rmdir(dir FH, name string) error {
	return c.dirOpCall(ProcRmdir, "rmdir "+name, dir, name)
}

func (c *Client) dirOpCall(proc uint32, op string, dir FH, name string) error {
	res, err := c.call(proc, (&LookupArgs{Dir: dir, Name: name}).Encode())
	if err != nil {
		return err
	}
	var d xdr.Decoder
	d.ResetBytes(res)
	st := Status(d.Uint32())
	DecodeWccData(&d)
	if err := d.Err(); err != nil {
		return err
	}
	return statusErr(op, st)
}

// Rename moves fromDir/fromName to toDir/toName.
func (c *Client) Rename(fromDir FH, fromName string, toDir FH, toName string) error {
	b := xdr.NewBuilder()
	b.Opaque(fromDir)
	b.String(fromName)
	b.Opaque(toDir)
	b.String(toName)
	res, err := c.call(ProcRename, b.B)
	if err != nil {
		return err
	}
	var d xdr.Decoder
	d.ResetBytes(res)
	st := Status(d.Uint32())
	DecodeWccData(&d)
	DecodeWccData(&d)
	if err := d.Err(); err != nil {
		return err
	}
	return statusErr("rename", st)
}

// Link makes dir/name another name for the file fh.
func (c *Client) Link(fh, dir FH, name string) error {
	b := xdr.NewBuilder()
	b.Opaque(fh)
	b.Opaque(dir)
	b.String(name)
	res, err := c.call(ProcLink, b.B)
	if err != nil {
		return err
	}
	var d xdr.Decoder
	d.ResetBytes(res)
	st := Status(d.Uint32())
	DecodePostOpAttr(&d)
	DecodeWccData(&d)
	if err := d.Err(); err != nil {
		return err
	}
	return statusErr("link "+name, st)
}

// ReadDir lists one batch of directory entries starting after cookie.
func (c *Client) ReadDir(dir FH, cookie uint64, count uint32) ([]DirEntry, bool, error) {
	b := xdr.NewBuilder()
	b.Opaque(dir)
	b.Uint64(cookie)
	var verf [8]byte
	b.FixedOpaque(verf[:])
	b.Uint32(count)
	res, err := c.call(ProcReaddir, b.B)
	if err != nil {
		return nil, false, err
	}
	var d xdr.Decoder
	d.ResetBytes(res)
	st := Status(d.Uint32())
	DecodePostOpAttr(&d)
	if st != OK {
		return nil, false, statusErr("readdir", st)
	}
	d.FixedOpaque(verf[:])
	var entries []DirEntry
	for d.Bool() {
		ent := DirEntry{FileID: d.Uint64(), Name: d.String(), Cookie: d.Uint64()}
		if d.Err() != nil {
			return nil, false, d.Err()
		}
		entries = append(entries, ent)
	}
	eof := d.Bool()
	return entries, eof, d.Err()
}

// ReadDirAll lists the complete contents of a directory.
func (c *Client) ReadDirAll(dir FH) ([]DirEntry, error) {
	var all []DirEntry
	var cookie uint64
	for {
		batch, eof, err := c.ReadDir(dir, cookie, 8192)
		if err != nil {
			return nil, err
		}
		all = append(all, batch...)
		if eof || len(batch) == 0 {
			return all, nil
		}
		cookie = batch[len(batch)-1].Cookie
	}
}

// FSStat reports filesystem usage for the filesystem containing fh.
func (c *Client) FSStat(fh FH) (FSStatRes, error) {
	res, err := c.call(ProcFSStat, (&GetattrArgs{FH: fh}).Encode())
	if err != nil {
		return FSStatRes{}, err
	}
	var d xdr.Decoder
	d.ResetBytes(res)
	st := Status(d.Uint32())
	DecodePostOpAttr(&d)
	if st != OK {
		return FSStatRes{}, statusErr("fsstat", st)
	}
	out := FSStatRes{
		TotalBytes: d.Uint64(), FreeBytes: d.Uint64(), AvailBytes: d.Uint64(),
		TotalFiles: d.Uint64(), FreeFiles: d.Uint64(), AvailFiles: d.Uint64(),
		Invarsec: d.Uint32(),
	}
	return out, d.Err()
}

// FSInfo fetches the server's transfer-size limits.
func (c *Client) FSInfo(fh FH) (FSInfoRes, error) {
	res, err := c.call(ProcFSInfo, (&GetattrArgs{FH: fh}).Encode())
	if err != nil {
		return FSInfoRes{}, err
	}
	var d xdr.Decoder
	d.ResetBytes(res)
	st := Status(d.Uint32())
	DecodePostOpAttr(&d)
	if st != OK {
		return FSInfoRes{}, statusErr("fsinfo", st)
	}
	out := FSInfoRes{
		RtMax: d.Uint32(), RtPref: d.Uint32(), RtMult: d.Uint32(),
		WtMax: d.Uint32(), WtPref: d.Uint32(), WtMult: d.Uint32(),
		DtPref:      d.Uint32(),
		MaxFileSize: d.Uint64(),
		TimeDelta:   Time{d.Uint32(), d.Uint32()},
		Properties:  d.Uint32(),
	}
	return out, d.Err()
}

// Commit flushes unstable writes in [off, off+count) to stable storage.
func (c *Client) Commit(fh FH, off uint64, count uint32) error {
	res, err := c.call(ProcCommit, (&CommitArgs{FH: fh, Offset: off, Count: count}).Encode())
	if err != nil {
		return err
	}
	st, err := DecodeCommitRes(res)
	if err != nil {
		return err
	}
	return statusErr("commit", st)
}

// ReadDirPlus lists one batch of directory entries with attributes and
// handles (READDIRPLUS), saving the per-entry LOOKUP round trips that
// plain READDIR requires.
func (c *Client) ReadDirPlus(dir FH, cookie uint64, maxCount uint32) ([]DirEntry, bool, error) {
	args := ReaddirplusArgs{Dir: dir, Cookie: cookie, DirCount: maxCount / 4, MaxCount: maxCount}
	res, err := c.call(ProcReaddirplus, args.Encode())
	if err != nil {
		return nil, false, err
	}
	r, err := DecodeReaddirplusRes(res)
	if err != nil {
		return nil, false, err
	}
	if r.Status != OK {
		return nil, false, statusErr("readdirplus", r.Status)
	}
	return r.Entries, r.EOF, nil
}

// RawCall issues an arbitrary NFS procedure with the client's
// credential, for callers that marshal their own arguments.
func (c *Client) RawCall(proc uint32, args []byte) ([]byte, error) {
	return c.call(proc, args)
}
