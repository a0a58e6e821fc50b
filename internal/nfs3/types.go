// Package nfs3 implements the NFS version 3 protocol (RFC 1813) over
// ONC RPC: wire types, a server that dispatches to a pluggable Backend,
// and a client. This is the de-facto distributed file system standard
// that GVFS virtualizes — the GVFS proxies forward, cache and rewrite
// the RPC calls defined here without any modification to the client or
// server endpoints, exactly as the paper requires.
package nfs3

import (
	"bytes"
	"fmt"

	"gvfs/internal/backend"
	"gvfs/internal/xdr"
)

// RPC program numbers.
const (
	Program = 100003 // NFS
	Version = 3

	MountProgram = 100005 // MOUNT
	MountVersion = 3
)

// NFSv3 procedure numbers (RFC 1813 §3).
const (
	ProcNull        = 0
	ProcGetattr     = 1
	ProcSetattr     = 2
	ProcLookup      = 3
	ProcAccess      = 4
	ProcReadlink    = 5
	ProcRead        = 6
	ProcWrite       = 7
	ProcCreate      = 8
	ProcMkdir       = 9
	ProcSymlink     = 10
	ProcMknod       = 11
	ProcRemove      = 12
	ProcRmdir       = 13
	ProcRename      = 14
	ProcLink        = 15
	ProcReaddir     = 16
	ProcReaddirplus = 17
	ProcFSStat      = 18
	ProcFSInfo      = 19
	ProcPathconf    = 20
	ProcCommit      = 21
)

// ProcName returns the conventional name of an NFSv3 procedure, for
// logging and metrics.
func ProcName(proc uint32) string {
	names := [...]string{
		"NULL", "GETATTR", "SETATTR", "LOOKUP", "ACCESS", "READLINK",
		"READ", "WRITE", "CREATE", "MKDIR", "SYMLINK", "MKNOD",
		"REMOVE", "RMDIR", "RENAME", "LINK", "READDIR", "READDIRPLUS",
		"FSSTAT", "FSINFO", "PATHCONF", "COMMIT",
	}
	if int(proc) < len(names) {
		return names[proc]
	}
	return fmt.Sprintf("PROC%d", proc)
}

// Status is an NFSv3 status code (nfsstat3).
type Status uint32

// NFSv3 status codes (subset used by this implementation).
const (
	OK             Status = 0
	ErrPerm        Status = 1
	ErrNoEnt       Status = 2
	ErrIO          Status = 5
	ErrAcces       Status = 13
	ErrExist       Status = 17
	ErrNotDir      Status = 20
	ErrIsDir       Status = 21
	ErrInval       Status = 22
	ErrFBig        Status = 27
	ErrNoSpc       Status = 28
	ErrRoFS        Status = 30
	ErrNameTooLong Status = 63
	ErrNotEmpty    Status = 66
	ErrStale       Status = 70
	ErrBadHandle   Status = 10001
	ErrNotSupp     Status = 10004
	ErrTooSmall    Status = 10005
	ErrServerFault Status = 10006
	ErrJukebox     Status = 10008
)

// statusNames are the statuses' names in RFC 1813.
var statusNames = map[Status]string{
	OK: "NFS3_OK", ErrPerm: "NFS3ERR_PERM", ErrNoEnt: "NFS3ERR_NOENT", ErrIO: "NFS3ERR_IO",
	ErrAcces: "NFS3ERR_ACCES", ErrExist: "NFS3ERR_EXIST", ErrNotDir: "NFS3ERR_NOTDIR",
	ErrIsDir: "NFS3ERR_ISDIR", ErrInval: "NFS3ERR_INVAL", ErrFBig: "NFS3ERR_FBIG",
	ErrNoSpc: "NFS3ERR_NOSPC", ErrRoFS: "NFS3ERR_ROFS", ErrNameTooLong: "NFS3ERR_NAMETOOLONG",
	ErrNotEmpty: "NFS3ERR_NOTEMPTY", ErrStale: "NFS3ERR_STALE", ErrBadHandle: "NFS3ERR_BADHANDLE",
	ErrNotSupp: "NFS3ERR_NOTSUPP", ErrTooSmall: "NFS3ERR_TOOSMALL",
	ErrServerFault: "NFS3ERR_SERVERFAULT", ErrJukebox: "NFS3ERR_JUKEBOX",
}

func (s Status) String() string {
	if name, ok := statusNames[s]; ok {
		return name
	}
	return fmt.Sprintf("NFS3ERR(%d)", uint32(s))
}

// FH is an NFSv3 file handle: opaque, up to MaxFHSize bytes.
type FH []byte

// MaxFHSize is the longest file handle any decoder here accepts (DecodeFH
// enforces it) and any backend may produce. RFC 1813 stops at 64 bytes
// (NFS3_FHSIZE) and a handle relayed from an NFS server never exceeds
// that, but a backend's FileID is the handle and objstore's is the object
// path, so the bound is the FileID's, the write-back journal's record limit.
const MaxFHSize = backend.MaxFileID

// MaxNameLen is the longest name in a directory listing the decoder takes:
// the name_max this implementation's PATHCONF answers, and what memfs and
// a Linux osfs export allow.
const MaxNameLen = 255

// Key returns the handle as a map key.
func (fh FH) Key() string { return string(fh) }

func (fh FH) String() string { return fmt.Sprintf("fh(%x)", []byte(fh)) }

// FileType is an NFSv3 ftype3.
type FileType uint32

// File types.
const (
	TypeReg  FileType = 1
	TypeDir  FileType = 2
	TypeBlk  FileType = 3
	TypeChr  FileType = 4
	TypeLnk  FileType = 5
	TypeSock FileType = 6
	TypeFifo FileType = 7
)

// Time is an NFSv3 nfstime3.
type Time struct {
	Sec  uint32
	Nsec uint32
}

// Less reports whether t is earlier than u.
func (t Time) Less(u Time) bool { return t.Sec < u.Sec || (t.Sec == u.Sec && t.Nsec < u.Nsec) }

// Fattr is an NFSv3 fattr3: the full attributes of a file object.
type Fattr struct {
	Type                 FileType
	Mode                 uint32
	Nlink                uint32
	UID                  uint32
	GID                  uint32
	Size                 uint64
	Used                 uint64
	RdevMajor, RdevMinor uint32
	FSID                 uint64
	FileID               uint64
	Atime                Time
	Mtime                Time
	Ctime                Time
}

// FattrSize is the fixed encoded size of a fattr3 (21 words).
const FattrSize = 84

// FHSize is the encoded size of an nfs_fh3 of RFC 1813's 64 bytes
// (NFS3_FHSIZE) with its length word: what the args buffers of READ and
// WRITE are sized for. A longer handle (see MaxFHSize) grows them.
const FHSize = 4 + 64

// Append writes the fattr3 wire form.
func (a *Fattr) Append(b *xdr.Builder) {
	b.Uint32(uint32(a.Type))
	b.Uint32(a.Mode)
	b.Uint32(a.Nlink)
	b.Uint32(a.UID)
	b.Uint32(a.GID)
	b.Uint64(a.Size)
	b.Uint64(a.Used)
	b.Uint32(a.RdevMajor)
	b.Uint32(a.RdevMinor)
	b.Uint64(a.FSID)
	b.Uint64(a.FileID)
	b.Uint32(a.Atime.Sec)
	b.Uint32(a.Atime.Nsec)
	b.Uint32(a.Mtime.Sec)
	b.Uint32(a.Mtime.Nsec)
	b.Uint32(a.Ctime.Sec)
	b.Uint32(a.Ctime.Nsec)
}

// DecodeFattr reads the fattr3 wire form.
func DecodeFattr(d *xdr.Decoder) Fattr {
	var a Fattr
	a.Type = FileType(d.Uint32())
	a.Mode = d.Uint32()
	a.Nlink = d.Uint32()
	a.UID = d.Uint32()
	a.GID = d.Uint32()
	a.Size = d.Uint64()
	a.Used = d.Uint64()
	a.RdevMajor = d.Uint32()
	a.RdevMinor = d.Uint32()
	a.FSID = d.Uint64()
	a.FileID = d.Uint64()
	a.Atime = Time{d.Uint32(), d.Uint32()}
	a.Mtime = Time{d.Uint32(), d.Uint32()}
	a.Ctime = Time{d.Uint32(), d.Uint32()}
	return a
}

// AppendPostOpAttr writes a post_op_attr (optional fattr3).
func AppendPostOpAttr(b *xdr.Builder, a *Fattr) {
	if a == nil {
		b.Bool(false)
		return
	}
	b.Bool(true)
	a.Append(b)
}

// DecodePostOpAttr reads a post_op_attr.
func DecodePostOpAttr(d *xdr.Decoder) *Fattr {
	if !d.Bool() {
		return nil
	}
	a := DecodeFattr(d)
	return &a
}

// decodePostOpAttrInto reads a post_op_attr into *a, allocating nothing,
// and reports whether attributes followed (*a is left alone if not).
func decodePostOpAttrInto(d *xdr.Decoder, a *Fattr) bool {
	if !d.Bool() {
		return false
	}
	*a = DecodeFattr(d)
	return true
}

// WccAttr is the pre-operation attribute subset (wcc_attr).
type WccAttr struct {
	Size  uint64
	Mtime Time
	Ctime Time
}

// DecodePreOpAttr reads a pre_op_attr.
func DecodePreOpAttr(d *xdr.Decoder) *WccAttr {
	if !d.Bool() {
		return nil
	}
	w := decodeWccAttr(d)
	return &w
}

// decodePreOpAttrInto is decodePostOpAttrInto for a pre_op_attr.
func decodePreOpAttrInto(d *xdr.Decoder, w *WccAttr) bool {
	if !d.Bool() {
		return false
	}
	*w = decodeWccAttr(d)
	return true
}

func decodeWccAttr(d *xdr.Decoder) WccAttr {
	return WccAttr{Size: d.Uint64(), Mtime: Time{d.Uint32(), d.Uint32()}, Ctime: Time{d.Uint32(), d.Uint32()}}
}

// WccData is weak cache consistency data attached to modifying replies.
type WccData struct {
	Before *WccAttr
	After  *Fattr
}

// Append writes the wcc_data wire form: a pre_op_attr, then a
// post_op_attr.
func (w *WccData) Append(b *xdr.Builder) {
	if w.Before == nil {
		b.Bool(false)
	} else {
		b.Bool(true)
		b.Uint64(w.Before.Size)
		b.Uint32(w.Before.Mtime.Sec)
		b.Uint32(w.Before.Mtime.Nsec)
		b.Uint32(w.Before.Ctime.Sec)
		b.Uint32(w.Before.Ctime.Nsec)
	}
	AppendPostOpAttr(b, w.After)
}

// DecodeWccData reads a wcc_data.
func DecodeWccData(d *xdr.Decoder) WccData {
	return WccData{Before: DecodePreOpAttr(d), After: DecodePostOpAttr(d)}
}

// TimeHow selects how SETATTR updates a timestamp (time_how).
type TimeHow uint32

// time_how values.
const (
	DontChange  TimeHow = 0
	SetToServer TimeHow = 1
	SetToClient TimeHow = 2
)

// SetAttr is an NFSv3 sattr3: the attributes a client can set.
type SetAttr struct {
	Mode *uint32
	UID  *uint32
	GID  *uint32
	Size *uint64

	AtimeHow TimeHow
	Atime    Time // valid when AtimeHow == SetToClient
	MtimeHow TimeHow
	Mtime    Time
}

// Append writes the sattr3 wire form.
func (s *SetAttr) Append(b *xdr.Builder) {
	optU32 := func(p *uint32) {
		b.Bool(p != nil)
		if p != nil {
			b.Uint32(*p)
		}
	}
	optU32(s.Mode)
	optU32(s.UID)
	optU32(s.GID)
	b.Bool(s.Size != nil)
	if s.Size != nil {
		b.Uint64(*s.Size)
	}
	b.Uint32(uint32(s.AtimeHow))
	if s.AtimeHow == SetToClient {
		b.Uint32(s.Atime.Sec)
		b.Uint32(s.Atime.Nsec)
	}
	b.Uint32(uint32(s.MtimeHow))
	if s.MtimeHow == SetToClient {
		b.Uint32(s.Mtime.Sec)
		b.Uint32(s.Mtime.Nsec)
	}
}

// DecodeSetAttr reads the sattr3 wire form.
func DecodeSetAttr(d *xdr.Decoder) SetAttr {
	var s SetAttr
	decOptU32 := func() *uint32 {
		if !d.Bool() {
			return nil
		}
		v := d.Uint32()
		return &v
	}
	s.Mode = decOptU32()
	s.UID = decOptU32()
	s.GID = decOptU32()
	if d.Bool() {
		v := d.Uint64()
		s.Size = &v
	}
	s.AtimeHow = TimeHow(d.Uint32())
	if s.AtimeHow == SetToClient {
		s.Atime = Time{d.Uint32(), d.Uint32()}
	}
	s.MtimeHow = TimeHow(d.Uint32())
	if s.MtimeHow == SetToClient {
		s.Mtime = Time{d.Uint32(), d.Uint32()}
	}
	return s
}

// ACCESS permission bits (RFC 1813 §3.3.4).
const (
	AccessRead    uint32 = 0x01
	AccessLookup  uint32 = 0x02
	AccessModify  uint32 = 0x04
	AccessExtend  uint32 = 0x08
	AccessDelete  uint32 = 0x10
	AccessExecute uint32 = 0x20
)

// Write stability levels (stable_how).
const (
	Unstable uint32 = 0
	DataSync uint32 = 1
	FileSync uint32 = 2
)

// CreateMode values (createmode3).
const (
	CreateUnchecked uint32 = 0
	CreateGuarded   uint32 = 1
	CreateExclusive uint32 = 2
)

// DirEntry is one directory entry as returned by READDIR/READDIRPLUS.
type DirEntry struct {
	FileID uint64
	Name   string
	Cookie uint64
	// Attr and Handle are populated by READDIRPLUS only.
	Attr   *Fattr
	Handle FH
}

// FSStatRes carries FSSTAT results (sizes in bytes, counts of files).
type FSStatRes struct {
	TotalBytes, FreeBytes, AvailBytes uint64
	TotalFiles, FreeFiles, AvailFiles uint64
	Invarsec                          uint32
}

// FSInfoRes carries FSINFO results: server transfer-size limits.
type FSInfoRes struct {
	RtMax, RtPref, RtMult uint32
	WtMax, WtPref, WtMult uint32
	DtPref                uint32
	MaxFileSize           uint64
	TimeDelta             Time
	Properties            uint32
}

// MaxTransfer is the largest READ or WRITE payload any server here
// advertises (FSINFO rtmax/wtmax): the NFSv3-era protocol ceiling the
// paper cites. Cache blocks and flushed runs never exceed it.
const MaxTransfer = 32768

// DefaultFSInfo reports the transfer sizes this implementation prefers:
// MaxTransfer maximum with 8 KB preferred.
func DefaultFSInfo() FSInfoRes {
	return FSInfoRes{
		RtMax: MaxTransfer, RtPref: 8192, RtMult: 512,
		WtMax: MaxTransfer, WtPref: 8192, WtMult: 512,
		DtPref:      8192,
		MaxFileSize: 1 << 62,
		TimeDelta:   Time{0, 1},
		Properties:  0x0008 | 0x0010, // FSF_HOMOGENEOUS | FSF_CANSETTIME
	}
}

// DecodeFH reads an nfs_fh3 into a slice of its own. The encoding is
// Builder.Opaque; a handle longer than MaxFHSize is xdr.ErrLimit.
func DecodeFH(d *xdr.Decoder) FH { return bytes.Clone(DecodeFHRef(d)) }

// DecodeFHRef is DecodeFH with the handle lent from the decoder's input.
func DecodeFHRef(d *xdr.Decoder) FH { return d.OpaqueRefMax(MaxFHSize) }

// AppendPostOpFH writes a post_op_fh3.
func AppendPostOpFH(b *xdr.Builder, fh FH) {
	b.Bool(fh != nil)
	if fh != nil {
		b.Opaque(fh)
	}
}

// DecodePostOpFH reads a post_op_fh3.
func DecodePostOpFH(d *xdr.Decoder) FH {
	if !d.Bool() {
		return nil
	}
	return DecodeFH(d)
}
