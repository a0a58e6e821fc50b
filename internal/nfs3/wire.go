package nfs3

import (
	"errors"
	"math"

	"gvfs/internal/xdr"
)

// This file defines typed argument/result codecs for the procedures the
// GVFS proxy interposes on. Server, client and proxy all share these so
// that a byte sequence produced by one is always parseable by the others.
//
// There is one codec (xdr.Builder, xdr.Decoder) and each message lists
// its fields once for encoding and once for decoding; the entry points
// differ only in who owns the memory:
//
//   - Encode() and the Decode* functions allocate what they return and
//     copy all payloads — safe anywhere, the convenience off the hot path.
//   - AppendTo/DecodeInto/DecodeRefInto are the same code on the caller's
//     memory: AppendTo appends the wire form to a (typically pooled) slice,
//     DecodeInto fills a stack-allocated struct, and DecodeRefInto lends
//     instead of copying — READ reply data, WRITE argument data and a READ's
//     handle alias the input buffer. What is lent follows the input buffer's
//     ownership rules: never retain it past the call that supplied the
//     buffer (see DESIGN.md §9).

// ErrShortReply reports a truncated or malformed XDR reply body.
var ErrShortReply = errors.New("nfs3: malformed message")

// GetattrArgs are the arguments of GETATTR (and the common single-handle
// argument shape shared by READLINK, FSSTAT, FSINFO and PATHCONF).
type GetattrArgs struct {
	FH FH
}

// Encode returns the XDR form of the arguments.
func (a *GetattrArgs) Encode() []byte {
	b := xdr.NewBuilder()
	b.Opaque(a.FH)
	return b.B
}

// DecodeGetattrArgs parses GETATTR-shaped arguments.
func DecodeGetattrArgs(p []byte) (*GetattrArgs, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	a := &GetattrArgs{FH: DecodeFH(&d)}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// LookupArgs are the arguments of LOOKUP (diropargs3).
type LookupArgs struct {
	Dir  FH
	Name string
}

// Encode returns the XDR form of the arguments.
func (a *LookupArgs) Encode() []byte {
	b := xdr.NewBuilder()
	b.Opaque(a.Dir)
	b.String(a.Name)
	return b.B
}

// DecodeLookupArgs parses diropargs3.
func DecodeLookupArgs(p []byte) (*LookupArgs, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	a := &LookupArgs{Dir: DecodeFH(&d), Name: d.String()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// LookupRes is the LOOKUP result.
type LookupRes struct {
	Status  Status
	Object  FH     // OK only
	ObjAttr *Fattr // OK only
	DirAttr *Fattr
}

// Encode returns the XDR form of the result.
func (r *LookupRes) Encode() []byte {
	b := xdr.NewBuilder()
	b.Uint32(uint32(r.Status))
	if r.Status == OK {
		b.Opaque(r.Object)
		AppendPostOpAttr(&b, r.ObjAttr)
	}
	AppendPostOpAttr(&b, r.DirAttr)
	return b.B
}

// DecodeLookupRes parses a LOOKUP result.
func DecodeLookupRes(p []byte) (*LookupRes, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	r := &LookupRes{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Object = DecodeFH(&d)
		r.ObjAttr = DecodePostOpAttr(&d)
	}
	r.DirAttr = DecodePostOpAttr(&d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// GetattrRes is the GETATTR result.
type GetattrRes struct {
	Status Status
	Attr   Fattr // OK only
}

// Encode returns the XDR form of the result.
func (r *GetattrRes) Encode() []byte {
	b := xdr.NewBuilder()
	b.Uint32(uint32(r.Status))
	if r.Status == OK {
		r.Attr.Append(&b)
	}
	return b.B
}

// DecodeGetattrRes parses a GETATTR result.
func DecodeGetattrRes(p []byte) (*GetattrRes, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	r := &GetattrRes{Status: Status(d.Uint32())}
	if r.Status == OK {
		r.Attr = DecodeFattr(&d)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// ReadlinkRes is the READLINK result.
type ReadlinkRes struct {
	Status Status
	Attr   *Fattr
	Target string // OK only
}

// Encode returns the XDR form of the result.
func (r *ReadlinkRes) Encode() []byte {
	b := xdr.NewBuilder()
	b.Uint32(uint32(r.Status))
	AppendPostOpAttr(&b, r.Attr)
	if r.Status == OK {
		b.String(r.Target)
	}
	return b.B
}

// DecodeReadlinkRes parses a READLINK result.
func DecodeReadlinkRes(p []byte) (*ReadlinkRes, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	r := &ReadlinkRes{Status: Status(d.Uint32()), Attr: DecodePostOpAttr(&d)}
	if r.Status == OK {
		r.Target = d.String()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// ReadArgs are the READ arguments.
type ReadArgs struct {
	FH     FH
	Offset uint64
	Count  uint32
}

// Encode returns the XDR form of the arguments.
func (a *ReadArgs) Encode() []byte { return a.AppendTo(make([]byte, 0, FHSize+8+4)) }

// AppendTo appends the XDR form of the arguments to dst.
func (a *ReadArgs) AppendTo(dst []byte) []byte {
	b := xdr.Builder{B: dst}
	b.Opaque(a.FH)
	b.Uint64(a.Offset)
	b.Uint32(a.Count)
	return b.B
}

// DecodeInto fills a (typically stack-allocated) ReadArgs. The FH is
// copied, so the result does not alias p.
func (a *ReadArgs) DecodeInto(p []byte) error { return a.decode(p, false) }

// DecodeRefInto is DecodeInto with the FH lent from p, for a caller that
// only looks at the arguments: nothing is allocated.
func (a *ReadArgs) DecodeRefInto(p []byte) error { return a.decode(p, true) }

func (a *ReadArgs) decode(p []byte, ref bool) error {
	var d xdr.Decoder
	d.ResetBytes(p)
	if ref {
		a.FH = DecodeFHRef(&d)
	} else {
		a.FH = DecodeFH(&d)
	}
	a.Offset = d.Uint64()
	a.Count = d.Uint32()
	return d.Err()
}

// DecodeReadArgs parses READ arguments.
func DecodeReadArgs(p []byte) (*ReadArgs, error) {
	a := &ReadArgs{}
	if err := a.DecodeInto(p); err != nil {
		return nil, err
	}
	return a, nil
}

// ReadRes is the READ result.
type ReadRes struct {
	Status Status
	Attr   *Fattr
	Count  uint32 // OK only
	EOF    bool   // OK only
	Data   []byte // OK only
}

// Encode returns the XDR form of the result.
func (r *ReadRes) Encode() []byte { return r.AppendTo(make([]byte, 0, ReadResSize(len(r.Data)))) }

// AppendTo appends the XDR form of the result to dst. With dst from
// bufpool sized by ReadResSize, the whole encode is allocation-free.
func (r *ReadRes) AppendTo(dst []byte) []byte {
	b := xdr.Builder{B: dst}
	b.Uint32(uint32(r.Status))
	AppendPostOpAttr(&b, r.Attr)
	if r.Status == OK {
		b.Uint32(r.Count)
		b.Bool(r.EOF)
		b.Opaque(r.Data)
	}
	return b.B
}

// ReadResSize bounds the encoded size of a READ result carrying n data
// bytes: status + post-op attr + count + eof + opaque header/padding.
func ReadResSize(n int) int { return 4 + 4 + FattrSize + 4 + 4 + 4 + n + 4 }

// DecodeReadRes parses a READ result, copying the data payload.
func DecodeReadRes(p []byte) (*ReadRes, error) {
	r := &ReadRes{}
	if _, err := r.decode(p, false, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeRefInto fills r with Data aliasing p: zero-copy parse for
// callers that consume the payload before p's owner releases it.
func (r *ReadRes) DecodeRefInto(p []byte) error {
	_, err := r.decode(p, true, nil)
	return err
}

// DecodeRefAttrInto is DecodeRefInto for a caller that keeps the post-op
// attributes by value: they go into *attr, not a new Fattr (r.Attr is
// left nil), and ok says whether there were any. Nothing is allocated.
func (r *ReadRes) DecodeRefAttrInto(p []byte, attr *Fattr) (ok bool, err error) {
	return r.decode(p, true, attr)
}

func (r *ReadRes) decode(p []byte, ref bool, attr *Fattr) (bool, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	r.Status = Status(d.Uint32())
	has := false
	if attr == nil {
		r.Attr = DecodePostOpAttr(&d)
	} else {
		r.Attr, has = nil, decodePostOpAttrInto(&d, attr)
	}
	if r.Status == OK {
		r.Count = d.Uint32()
		r.EOF = d.Bool()
		if ref {
			r.Data = d.OpaqueRef()
		} else {
			r.Data = d.Opaque()
		}
	}
	return has, d.Err()
}

// WriteArgs are the WRITE arguments.
type WriteArgs struct {
	FH     FH
	Offset uint64
	Count  uint32
	Stable uint32
	Data   []byte
}

// Encode returns the XDR form of the arguments.
func (a *WriteArgs) Encode() []byte { return a.AppendTo(make([]byte, 0, WriteArgsSize(len(a.Data)))) }

// AppendTo appends the XDR form of the arguments to dst.
func (a *WriteArgs) AppendTo(dst []byte) []byte {
	b := xdr.Builder{B: dst}
	b.Opaque(a.FH)
	b.Uint64(a.Offset)
	b.Uint32(a.Count)
	b.Uint32(a.Stable)
	b.Opaque(a.Data)
	return b.B
}

// WriteArgsSize bounds the encoded size of WRITE arguments carrying n
// data bytes.
func WriteArgsSize(n int) int { return 4 + FHSize + 4 + 8 + 4 + 4 + 4 + n + 4 }

// DecodeWriteArgs parses WRITE arguments, copying the data payload.
func DecodeWriteArgs(p []byte) (*WriteArgs, error) {
	a := &WriteArgs{}
	if err := a.decode(p, false); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeRefInto fills a with Data aliasing p — the zero-copy parse for
// the proxy's WRITE path, where the payload is consumed (journaled and
// written to the cache bank) before the RPC record is released. The FH
// is still copied: handles outlive the call in cache and accounting
// keys.
func (a *WriteArgs) DecodeRefInto(p []byte) error { return a.decode(p, true) }

func (a *WriteArgs) decode(p []byte, ref bool) error {
	var d xdr.Decoder
	d.ResetBytes(p)
	a.FH = DecodeFH(&d)
	a.Offset = d.Uint64()
	a.Count = d.Uint32()
	a.Stable = d.Uint32()
	if ref {
		a.Data = d.OpaqueRef()
	} else {
		a.Data = d.Opaque()
	}
	return d.Err()
}

// WriteRes is the WRITE result.
type WriteRes struct {
	Status    Status
	Wcc       WccData
	Count     uint32 // OK only
	Committed uint32 // OK only
	Verf      [8]byte
}

// Encode returns the XDR form of the result.
func (r *WriteRes) Encode() []byte { return r.AppendTo(make([]byte, 0, WriteResSize)) }

// AppendTo appends the XDR form of the result to dst.
func (r *WriteRes) AppendTo(dst []byte) []byte {
	b := xdr.Builder{B: dst}
	b.Uint32(uint32(r.Status))
	r.Wcc.Append(&b)
	if r.Status == OK {
		b.Uint32(r.Count)
		b.Uint32(r.Committed)
		b.FixedOpaque(r.Verf[:])
	}
	return b.B
}

// WriteResSize bounds the encoded size of a WRITE result.
const WriteResSize = 4 + (4 + 24) + (4 + FattrSize) + 4 + 4 + 8

// DecodeInto fills a (typically stack-allocated) WriteRes.
func (r *WriteRes) DecodeInto(p []byte) error {
	_, _, err := r.decode(p, nil, nil)
	return err
}

// DecodeWccInto is DecodeInto for a caller that keeps the wcc_data by
// value, as ReadRes.DecodeRefAttrInto does the attributes: its halves go
// into *before and *after (r.Wcc is left empty), and hasBefore and
// hasAfter say which there were. Nothing is allocated.
func (r *WriteRes) DecodeWccInto(p []byte, before *WccAttr, after *Fattr) (hasBefore, hasAfter bool, err error) {
	return r.decode(p, before, after)
}

func (r *WriteRes) decode(p []byte, before *WccAttr, after *Fattr) (hasBefore, hasAfter bool, err error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	r.Status = Status(d.Uint32())
	if after == nil {
		r.Wcc = DecodeWccData(&d)
	} else {
		r.Wcc = WccData{}
		hasBefore = decodePreOpAttrInto(&d, before)
		hasAfter = decodePostOpAttrInto(&d, after)
	}
	if r.Status == OK {
		r.Count = d.Uint32()
		r.Committed = d.Uint32()
		d.FixedOpaque(r.Verf[:])
	}
	return hasBefore, hasAfter, d.Err()
}

// SetattrArgs are the SETATTR arguments (guard unsupported: guard.check
// is decoded and must be false).
type SetattrArgs struct {
	FH   FH
	Attr SetAttr
}

// Encode returns the XDR form of the arguments.
func (a *SetattrArgs) Encode() []byte {
	b := xdr.NewBuilder()
	b.Opaque(a.FH)
	a.Attr.Append(&b)
	b.Bool(false) // guard: no ctime check
	return b.B
}

// DecodeSetattrArgs parses SETATTR arguments.
func DecodeSetattrArgs(p []byte) (*SetattrArgs, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	a := &SetattrArgs{FH: DecodeFH(&d), Attr: DecodeSetAttr(&d)}
	if d.Bool() { // guard present: consume ctime
		d.Uint32()
		d.Uint32()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// CommitArgs are the COMMIT arguments.
type CommitArgs struct {
	FH     FH
	Offset uint64
	Count  uint32
}

// Encode returns the XDR form of the arguments.
func (a *CommitArgs) Encode() []byte {
	b := xdr.NewBuilder()
	b.Opaque(a.FH)
	b.Uint64(a.Offset)
	b.Uint32(a.Count)
	return b.B
}

// DecodeCommitArgs parses COMMIT arguments.
func DecodeCommitArgs(p []byte) (*CommitArgs, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	a := &CommitArgs{FH: DecodeFH(&d), Offset: d.Uint64(), Count: d.Uint32()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeCommitRes parses a COMMIT3res — status, wcc_data and, on OK, the
// write verifier — and returns its status. A reply too short for what
// its status promises is an error, never a success.
func DecodeCommitRes(p []byte) (Status, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	st := Status(d.Uint32())
	DecodeWccData(&d)
	if st == OK {
		var verf [8]byte
		d.FixedOpaque(verf[:])
	}
	return st, d.Err()
}

// ReaddirplusArgs are the READDIRPLUS arguments (RFC 1813 §3.3.17).
type ReaddirplusArgs struct {
	Dir      FH
	Cookie   uint64 // 0 = from the start, else the cookie of the last entry had
	Verf     [8]byte
	DirCount uint32 // bytes of file ids, names and cookies wanted
	MaxCount uint32 // bytes the whole reply may take
}

// Encode returns the XDR form of the arguments.
func (a *ReaddirplusArgs) Encode() []byte {
	b := xdr.NewBuilder()
	b.Opaque(a.Dir)
	b.Uint64(a.Cookie)
	b.FixedOpaque(a.Verf[:])
	b.Uint32(a.DirCount)
	b.Uint32(a.MaxCount)
	return b.B
}

// DecodeReaddirplusArgs parses READDIRPLUS arguments.
func DecodeReaddirplusArgs(p []byte) (*ReaddirplusArgs, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	a := &ReaddirplusArgs{Dir: DecodeFH(&d), Cookie: d.Uint64()}
	d.FixedOpaque(a.Verf[:])
	a.DirCount, a.MaxCount = d.Uint32(), d.Uint32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// ReaddirplusRes is the READDIRPLUS result: client, server and the proxy,
// which lists directories upstream, share it.
type ReaddirplusRes struct {
	Status  Status
	DirAttr *Fattr
	Verf    [8]byte    // OK only
	Entries []DirEntry // OK only; Attr and Handle may each be absent
	EOF     bool       // OK only
}

// Encode returns the XDR form of the result.
func (r *ReaddirplusRes) Encode() []byte { return r.encodeWithin(math.MaxInt) }

// encodeWithin is Encode held to max bytes, a READDIRPLUS's maxcount (RFC
// 1813 §3.3.17): the entries from the first that does not fit on are left
// out, and the reply then has no eof — the client goes on from the last
// entry's cookie — or, when not even the first fits, is NFS3ERR_TOOSMALL.
func (r *ReaddirplusRes) encodeWithin(max int) []byte {
	b := xdr.NewBuilder()
	b.Uint32(uint32(r.Status))
	AppendPostOpAttr(&b, r.DirAttr)
	if r.Status != OK {
		return b.B
	}
	b.FixedOpaque(r.Verf[:])
	eof := r.EOF
	for i := range r.Entries {
		e, mark := &r.Entries[i], len(b.B)
		b.Bool(true)
		b.Uint64(e.FileID)
		b.String(e.Name)
		b.Uint64(e.Cookie)
		AppendPostOpAttr(&b, e.Attr)
		AppendPostOpFH(&b, e.Handle)
		if len(b.B)+8 > max { // the list's end and eof follow
			if i == 0 {
				return (&ReaddirplusRes{Status: ErrTooSmall, DirAttr: r.DirAttr}).Encode()
			}
			b.B, eof = b.B[:mark], false
			break
		}
	}
	b.Bool(false)
	b.Bool(eof)
	return b.B
}

// DecodeReaddirplusRes parses a READDIRPLUS result. Names are held to
// MaxNameLen and handles to MaxFHSize; every entry takes at least 32
// bytes of p, so their number is bounded by its length.
func DecodeReaddirplusRes(p []byte) (*ReaddirplusRes, error) {
	var d xdr.Decoder
	d.ResetBytes(p)
	r := &ReaddirplusRes{Status: Status(d.Uint32()), DirAttr: DecodePostOpAttr(&d)}
	if r.Status == OK {
		d.FixedOpaque(r.Verf[:])
		for d.Bool() {
			e := DirEntry{FileID: d.Uint64(), Name: string(d.OpaqueRefMax(MaxNameLen)), Cookie: d.Uint64()}
			e.Attr = DecodePostOpAttr(&d)
			e.Handle = DecodePostOpFH(&d)
			r.Entries = append(r.Entries, e) // on an error the loop ends and r is dropped
		}
		r.EOF = d.Bool()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}
