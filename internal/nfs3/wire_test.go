package nfs3

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"syscall"
	"testing"
	"testing/quick"

	"gvfs/internal/backend"
	"gvfs/internal/sunrpc"
	"gvfs/internal/xdr"
)

func TestReadArgsRoundTrip(t *testing.T) {
	in := ReadArgs{FH: FH{1, 2, 3, 4}, Offset: 1 << 33, Count: 8192}
	out, err := DecodeReadArgs(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.FH, in.FH) || out.Offset != in.Offset || out.Count != in.Count {
		t.Errorf("got %+v, want %+v", out, in)
	}
}

func TestWriteArgsRoundTrip(t *testing.T) {
	in := WriteArgs{FH: FH{9, 9}, Offset: 4096, Count: 5, Stable: FileSync, Data: []byte("hello")}
	out, err := DecodeWriteArgs(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Data, in.Data) || out.Offset != in.Offset || out.Stable != in.Stable {
		t.Errorf("got %+v", out)
	}
}

func TestReadResRoundTripOK(t *testing.T) {
	attr := Fattr{Type: TypeReg, Size: 100, FileID: 42}
	in := ReadRes{Status: OK, Attr: &attr, Count: 3, EOF: true, Data: []byte{7, 8, 9}}
	out, err := DecodeReadRes(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != OK || !out.EOF || !bytes.Equal(out.Data, in.Data) {
		t.Errorf("got %+v", out)
	}
	if out.Attr == nil || out.Attr.FileID != 42 {
		t.Errorf("attr = %+v", out.Attr)
	}
}

func TestReadResRoundTripError(t *testing.T) {
	in := ReadRes{Status: ErrStale}
	out, err := DecodeReadRes(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != ErrStale || out.Data != nil || out.Attr != nil {
		t.Errorf("got %+v", out)
	}
}

func TestWriteResRoundTrip(t *testing.T) {
	attr := Fattr{Size: 1 << 20}
	in := WriteRes{Status: OK, Wcc: WccData{After: &attr}, Count: 8192, Committed: DataSync, Verf: WriteVerf}
	out, err := decodeWriteRes(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Count != 8192 || out.Committed != DataSync || out.Verf != WriteVerf {
		t.Errorf("got %+v", out)
	}
	if out.Wcc.After == nil || out.Wcc.After.Size != 1<<20 {
		t.Errorf("wcc = %+v", out.Wcc)
	}
}

func TestLookupRoundTrip(t *testing.T) {
	attr := Fattr{Type: TypeDir, FileID: 7}
	in := LookupRes{Status: OK, Object: FH{5, 5, 5}, ObjAttr: &attr, DirAttr: nil}
	out, err := DecodeLookupRes(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Object, in.Object) || out.ObjAttr.FileID != 7 || out.DirAttr != nil {
		t.Errorf("got %+v", out)
	}
}

func TestLookupArgsRoundTrip(t *testing.T) {
	in := LookupArgs{Dir: FH{1}, Name: "vm.vmdk"}
	out, err := DecodeLookupArgs(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "vm.vmdk" || !bytes.Equal(out.Dir, in.Dir) {
		t.Errorf("got %+v", out)
	}
}

func TestGetattrResRoundTrip(t *testing.T) {
	in := GetattrRes{Status: OK, Attr: Fattr{Type: TypeReg, Mode: 0644, Size: 320 << 20, FileID: 3,
		Atime: Time{1, 2}, Mtime: Time{3, 4}, Ctime: Time{5, 6}}}
	out, err := DecodeGetattrRes(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *out != in {
		t.Errorf("got %+v, want %+v", out, in)
	}
}

func TestSetattrArgsRoundTrip(t *testing.T) {
	mode := uint32(0600)
	size := uint64(1 << 30)
	in := SetattrArgs{FH: FH{8}, Attr: SetAttr{Mode: &mode, Size: &size,
		MtimeHow: SetToClient, Mtime: Time{100, 200}}}
	out, err := DecodeSetattrArgs(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *out.Attr.Mode != 0600 || *out.Attr.Size != 1<<30 {
		t.Errorf("got %+v", out.Attr)
	}
	if out.Attr.MtimeHow != SetToClient || out.Attr.Mtime != (Time{100, 200}) {
		t.Errorf("mtime: %+v", out.Attr)
	}
	if out.Attr.UID != nil || out.Attr.AtimeHow != DontChange {
		t.Errorf("unexpected fields set: %+v", out.Attr)
	}
}

func TestCommitArgsRoundTrip(t *testing.T) {
	in := CommitArgs{FH: FH{1, 2}, Offset: 99, Count: 100}
	out, err := DecodeCommitArgs(in.Encode())
	if err != nil || *&out.Offset != 99 || out.Count != 100 {
		t.Errorf("got %+v err=%v", out, err)
	}
}

func TestFattrFullRoundTrip(t *testing.T) {
	in := Fattr{
		Type: TypeLnk, Mode: 0777, Nlink: 3, UID: 500, GID: 501,
		Size: 123, Used: 456, RdevMajor: 8, RdevMinor: 1,
		FSID: 0xdead, FileID: 0xbeef,
		Atime: Time{10, 11}, Mtime: Time{12, 13}, Ctime: Time{14, 15},
	}
	var b xdr.Builder
	in.Append(&b)
	var d xdr.Decoder
	d.ResetBytes(b.B)
	out := DecodeFattr(&d)
	if d.Err() != nil || out != in || len(b.B) != FattrSize {
		t.Errorf("got %+v err=%v", out, d.Err())
	}
}

// File handles are bounded: every decoder takes a handle of MaxFHSize
// bytes and refuses one a byte longer, and the server answers
// GARBAGE_ARGS.
func TestHandleBound(t *testing.T) {
	for n, ok := range map[int]bool{MaxFHSize: true, MaxFHSize + 1: false} {
		fh := FH(bytes.Repeat([]byte{9}, n))
		var b xdr.Builder
		AppendPostOpFH(&b, fh)
		var d xdr.Decoder
		d.ResetBytes(b.B)
		DecodePostOpFH(&d)
		_, lerr := DecodeLookupArgs((&LookupArgs{Dir: fh, Name: "x"}).Encode())
		var w WriteArgs
		werr := w.DecodeRefInto((&WriteArgs{FH: fh, Data: []byte{1}}).Encode())
		var r ReadArgs
		rerr := r.DecodeRefInto((&ReadArgs{FH: fh}).Encode())
		for _, err := range []error{d.Err(), lerr, werr, rerr} {
			if (err == nil) != ok || (err != nil && !errors.Is(err, xdr.ErrLimit)) {
				t.Errorf("%d-byte handle: err %v", n, err)
			}
		}
		if ok {
			continue
		}
		// Refused before the (here absent) backend is reached.
		_, stat := NewServer(nil).HandleCall(&sunrpc.Call{Proc: ProcCommit, Args: (&CommitArgs{FH: fh}).Encode()})
		if stat != sunrpc.GarbageArgs {
			t.Errorf("COMMIT with a %d-byte handle: %v, want GARBAGE_ARGS", n, stat)
		}
	}
}

func TestQuickReadArgsRoundTrip(t *testing.T) {
	f := func(fh []byte, off uint64, count uint32) bool {
		if len(fh) > MaxFHSize {
			fh = fh[:MaxFHSize]
		}
		in := ReadArgs{FH: fh, Offset: off, Count: count}
		out, err := DecodeReadArgs(in.Encode())
		return err == nil && bytes.Equal(out.FH, fh) && out.Offset == off && out.Count == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWriteArgsRoundTrip(t *testing.T) {
	f := func(fh, data []byte, off uint64) bool {
		if len(fh) > MaxFHSize {
			fh = fh[:MaxFHSize]
		}
		in := WriteArgs{FH: fh, Offset: off, Count: uint32(len(data)), Stable: Unstable, Data: data}
		out, err := DecodeWriteArgs(in.Encode())
		return err == nil && bytes.Equal(out.Data, data) && out.Offset == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		OK:            "NFS3_OK",
		ErrNoEnt:      "NFS3ERR_NOENT",
		ErrStale:      "NFS3ERR_STALE",
		Status(12345): "NFS3ERR(12345)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", st, got, want)
		}
	}
}

func TestProcNames(t *testing.T) {
	if ProcName(ProcRead) != "READ" || ProcName(ProcWrite) != "WRITE" {
		t.Error("basic proc names wrong")
	}
	if ProcName(99) != "PROC99" {
		t.Errorf("unknown proc name = %q", ProcName(99))
	}
}

// TestStatusOf: a status survives wrapping, once or twice, whether an
// *Error or a *backend.Error carries it; a *backend.Error without one
// reads by its class, an OS error by the status it names, and any other
// error as NFS3ERR_IO.
func TestStatusOf(t *testing.T) {
	noent := &Error{Status: ErrNoEnt, Op: "lookup"}
	for _, tc := range []struct {
		err  error
		want Status
	}{
		{nil, OK},
		{&Error{Status: ErrAcces}, ErrAcces},
		{fmt.Errorf("clone: read golden config: %w", noent), ErrNoEnt},
		{fmt.Errorf("clone: resume: %w", fmt.Errorf("vm: read memory state: %w", &Error{Status: ErrStale})), ErrStale},
		{bytes.ErrTooLarge, ErrIO},
		{fmt.Errorf("clone: mkdir: %w", bytes.ErrTooLarge), ErrIO},

		{&backend.Error{Class: backend.ClassIO, Op: "write", Status: uint32(ErrNoSpc)}, ErrNoSpc},
		{fmt.Errorf("proxy: %w", Fail("read", ErrStale, nil)), ErrStale},
		{Fail("write", ErrBadHandle, nil), ErrBadHandle},
		{&backend.Error{Class: backend.ClassRetriable, Op: "fault"}, ErrJukebox},
		{&backend.Error{Class: backend.ClassStale, Op: "fault"}, ErrStale},
		{&backend.Error{Class: backend.ClassNotFound, Op: "fault"}, ErrNoEnt},
		{&backend.Error{Class: backend.ClassIO, Op: "read", Err: errors.New("short reply")}, ErrIO},
		{&backend.Error{Class: backend.ClassUnavailable, Op: "read"}, ErrIO},
		{&backend.Error{Class: backend.ClassTimeout, Op: "read", Err: context.DeadlineExceeded}, ErrIO},

		{&fs.PathError{Op: "open", Path: "/x", Err: syscall.ENOENT}, ErrNoEnt},
		{fmt.Errorf("store: %w", syscall.ENOTEMPTY), ErrNotEmpty},
		{syscall.EEXIST, ErrExist},
		{syscall.EPERM, ErrAcces},
		{syscall.EDQUOT, ErrNoSpc},
		{syscall.EROFS, ErrRoFS},
		{syscall.ECONNRESET, ErrIO},
	} {
		if got := StatusOf(tc.err); got != tc.want {
			t.Errorf("StatusOf(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestFailClasses: Fail's class follows from the status, and with no
// status from what the cause's OS error names, or is ClassUnavailable
// when it names none.
func TestFailClasses(t *testing.T) {
	for _, tc := range []struct {
		st     Status
		cause  error
		class  backend.Class
		status Status
	}{
		{ErrJukebox, nil, backend.ClassRetriable, ErrJukebox},
		{ErrStale, nil, backend.ClassStale, ErrStale},
		{ErrBadHandle, nil, backend.ClassStale, ErrBadHandle},
		{ErrNoEnt, nil, backend.ClassNotFound, ErrNoEnt},
		{ErrNoSpc, nil, backend.ClassIO, ErrNoSpc},
		{ErrIO, errors.New("missing block"), backend.ClassIO, ErrIO},
		{0, syscall.ENOSPC, backend.ClassIO, ErrNoSpc},
		{0, fs.ErrNotExist, backend.ClassNotFound, ErrNoEnt},
		{0, syscall.EISDIR, backend.ClassIO, ErrIsDir},
		{0, errors.New("connection reset by peer"), backend.ClassUnavailable, ErrIO},
	} {
		err := Fail("op", tc.st, tc.cause)
		if c := backend.Classify(err); c != tc.class {
			t.Errorf("Fail(%v, %v): class %v, want %v", tc.st, tc.cause, c, tc.class)
		}
		if st := StatusOf(err); st != tc.status {
			t.Errorf("Fail(%v, %v): status %v, want %v", tc.st, tc.cause, st, tc.status)
		}
		if tc.cause != nil && !errors.Is(err, tc.cause) {
			t.Errorf("Fail(%v, %v) = %v lost its cause", tc.st, tc.cause, err)
		}
	}
}
