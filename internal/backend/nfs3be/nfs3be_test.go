package nfs3be

import (
	"bytes"
	"testing"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/bufpool"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
	"gvfs/internal/xdr"
)

// cannedCaller answers every call with the same bytes.
type cannedCaller []byte

func (c cannedCaller) Call(_, _, _ uint32, _ sunrpc.OpaqueAuth, _ []byte) ([]byte, error) {
	return c, nil
}

// commitRes encodes a COMMIT3res with no attributes, as far as the parts
// asked for.
func commitRes(st nfs3.Status, verf bool) []byte {
	var b xdr.Builder
	b.Uint32(uint32(st))
	(&nfs3.WccData{}).Append(&b)
	if verf {
		b.FixedOpaque(nfs3.WriteVerf[:])
	}
	return b.B
}

// Commit reports the data durable only on a COMMIT3res that decodes in
// full and says NFS3_OK. A WRITE reply is 8 bytes longer than a COMMIT
// reply, so decoding one as the other — what Commit did — passed the OK
// case by failing to decode and, with it, every truncated reply.
func TestCommitDecodesCommitRes(t *testing.T) {
	fh := backend.FileID(bytes.Repeat([]byte{7}, 16))
	for _, tc := range []struct {
		name  string
		reply []byte
		class backend.Class // of the error; -1: success
	}{
		{"OK", commitRes(nfs3.OK, true), -1},
		{"empty reply", nil, backend.ClassIO},
		{"3 bytes", []byte{0, 0, 0}, backend.ClassIO},
		{"status only", []byte{0, 0, 0, 0}, backend.ClassIO},
		{"OK without verifier", commitRes(nfs3.OK, false), backend.ClassIO},
		{"NFS3ERR_IO", commitRes(nfs3.ErrIO, false), backend.ClassIO},
		{"NFS3ERR_STALE", commitRes(nfs3.ErrStale, false), backend.ClassStale},
		{"NFS3ERR_JUKEBOX", commitRes(nfs3.ErrJukebox, false), backend.ClassRetriable},
	} {
		err := New(cannedCaller(tc.reply)).Commit(fh, backend.CallOpts{})
		switch {
		case tc.class < 0:
			if err != nil {
				t.Errorf("%s: %v, want success", tc.name, err)
			}
		case err == nil:
			t.Errorf("%s: reported durable", tc.name)
		case backend.Classify(err) != tc.class:
			t.Errorf("%s: %v is class %v, want %v", tc.name, err, backend.Classify(err), tc.class)
		}
	}
}

// lendingCaller answers CallPooled with a reply inside a pooled record,
// as *sunrpc.Client does.
type lendingCaller struct{ cannedCaller }

func (c lendingCaller) CallPooled(_, _, _ uint32, _, _ sunrpc.OpaqueAuth, _ []byte, _ time.Time) ([]byte, []byte, error) {
	rec := bufpool.Get(4 + len(c.cannedCaller))
	return rec[:4+copy(rec[4:], c.cannedCaller)][4:], rec, nil
}

// Call with a deadline (or a trace) goes through CallPooled; what it
// returns is the caller's to keep, and the record is back in the pool —
// a kept reply must not cost the READ and WRITE callers their buffers.
func TestCallKeepsCopyAndReleasesRecord(t *testing.T) {
	up := lendingCaller{cannedCaller("reply bytes")}
	before := bufpool.Snapshot()
	res, err := Call(up, nfs3.Program, nfs3.Version, nfs3.ProcGetattr, sunrpc.AuthNoneCred, nil,
		backend.CallOpts{Deadline: time.Now().Add(time.Minute)})
	if err != nil || string(res) != "reply bytes" {
		t.Fatalf("Call = %q, %v", res, err)
	}
	after := bufpool.Snapshot()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != 1 || puts != 1 {
		t.Errorf("pool saw %d gets and %d puts, want 1 and 1", gets, puts)
	}
	if cap(res) >= 512 {
		t.Errorf("result has capacity %d: it is the pooled record, not a copy", cap(res))
	}
}

// A FileID is the file handle: the two bounds are one number, which
// nfs3 takes from backend.
func TestFileIDBoundIsHandleBound(t *testing.T) {
	if backend.MaxFileID != nfs3.MaxFHSize {
		t.Fatalf("backend.MaxFileID = %d, nfs3.MaxFHSize = %d", backend.MaxFileID, nfs3.MaxFHSize)
	}
}
