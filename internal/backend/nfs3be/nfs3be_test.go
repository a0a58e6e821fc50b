package nfs3be

import (
	"bytes"
	"testing"

	"gvfs/internal/backend"
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
	var buf bytes.Buffer
	e := xdr.NewEncoder(&buf)
	e.Uint32(uint32(st))
	(&nfs3.WccData{}).Encode(e)
	if verf {
		e.FixedOpaque(nfs3.WriteVerf[:])
	}
	return buf.Bytes()
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
