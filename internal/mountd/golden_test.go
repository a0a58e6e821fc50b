package mountd_test

// Golden wire vectors (testdata/wire/*.hex) for the MOUNT protocol's MNT
// and EXPORT bodies: the bytes of the commit before the single XDR codec,
// held against today's client and server.

import (
	"testing"

	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
	"gvfs/internal/wiretest"
)

// vectorCaller checks the arguments Mount encoded against <name>.args,
// hands that vector to the server, checks its reply against <name>.res
// and hands that vector back for Mount to decode.
type vectorCaller struct {
	t    *testing.T
	srv  *mountd.Server
	name string
}

func (v vectorCaller) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	wiretest.Check(v.t, v.name+".args", args)
	res, stat := v.srv.HandleCall(&sunrpc.Call{Prog: prog, Vers: vers, Proc: proc,
		Args: wiretest.Vector(v.t, v.name+".args")})
	if stat != sunrpc.Success {
		v.t.Errorf("%s: server answered %v", v.name, stat)
	}
	wiretest.Check(v.t, v.name+".res", res)
	return wiretest.Vector(v.t, v.name+".res"), nil
}

func TestGoldenMount(t *testing.T) {
	root := nfs3.FH("export-root-fh") // 14 bytes: 2 of padding
	srv := mountd.NewServer()
	srv.Export("/exports/images", root)

	fh, err := mountd.Mount(vectorCaller{t, srv, "mnt"}, sunrpc.AuthNoneCred, "/exports/images")
	if err != nil || string(fh) != string(root) {
		t.Errorf("mnt: handle %q, err %v", fh, err)
	}
	_, err = mountd.Mount(vectorCaller{t, srv, "mnt_noent"}, sunrpc.AuthNoneCred, "/nope")
	if nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("mnt_noent: err %v", err)
	}
	res, stat := srv.HandleCall(&sunrpc.Call{Proc: mountd.ProcExport})
	if stat != sunrpc.Success {
		t.Errorf("export: server answered %v", stat)
	}
	wiretest.Check(t, "export.res", res)
}
