package proxy

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"gvfs/internal/auth"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
	"gvfs/internal/xdr"
)

// mnt sends one MNT of dirpath under cred to h and returns its reply.
func mnt(h sunrpc.Handler, cred sunrpc.OpaqueAuth, dirpath string) ([]byte, error) {
	var args xdr.Builder
	args.String(dirpath)
	return sunrpc.Local{H: h}.Call(nfs3.MountProgram, nfs3.MountVersion, mountd.ProcMnt, cred, args.B)
}

// mntStatus is the MOUNT status at the head of an MNT reply.
func mntStatus(res []byte) uint32 {
	var d xdr.Decoder
	d.ResetBytes(res)
	return d.Uint32()
}

// TestMountAnsweredFromKeptReply: an MNT of an export mounted through the
// proxy before, under the same credential, is answered with upstream's own
// reply to the first, byte for byte, and reaches no upstream. The op mix
// still counts it. A dirpath that is a different string, though it names
// the same directory, and a different credential each go upstream.
func TestMountAnsweredFromKeptReply(t *testing.T) {
	ch := newChain(t, chainSpec{})
	if n := ch.mnts.Load(); n != 1 {
		t.Fatalf("%d MNTs reached the origin mounting the chain, want 1", n)
	}
	want, err := mnt(ch.origin.H, ch.cred, "/")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := mnt(ch.p, ch.cred, "/")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("repeated MNT of /: %x, %v; want the origin's reply %x", got, err, want)
		}
	}
	if n := ch.mnts.Load(); n != 1 {
		t.Errorf("%d MNTs reached the origin after two repeats, want 1", n)
	}
	if ops := ch.p.Statusz().Clients; len(ops) != 1 || ops[0].Ops["MOUNT"] != 3 {
		t.Errorf("op mix %+v, want one client with 3 MOUNTs", ops)
	}

	// "/." is "/" to path.Clean, not to mountd: the origin refuses it.
	if res, err := mnt(ch.p, ch.cred, "/."); err != nil || mntStatus(res) != uint32(nfs3.ErrNoEnt) {
		t.Errorf("MNT of /.: status %d, %v; want the origin's NOENT", mntStatus(res), err)
	}
	other := sunrpc.UnixCred{UID: 501, GID: 501, MachineName: "chain"}.Encode()
	if res, err := mnt(ch.p, other, "/"); err != nil || !bytes.Equal(res, want) {
		t.Errorf("MNT of / under another credential: %x, %v; want %x", res, err, want)
	}
	if n := ch.mnts.Load(); n != 3 {
		t.Errorf("%d MNTs reached the origin, want 3: another dirpath string and another credential go upstream", n)
	}
}

// TestMountRefusalNotKept: an MNT upstream refuses is asked again.
func TestMountRefusalNotKept(t *testing.T) {
	ch := newChain(t, chainSpec{})
	for i := 0; i < 2; i++ {
		if res, err := mnt(ch.p, ch.cred, "/no/such/export"); err != nil || mntStatus(res) != uint32(nfs3.ErrNoEnt) {
			t.Fatalf("MNT of an unexported path: status %d, %v; want NOENT", mntStatus(res), err)
		}
	}
	if n := ch.mnts.Load(); n != 3 {
		t.Errorf("%d MNTs reached the origin, want 3: each refused one goes upstream", n)
	}
}

// TestMountDroppedWithStaleRoot: once upstream calls the export's root
// handle stale, the next MNT of it goes upstream.
func TestMountDroppedWithStaleRoot(t *testing.T) {
	ch := newChain(t, chainSpec{noCache: true, hook: func(c *sunrpc.Call, next func() ([]byte, error)) ([]byte, error) {
		if c.Proc == nfs3.ProcGetattr {
			return (&nfs3.GetattrRes{Status: nfs3.ErrStale}).Encode(), nil
		}
		return next()
	}})
	if _, err := mnt(ch.p, ch.cred, "/"); err != nil || ch.mnts.Load() != 1 {
		t.Fatalf("repeated MNT: %v with %d MNTs at the origin, want 1", err, ch.mnts.Load())
	}
	if _, err := ch.nc.GetAttr(ch.root); nfs3.StatusOf(err) != nfs3.ErrStale {
		t.Fatalf("GETATTR of the root: %v, want STALE", err)
	}
	if _, err := mnt(ch.p, ch.cred, "/"); err != nil || ch.mnts.Load() != 2 {
		t.Errorf("MNT after a STALE root: %v with %d MNTs at the origin, want 2", err, ch.mnts.Load())
	}
}

// TestMountFailsFastWhileDegraded: with the breaker open an MNT is not
// answered from the kept reply; it fails fast, as every upstream call
// does.
func TestMountFailsFastWhileDegraded(t *testing.T) {
	g := &gate{}
	g.up.Store(true)
	ch := newChain(t, chainSpec{noCache: true, hook: g.hook, config: func(c *Config) {
		c.FailureThreshold, c.ProbeInterval = 1, time.Hour
	}})
	g.up.Store(false)
	if _, err := ch.nc.GetAttr(ch.root); err == nil || !ch.p.Degraded() {
		t.Fatalf("GETATTR through a downed upstream: %v, degraded %v; want an error and the breaker open", err, ch.p.Degraded())
	}
	_, err := mnt(ch.p, ch.cred, "/")
	var rpcErr *sunrpc.RPCError
	if !errors.As(err, &rpcErr) || rpcErr.Stat != sunrpc.SystemErr {
		t.Errorf("MNT with the breaker open: %v, want RPC SystemErr", err)
	}
	if n := ch.mnts.Load(); n != 1 {
		t.Errorf("%d MNTs reached the origin, want 1", n)
	}
}

// TestMountKeptReplyMapped: a kept reply answers only a caller the
// identity mapping still admits.
func TestMountKeptReplyMapped(t *testing.T) {
	alloc := auth.NewAllocator(60000, 1, time.Hour)
	ch := newChain(t, chainSpec{noCache: true, config: func(c *Config) { c.Mapper = auth.NewMapper(alloc) }})
	user, err := auth.DefaultUserOf(ch.cred)
	if err != nil {
		t.Fatal(err)
	}
	alloc.Revoke(user)
	if _, err := mnt(ch.p, sunrpc.UnixCred{UID: 501, GID: 501, MachineName: "chain"}.Encode(), "/"); err != nil {
		t.Fatalf("MNT under the identity pool's only other user: %v", err)
	}
	_, err = mnt(ch.p, ch.cred, "/")
	var rpcErr *sunrpc.RPCError
	if !errors.As(err, &rpcErr) || rpcErr.Stat != sunrpc.SystemErr {
		t.Errorf("repeated MNT by a user the exhausted pool cannot map: %v, want RPC SystemErr", err)
	}
}

// TestMountRepliesBounded: a burst of distinct credentials, from four
// clients at once, resets the kept replies rather than growing them for
// ever, while a credential mounted before goes on being answered.
func TestMountRepliesBounded(t *testing.T) {
	ch := newChain(t, chainSpec{})
	var wg sync.WaitGroup
	for w := uint32(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for uid := w * 500; uid < (w+1)*500; uid++ {
				if _, err := mnt(ch.p, sunrpc.UnixCred{UID: uid, GID: uid, MachineName: "churn"}.Encode(), "/"); err != nil {
					t.Errorf("MNT as uid %d: %v", uid, err)
					return
				}
				if res, err := mnt(ch.p, ch.cred, "/"); err != nil || mntStatus(res) != uint32(nfs3.OK) {
					t.Errorf("repeated MNT amid the churn: status %d, %v", mntStatus(res), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ch.p.attrs.mu.Lock()
	n := len(ch.p.attrs.mounts)
	ch.p.attrs.mu.Unlock()
	if n > internMax {
		t.Errorf("%d MNT replies kept, want at most %d", n, internMax)
	}
	if got := ch.mnts.Load(); got < 2001 || got > 2001+4 {
		t.Errorf("%d MNTs reached the origin, want 2001 and at most one more per client (a reset drops the repeated one's reply)", got)
	}
}
