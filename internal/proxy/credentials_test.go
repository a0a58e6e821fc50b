package proxy

// Credentials ride the call: what the origin sees of who is calling, at
// a cache-less relay that maps identities (the gvfsd role, paper §3) and
// at a write-back cache whose own calls are made for a client.

import (
	"bytes"
	"fmt"
	"gvfs/internal/mountd"
	"reflect"
	"sync"
	"testing"
	"time"

	"gvfs/internal/auth"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

// originCall is one NFS call the origin answered: under which AUTH_UNIX
// uid, with what arguments, and the reply it sent.
type originCall struct {
	proc      uint32
	uid       uint32
	args, res []byte
}

// recordingOrigin is a hook that logs every NFS call the origin answers.
type recordingOrigin struct {
	mu  sync.Mutex
	log []originCall
}

func (o *recordingOrigin) hook(c *sunrpc.Call, next func() ([]byte, error)) ([]byte, error) {
	res, err := next()
	uc, _ := sunrpc.DecodeUnixCred(c.Cred)
	o.mu.Lock()
	o.log = append(o.log, originCall{c.Proc, uc.UID, bytes.Clone(c.Args), bytes.Clone(res)})
	o.mu.Unlock()
	return res, err
}

// taken returns the calls logged since the last call.
func (o *recordingOrigin) taken() []originCall {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := o.log
	o.log = nil
	return out
}

// tenant is one client of a proxy, under its own AUTH_UNIX uid.
type tenant struct {
	uid  uint32
	nc   *nfs3.Client
	root nfs3.FH
}

func newTenant(t *testing.T, ch *chain, uid uint32) *tenant {
	cred := sunrpc.UnixCred{MachineName: "grid", UID: uid, GID: uid}.Encode()
	root, err := mountd.Mount(ch.rpc, cred, "/")
	if err != nil {
		t.Fatal(err)
	}
	return &tenant{uid, nfs3.NewClient(ch.rpc, cred), root}
}

func (tn *tenant) lookup(t *testing.T, name string) nfs3.FH {
	t.Helper()
	fh, _, err := tn.nc.Lookup(tn.root, name)
	if err != nil {
		t.Fatalf("uid %d: LOOKUP %s: %v", tn.uid, name, err)
	}
	return fh
}

// mappedUID is the local identity the mapper gave uid, or uid itself
// without a mapper.
func mappedUID(t *testing.T, alloc *auth.Allocator, uid uint32) uint32 {
	t.Helper()
	if alloc == nil {
		return uid
	}
	id, ok := alloc.Lookup(fmt.Sprintf("uid%d@grid", uid))
	if !ok {
		t.Fatalf("no identity allocated for uid %d", uid)
	}
	return id.UID
}

// TestRelayIdentityAndFidelity: at a cache-less relay that maps
// identities, each of two tenants' READ, WRITE, LOOKUP and SETATTR reaches
// the origin under that tenant's own mapped uid, and the two differ; and
// the relay's READ and WRITE replies carry the origin's post-op
// attributes, and both halves of its wcc_data, field for field — what a
// kernel client revalidates its page cache from.
func TestRelayIdentityAndFidelity(t *testing.T) {
	fs := memfs.New()
	for _, uid := range []uint32{500, 501} {
		if err := fs.WriteFile(fmt.Sprintf("/u%d.img", uid), bytes.Repeat([]byte{byte(uid)}, 3*8192)); err != nil {
			t.Fatal(err)
		}
	}
	origin := &recordingOrigin{}
	alloc := auth.NewAllocator(60000, 16, time.Hour)
	ch := newChain(t, chainSpec{fs: fs, noCache: true, hook: origin.hook,
		config: func(c *Config) { c.Mapper = auth.NewMapper(alloc) }})

	mapped := map[uint32]uint32{}
	for _, uid := range []uint32{500, 501} {
		tn := newTenant(t, ch, uid)
		origin.taken()
		fh := tn.lookup(t, fmt.Sprintf("u%d.img", uid))

		res, err := tn.nc.RawCall(nfs3.ProcRead, (&nfs3.ReadArgs{FH: fh, Offset: 8192, Count: 8192}).Encode())
		if err != nil {
			t.Fatalf("uid %d: READ: %v", uid, err)
		}
		got, err := nfs3.DecodeReadRes(res)
		if err != nil || got.Status != nfs3.OK || got.Attr == nil {
			t.Fatalf("uid %d: READ reply %+v, %v; want OK with attributes", uid, got, err)
		}
		want, _ := nfs3.DecodeReadRes(origin.lastReply(t, nfs3.ProcRead))
		if !reflect.DeepEqual(got.Attr, want.Attr) {
			t.Errorf("uid %d: READ post_op_attr %+v, the origin's %+v", uid, got.Attr, want.Attr)
		}

		args := nfs3.WriteArgs{FH: fh, Offset: 4096, Count: 5000, Stable: nfs3.Unstable, Data: bytes.Repeat([]byte{'w'}, 5000)}
		if res, err = tn.nc.RawCall(nfs3.ProcWrite, args.Encode()); err != nil {
			t.Fatalf("uid %d: WRITE: %v", uid, err)
		}
		var gotW, wantW nfs3.WriteRes
		if err := gotW.DecodeInto(res); err != nil || gotW.Status != nfs3.OK || gotW.Wcc.Before == nil || gotW.Wcc.After == nil {
			t.Fatalf("uid %d: WRITE reply %+v, %v; want OK with both halves of wcc_data", uid, gotW, err)
		}
		if err := wantW.DecodeInto(origin.lastReply(t, nfs3.ProcWrite)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotW.Wcc, wantW.Wcc) {
			t.Errorf("uid %d: WRITE wcc_data %+v / %+v, the origin's %+v / %+v",
				uid, gotW.Wcc.Before, gotW.Wcc.After, wantW.Wcc.Before, wantW.Wcc.After)
		}

		mode := uint32(0600)
		if _, err := tn.nc.SetAttr(fh, nfs3.SetAttr{Mode: &mode}); err != nil {
			t.Fatalf("uid %d: SETATTR: %v", uid, err)
		}

		mapped[uid] = mappedUID(t, alloc, uid)
		seen := map[uint32]bool{}
		for _, c := range origin.taken() {
			seen[c.proc] = true
			if c.uid != mapped[uid] {
				t.Errorf("uid %d: %s reached the origin as uid %d, want %d", uid, nfs3.ProcName(c.proc), c.uid, mapped[uid])
			}
		}
		for _, proc := range []uint32{nfs3.ProcLookup, nfs3.ProcRead, nfs3.ProcWrite, nfs3.ProcSetattr} {
			if !seen[proc] {
				t.Errorf("uid %d: no %s reached the origin", uid, nfs3.ProcName(proc))
			}
		}
	}
	if mapped[500] == mapped[501] || mapped[500] == 500 || mapped[501] == 501 {
		t.Errorf("tenants mapped to uids %d and %d: want two local identities", mapped[500], mapped[501])
	}
}

// lastReply is the origin's reply to the last call of proc it logged.
func (o *recordingOrigin) lastReply(t *testing.T, proc uint32) []byte {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := len(o.log) - 1; i >= 0; i-- {
		if o.log[i].proc == proc {
			return o.log[i].res
		}
	}
	t.Fatalf("no %s reached the origin", nfs3.ProcName(proc))
	return nil
}

// TestWriteBackRunsAsTheWriter: tenant A's file, dirtied in a write-back
// cache, goes back to the origin under A's credential — mapped, when the
// proxy maps identities — although tenant B spoke last, whatever sends
// it: the middleware's WriteBack, its Flush, or B's own READs evicting
// A's dirty frame.
func TestWriteBackRunsAsTheWriter(t *testing.T) {
	for _, mapping := range []bool{false, true} {
		for _, trigger := range []string{"WriteBack", "Flush", "eviction"} {
			t.Run(fmt.Sprintf("%s/mapped=%v", trigger, mapping), func(t *testing.T) {
				fs := memfs.New()
				fs.WriteFile("/a.img", make([]byte, 8192))
				fs.WriteFile("/b.img", bytes.Repeat([]byte{'b'}, 8*8192))
				origin := &recordingOrigin{}
				var alloc *auth.Allocator
				// Two frames: B's READs push A's dirty block out.
				ch := newChain(t, chainSpec{fs: fs, hook: origin.hook,
					cache: &cache.Config{Banks: 1, SetsPerBank: 1, Assoc: 2, BlockSize: 8192, Policy: cache.WriteBack},
					config: func(c *Config) {
						if mapping {
							alloc = auth.NewAllocator(60000, 16, time.Hour)
							c.Mapper = auth.NewMapper(alloc)
						}
					}})
				p := ch.p
				a, b := newTenant(t, ch, 500), newTenant(t, ch, 501)
				afh := a.lookup(t, "a.img")
				data := bytes.Repeat([]byte{'A'}, 8192)
				if _, _, err := a.nc.Write(afh, 0, data, nfs3.Unstable); err != nil {
					t.Fatal(err)
				}
				bfh := b.lookup(t, "b.img")
				if _, err := b.nc.GetAttr(bfh); err != nil {
					t.Fatal(err)
				}
				origin.taken()
				var err error
				switch trigger {
				case "WriteBack":
					err = p.WriteBack()
				case "Flush":
					err = p.Flush()
				case "eviction":
					for blk := uint64(0); blk < 4 && err == nil; blk++ {
						_, _, err = b.nc.Read(bfh, blk*8192, 8192)
					}
				}
				if err != nil {
					t.Fatalf("write-back never succeeded after flaps: %v", err)
				}
				want := mappedUID(t, alloc, 500)
				wrote := false
				for _, c := range origin.taken() {
					var args nfs3.WriteArgs
					if c.proc != nfs3.ProcWrite || args.DecodeRefInto(c.args) != nil || !bytes.Equal(args.FH, afh) {
						continue
					}
					wrote = true
					if c.uid != want {
						t.Errorf("A's dirty block went back as uid %d, want A's %d", c.uid, want)
					}
				}
				if got, _ := fs.ReadFile("/a.img"); !wrote || !bytes.Equal(got, data) {
					t.Errorf("A's block was not written back (%v), or the origin holds other bytes", wrote)
				}
			})
		}
	}
}

// TestKeptCredentialIsInterned: a credential the proxy holds past a call
// — a dirty file's writer, a run ahead's reader — is a copy of its own,
// not the request record's bytes, made once: keeping the same credential
// again, as every WRITE by a file's writer and every run ahead does,
// allocates nothing, mapped or not.
func TestKeptCredentialIsInterned(t *testing.T) {
	for _, mapper := range []*auth.Mapper{nil, auth.NewMapper(auth.NewAllocator(60000, 16, time.Hour))} {
		p := newChain(t, chainSpec{noCache: true, config: func(c *Config) { c.Mapper = mapper }}).p
		c := &sunrpc.Call{Cred: sunrpc.UnixCred{MachineName: "grid", UID: 500, GID: 500}.Encode()}
		kept, err := p.keep(c)
		if err != nil || kept.IsZero() {
			t.Fatalf("mapped=%v: kept %+v, %v", mapper != nil, kept, err)
		}
		if &kept.Body[0] == &c.Cred.Body[0] {
			t.Errorf("mapped=%v: the kept credential aliases the call's", mapper != nil)
		}
		if n := testing.AllocsPerRun(100, func() { p.keep(c) }); n != 0 {
			t.Errorf("mapped=%v: keeping a kept credential again costs %v allocations", mapper != nil, n)
		}
	}
}
