package proxy_test

// The proxy↔upstream seam, checked from the client's side: the same
// control-plane calls get the same answers whatever sits upstream, a
// replica set that is gone looks like a dead transport and not like a
// file system that lost its files, and an nfs3: replica that stops
// answering costs a READ one call timeout, once.

import (
	"bytes"
	"errors"
	"fmt"
	gvfs "gvfs"
	"gvfs/internal/proxy"
	"gvfs/internal/stack/stacktest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/objstore"
	"gvfs/internal/backend/replbe"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

var seamCred = sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "seam"}.Encode()

// dialProxy returns an RPC connection to node that closes with the test.
func dialProxy(t *testing.T, node *stack.Node) *sunrpc.Client {
	t.Helper()
	rpc, err := sunrpc.Dial(node.Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rpc.Close() })
	return rpc
}

// outcome renders one call's result for comparison across upstreams:
// the NFS status (or the RPC-level error) and whatever the test adds.
func outcome(err error, format string, a ...any) string {
	var nerr *nfs3.Error
	switch {
	case err == nil:
		return "NFS3_OK " + fmt.Sprintf(format, a...)
	case errors.As(err, &nerr):
		return nerr.Status.String()
	}
	return "rpc: " + err.Error()
}

func attrString(a *nfs3.Fattr) string {
	if a == nil {
		return "attr=none"
	}
	return fmt.Sprintf("type=%d mode=%o nlink=%d size=%d", a.Type, a.Mode, a.Nlink, a.Size)
}

// controlPlaneRun drives the conformance sequence against one proxy and
// returns each step's outcome in order.
func controlPlaneRun(t *testing.T, node *stack.Node, seed []byte) (steps []string, results map[string]string) {
	t.Helper()
	rpc := dialProxy(t, node)
	results = make(map[string]string)
	record := func(step, out string) {
		steps = append(steps, step)
		results[step] = out
	}
	_, err := mountd.Mount(rpc, seamCred, "/no-such-export")
	record("MOUNT miss", outcome(err, ""))
	root, err := mountd.Mount(rpc, seamCred, "/")
	record("MOUNT", outcome(err, ""))
	if err != nil {
		t.Fatalf("MOUNT /: %v", err)
	}
	nc := nfs3.NewClient(rpc, seamCred)

	fh, attr, err := nc.Lookup(root, "seed.img")
	record("LOOKUP hit", outcome(err, "%s", attrString(attr)))
	if err != nil {
		t.Fatalf("LOOKUP seed.img: %v", err)
	}
	_, _, err = nc.Lookup(root, "absent.img")
	record("LOOKUP miss", outcome(err, ""))
	a, err := nc.GetAttr(fh)
	record("GETATTR file", outcome(err, "%s", attrString(&a)))
	a, err = nc.GetAttr(root)
	record("GETATTR root", outcome(err, "type=%d", a.Type))
	_, err = nc.GetAttr(nfs3.FH("/no/such/handle"))
	record("GETATTR bad handle is an error", fmt.Sprint(err != nil))
	granted, err := nc.Access(fh, 0x3f)
	record("ACCESS", outcome(err, "granted=%#x", granted))
	info, err := nc.FSInfo(root)
	record("FSINFO", outcome(err, "%+v", info))
	data, eof, err := nc.Read(fh, 8192, 8192)
	record("READ seed", outcome(err, "eof=%v match=%v", eof, bytes.Equal(data, seed[8192:16384])))

	nfh, attr, err := nc.Create(root, "new.img", nfs3.SetAttr{}, false)
	record("CREATE", outcome(err, "%s", attrString(attr)))
	if err != nil {
		t.Fatalf("CREATE new.img: %v", err)
	}
	payload := bytes.Repeat([]byte("seam"), 3000)
	n, attr, err := nc.Write(nfh, 0, payload, nfs3.FileSync)
	record("WRITE", outcome(err, "n=%d %s", n, attrString(attr)))
	data, eof, err = nc.Read(nfh, 0, 8192)
	record("READ first block", outcome(err, "eof=%v match=%v", eof, bytes.Equal(data, payload[:8192])))
	data, eof, err = nc.Read(nfh, 8192, 8192)
	record("READ tail", outcome(err, "eof=%v match=%v", eof, bytes.Equal(data, payload[8192:])))
	record("COMMIT", outcome(nc.Commit(nfh, 0, 0), ""))
	a, err = nc.GetAttr(nfh)
	record("GETATTR new", outcome(err, "%s", attrString(&a)))
	_, attr, err = nc.Lookup(root, "new.img")
	record("LOOKUP new", outcome(err, "%s", attrString(attr)))

	// What a flat object store has no word for.
	size := uint64(100)
	_, err = nc.SetAttr(nfh, nfs3.SetAttr{Size: &size})
	record("SETATTR", outcome(err, ""))
	_, _, err = nc.Mkdir(root, "dir", nfs3.SetAttr{})
	record("MKDIR", outcome(err, ""))
	_, _, err = nc.ReadDir(root, 0, 4096)
	record("READDIR", outcome(err, ""))
	_, err = nc.FSStat(root)
	record("FSSTAT", outcome(err, ""))
	record("RENAME", outcome(nc.Rename(root, "new.img", root, "moved.img"), ""))
	record("REMOVE", outcome(nc.Remove(root, "moved.img"), ""))
	return steps, results
}

// TestControlPlaneConformance runs one sequence through a proxy over
// nfsd+memfs and a proxy over objstore. Both answer through
// nfs3.Server, so wherever both can answer they must agree on status
// and attributes, and where objstore cannot it must say
// NFS3ERR_NOTSUPP — in a well-formed reply, not an RPC-level rejection.
func TestControlPlaneConformance(t *testing.T) {
	seed := chaosPattern(20000, 0)

	overNFS := stacktest.New(t, stack.ChainSpec{Upstream: stack.NFS, NoSession: true,
		Seed: func(fs *memfs.FS) { fs.WriteFile("/seed.img", seed) }, Hops: []stack.ProxyOptions{{}}}).Hop()
	store := objstore.NewMemStore()
	if err := objstore.New(store, 0).CreateFile("/seed.img", seed); err != nil {
		t.Fatal(err)
	}
	overObj := stacktest.New(t, stack.ChainSpec{Upstream: stack.Objstore, NoSession: true,
		Hops: []stack.ProxyOptions{{ObjstoreStore: store}}}).Hop()

	steps, want := controlPlaneRun(t, overNFS, seed)
	_, got := controlPlaneRun(t, overObj, seed)
	objstoreCannot := map[string]bool{"SETATTR": true, "MKDIR": true, "READDIR": true,
		"FSSTAT": true, "RENAME": true, "REMOVE": true}
	for _, step := range steps {
		switch {
		case objstoreCannot[step]:
			if want[step] != "NFS3_OK " {
				t.Errorf("%s over nfsd: %q, want NFS3_OK", step, want[step])
			}
			if got[step] != nfs3.ErrNotSupp.String() {
				t.Errorf("%s over objstore: %q, want %s", step, got[step], nfs3.ErrNotSupp)
			}
		case got[step] != want[step]:
			t.Errorf("%s: objstore %q, nfsd %q", step, got[step], want[step])
		}
	}
	if t.Failed() {
		for _, step := range steps {
			t.Logf("%-32s nfsd %-70q objstore %q", step, want[step], got[step])
		}
	}
}

// TestAllReplicasDownIsSystemErr: every replica of an objstore-only
// set fails at the transport level. LOOKUP and GETATTR must reach the
// client as RPC SystemErr on every call — while the replicas are still
// being tried and after the set has marked them all down — never as an
// NFS status a client would take for the file's state.
func TestAllReplicasDownIsSystemErr(t *testing.T) {
	var reps []replbe.Replica
	var stores []*objstore.Backend
	for i := 0; i < 2; i++ {
		b := objstore.New(objstore.NewMemStore(), 0)
		for _, name := range []string{"/disk.img", "/unseen.img"} {
			if err := b.CreateFile(name, chaosPattern(16384, 0)); err != nil {
				t.Fatal(err)
			}
		}
		stores = append(stores, b)
		reps = append(reps, replbe.Replica{Name: fmt.Sprintf("r%d", i), B: b})
	}
	node := stacktest.New(t, stack.ChainSpec{Upstream: stack.Own, NoSession: true, Hops: []stack.ProxyOptions{{
		Backend:         stack.BackendRepl,
		ReplicaBackends: reps,
		ReplConfig:      replbe.Config{ScrubInterval: -1, ProbeInterval: time.Hour},
	}}}).Hop()
	rpc := dialProxy(t, node)
	root, err := mountd.Mount(rpc, seamCred, "/")
	if err != nil {
		t.Fatal(err)
	}
	nc := nfs3.NewClient(rpc, seamCred)
	if _, _, err := nc.Lookup(root, "disk.img"); err != nil {
		t.Fatal(err)
	}
	// A file the session has looked up has a shadow size, and the proxy
	// answers its GETATTR from that whatever the upstream does (session
	// consistency). The root and a file never seen have none.
	unseen := nfs3.FH("/unseen.img") // an objstore handle is the path
	for _, b := range stores {
		b.SetFault(&backend.Error{Class: backend.ClassUnavailable, Op: "test", Err: errors.New("store gone")})
	}
	wantSystemErr := func(call string, err error) {
		t.Helper()
		var rpcErr *sunrpc.RPCError
		if !errors.As(err, &rpcErr) || rpcErr.Stat != sunrpc.SystemErr {
			t.Errorf("%s with every replica down: %v, want RPC SystemErr", call, err)
		}
	}
	for i := 0; i < 2*backend.DefaultFailureThreshold; i++ {
		_, _, err := nc.Lookup(root, "disk.img")
		wantSystemErr(fmt.Sprintf("LOOKUP #%d", i), err)
		_, err = nc.GetAttr(unseen)
		wantSystemErr(fmt.Sprintf("GETATTR #%d", i), err)
		_, err = nc.GetAttr(root)
		wantSystemErr(fmt.Sprintf("GETATTR root #%d", i), err)
	}
	_, err = mountd.Mount(rpc, seamCred, "/")
	wantSystemErr("MOUNT", err)
	down := 0
	for _, rs := range node.Proxy.Statusz().Replication.Replicas {
		if rs.State == "down" {
			down++
		}
	}
	if down != len(reps) {
		t.Errorf("%d of %d replicas marked down; the calls after the trip were not exercised", down, len(reps))
	}
}

// readSpy wraps an NFS server's handler: it counts how often each READ
// XID arrives, answers READs after delay and, while stalled, not at all.
type readSpy struct {
	inner   sunrpc.Handler
	delay   time.Duration
	stalled atomic.Bool
	release chan struct{}

	mu   sync.Mutex
	seen map[uint32]int // READ XID -> arrivals
}

func (s *readSpy) HandleCall(c *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
	if c.Proc == nfs3.ProcRead {
		s.mu.Lock()
		s.seen[c.XID]++
		s.mu.Unlock()
		time.Sleep(s.delay)
		if s.stalled.Load() {
			<-s.release
		}
	}
	return s.inner.HandleCall(c)
}

// arrivals returns the number of distinct READ XIDs seen and the most
// often any one of them arrived.
func (s *readSpy) arrivals() (xids, most int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.seen {
		if n > most {
			most = n
		}
	}
	return len(s.seen), most
}

// TestReplicaSetOwnsTheRetry builds a two-replica set from "nfs3:"
// specs, the way the daemon does. When the primary stops answering, a
// READ costs one call timeout and is then answered by r1: the primary's
// client does not retransmit inside the call (the server sees the XID
// once), because failing over is the set's retry. When the primary is
// killed mid-READ, r1 answers well inside one call timeout.
func TestReplicaSetOwnsTheRetry(t *testing.T) {
	const callTimeout = 400 * time.Millisecond
	content := chaosPattern(5*nfs3.MaxTransfer, 0)
	// r1 answers READs slowly, so once both have a latency score the set
	// reads from r0 first: the failures below are r0's.
	spies := []*readSpy{{}, {delay: 20 * time.Millisecond}}
	var addrs []string
	var servers []*sunrpc.Server
	for _, spy := range spies {
		fs := memfs.New()
		if err := fs.WriteFile("/disk.img", content); err != nil {
			t.Fatal(err)
		}
		root, err := fs.Root()
		if err != nil {
			t.Fatal(err)
		}
		spy.inner, spy.release, spy.seen = nfs3.NewServer(fs), make(chan struct{}), make(map[uint32]int)
		md := mountd.NewServer()
		md.Export("/", root)
		srv := sunrpc.NewServer()
		srv.Register(nfs3.Program, nfs3.Version, spy)
		srv.Register(nfs3.MountProgram, nfs3.MountVersion, md)
		l, err := stack.ListenOn("", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(srv.Close)
		t.Cleanup(func() { close(spy.release) })
		addrs = append(addrs, l.Addr().String())
		servers = append(servers, srv)
	}
	spy, primary := spies[0], servers[0]

	c := stacktest.New(t, stack.ChainSpec{Upstream: stack.Own, Session: gvfs.SessionConfig{Cred: seamCred}, Hops: []stack.ProxyOptions{{
		Backend:             stack.BackendRepl,
		Replicas:            []string{"nfs3:" + addrs[0], "nfs3:" + addrs[1]},
		UpstreamCallTimeout: callTimeout,
		UpstreamMaxRetries:  3, // the single upstream's budget; replicas must not inherit it
		// A cache keeps READs on the backend data path; hedging off, so
		// r1 is reached by failover only.
		CacheConfig: &cache.Config{Banks: 4, SetsPerBank: 4, Assoc: 2, BlockSize: 8192, Policy: cache.WriteThrough},
		ReplConfig:  replbe.Config{HedgeQuantile: -1, ScrubInterval: -1, FailThreshold: 100},
	}}})
	node, nc, root := c.Hop(), c.Session().NFS(), c.Session().Root()
	fh, _, err := nc.Lookup(root, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	// READ i asks for the first block of the file's i-th aligned run: the
	// block before it is never resident, so each READ is a miss of one
	// block that reaches a replica.
	readBlock := func(run uint64) error {
		block := run * nfs3.MaxTransfer / 8192
		data, _, err := nc.Read(fh, block*8192, 8192)
		if err == nil && !bytes.Equal(data, content[block*8192:(block+1)*8192]) {
			err = fmt.Errorf("block %d: wrong bytes", block)
		}
		return err
	}
	// An unscored replica is tried first, so two READs score both.
	for block := uint64(0); block < 2; block++ {
		if err := readBlock(block); err != nil {
			t.Fatalf("READ with both replicas up: %v", err)
		}
	}
	if xids, _ := spy.arrivals(); xids != 1 {
		t.Fatalf("primary saw %d of the two warm-up READs, want 1", xids)
	}

	// Stalled: the primary has the call and never answers.
	spy.stalled.Store(true)
	start := time.Now()
	if err := readBlock(2); err != nil {
		t.Fatalf("READ with the primary stalled: %v", err)
	}
	if d := time.Since(start); d < callTimeout || d > 2*callTimeout {
		t.Errorf("READ with the primary stalled took %v, want one call timeout (%v) and then r1", d, callTimeout)
	}
	if xids, most := spy.arrivals(); xids != 2 || most != 1 {
		t.Errorf("primary saw %d READ XIDs, one of them %d times; want 2 XIDs once each (no retransmission)", xids, most)
	}

	// Killed mid-READ: the connection dies under the call.
	done := make(chan error, 1)
	go func() { done <- readBlock(3) }()
	proxy.WaitUntil(t, "the primary to receive the READ", 5*time.Second, func() bool { xids, _ := spy.arrivals(); return xids == 3 })
	killed := time.Now()
	primary.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("READ with the primary killed under it: %v", err)
		}
		if d := time.Since(killed); d > callTimeout {
			t.Errorf("r1 answered %v after the kill, want within one call timeout (%v)", d, callTimeout)
		}
	case <-time.After(10 * callTimeout):
		t.Fatalf("READ not answered %v after the primary was killed", 10*callTimeout)
	}
	if _, most := spy.arrivals(); most != 1 {
		t.Errorf("the dead primary saw one READ XID %d times", most)
	}
	// The next READ finds the primary's port closed: one failed redial,
	// no ladder of them, then r1.
	start = time.Now()
	if err := readBlock(4); err != nil {
		t.Fatalf("READ after the kill: %v", err)
	}
	if d := time.Since(start); d > callTimeout {
		t.Errorf("READ after the kill took %v, want well inside one call timeout (%v)", d, callTimeout)
	}
	if st := node.Proxy.Snapshot(); st.Counter("gvfs_rpc_retries_total") != 0 {
		t.Errorf("replica clients retransmitted %d times", st.Counter("gvfs_rpc_retries_total"))
	}
}

// TestLongObjectPathHandles: an objstore handle is the object's path, so
// it outgrows RFC 1813's 64 bytes as soon as the path does. Such a file
// must stay reachable through the proxy — LOOKUP, READ, CREATE, WRITE,
// write-back flush — up to nfs3.MaxFHSize, and a path past that is
// refused by name where the handle would have been made, with nothing
// created behind it.
func TestLongObjectPathHandles(t *testing.T) {
	seed := chaosPattern(20000, 0)
	long := strings.Repeat("golden-image-", 8) + "rhel.vmdk" // 113 bytes
	store := objstore.NewMemStore()
	origin := objstore.New(store, 0)
	if err := origin.CreateFile("/"+long, seed); err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		hop := stack.ProxyOptions{ObjstoreStore: store}
		if cached {
			hop.CacheConfig = &cache.Config{Banks: 4, SetsPerBank: 4, Assoc: 2, BlockSize: 8192, Policy: cache.WriteBack}
		}
		c := stacktest.New(t, stack.ChainSpec{Upstream: stack.Objstore, Session: gvfs.SessionConfig{Cred: seamCred},
			Hops: []stack.ProxyOptions{hop}})
		node, nc, root := c.Hop(), c.Session().NFS(), c.Session().Root()

		fh, attr, err := nc.Lookup(root, long)
		if err != nil || attr == nil || attr.Size != uint64(len(seed)) {
			t.Fatalf("cached=%v: LOOKUP of a %d-byte name: attr %v, %v", cached, len(long), attr, err)
		}
		if len(fh) <= 64 {
			t.Fatalf("handle is %d bytes: the test no longer drives a long one", len(fh))
		}
		data, _, err := nc.Read(fh, 8192, 8192)
		if err != nil || !bytes.Equal(data, seed[8192:16384]) {
			t.Errorf("cached=%v: READ through a %d-byte handle: %d bytes, %v", cached, len(fh), len(data), err)
		}

		name := fmt.Sprintf("%s.clone-%v", long, cached)
		nfh, _, err := nc.Create(root, name, nfs3.SetAttr{}, false)
		if err != nil {
			t.Fatalf("cached=%v: CREATE of a %d-byte name: %v", cached, len(name), err)
		}
		payload := bytes.Repeat([]byte("seam"), 4096)
		if n, _, err := nc.Write(nfh, 0, payload, nfs3.Unstable); err != nil || int(n) != len(payload) {
			t.Fatalf("cached=%v: WRITE through a %d-byte handle: %d, %v", cached, len(nfh), n, err)
		}
		if err := node.Proxy.Flush(); err != nil {
			t.Fatalf("cached=%v: Flush: %v", cached, err)
		}
		r, err := origin.Read(backend.FileID("/"+name), 0, uint32(len(payload)), backend.CallOpts{})
		if err != nil || !bytes.Equal(r.Data, payload) {
			t.Errorf("cached=%v: the store holds %d bytes of %s, %v", cached, len(r.Data), name, err)
		}

		tooLong := strings.Repeat("x", nfs3.MaxFHSize)
		var nerr *nfs3.Error
		if _, _, err := nc.Lookup(root, tooLong); !errors.As(err, &nerr) || nerr.Status != nfs3.ErrNameTooLong {
			t.Errorf("cached=%v: LOOKUP of a path past the handle bound: %v, want NFS3ERR_NAMETOOLONG", cached, err)
		}
		if _, _, err := nc.Create(root, tooLong, nfs3.SetAttr{}, false); !errors.As(err, &nerr) || nerr.Status != nfs3.ErrNameTooLong {
			t.Errorf("cached=%v: CREATE of a path past the handle bound: %v, want NFS3ERR_NAMETOOLONG", cached, err)
		}
		if _, err := origin.GetAttr(backend.FileID("/"+tooLong), backend.CallOpts{}); backend.Classify(err) != backend.ClassNotFound {
			t.Errorf("cached=%v: the refused CREATE left an object behind (GetAttr: %v)", cached, err)
		}
	}
}
