package proxy

// QoS wiring tests: shed replies on the NFS wire, admission at
// HandleCall, deadline stamping/propagation through the trace
// verifier, and the brownout miss-deferral path.

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/cache"
	"gvfs/internal/nfs3"
	"gvfs/internal/qos"
	"gvfs/internal/sunrpc"
)

func TestShedReplyWireFormat(t *testing.T) {
	read := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcRead}
	res, stat := shedReply(read)
	if stat != sunrpc.Success {
		t.Fatalf("READ shed stat = %v, want Success carrying NFS status", stat)
	}
	r, err := nfs3.DecodeReadRes(res)
	if err != nil || r.Status != nfs3.ErrJukebox {
		t.Fatalf("READ shed reply = %+v, %v; want NFS3ERR_JUKEBOX", r, err)
	}

	write := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcWrite}
	res, stat = shedReply(write)
	var w nfs3.WriteRes
	err = w.DecodeInto(res)
	if stat != sunrpc.Success || err != nil || w.Status != nfs3.ErrJukebox {
		t.Fatalf("WRITE shed reply = %+v, %v, %v", w, err, stat)
	}

	// Procedures without a retriable encoding (and foreign programs)
	// fall back to an RPC-level system error.
	null := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcNull}
	if _, stat := shedReply(null); stat != sunrpc.SystemErr {
		t.Errorf("NULL shed stat = %v, want SystemErr", stat)
	}
	mnt := &sunrpc.Call{Prog: nfs3.MountProgram, Vers: nfs3.MountVersion, Proc: 1}
	if _, stat := shedReply(mnt); stat != sunrpc.SystemErr {
		t.Errorf("MOUNT shed stat = %v, want SystemErr", stat)
	}
}

// blockingCaller parks every upstream call until released.
type blockingCaller struct {
	entered chan struct{} // signaled once per call that reaches upstream
	release chan struct{}
}

func (b *blockingCaller) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	b.entered <- struct{}{}
	<-b.release
	return (&nfs3.ReadRes{Status: nfs3.ErrServerFault}).Encode(), nil
}

func readCall(count uint32) *sunrpc.Call {
	args := nfs3.ReadArgs{FH: nfs3.FH("qos-test-fh"), Count: count}
	return &sunrpc.Call{
		Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcRead,
		Args: args.Encode(),
	}
}

// callCost runs on every call admitted under -qos; weighing a READ by
// its count allocates nothing.
func TestCallCostAllocs(t *testing.T) {
	c := readCall(8192)
	var cost int
	allocs := testing.AllocsPerRun(100, func() { cost = callCost(c) })
	if cost != 8192+metaCallCost || allocs != 0 {
		t.Errorf("callCost = %d with %.0f allocs/op, want %d with 0", cost, allocs, 8192+metaCallCost)
	}
}

// A file handle longer than NFS3_FHSIZE is refused as GARBAGE_ARGS before
// it can become a key of the attribute table or of accounting.
func TestOversizeHandleIsGarbageArgs(t *testing.T) {
	p, err := New(Config{Upstream: stubCaller{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	fh := nfs3.FH(bytes.Repeat([]byte{7}, nfs3.MaxFHSize+1))
	for proc, args := range map[uint32][]byte{
		nfs3.ProcGetattr: (&nfs3.GetattrArgs{FH: fh}).Encode(),
		nfs3.ProcLookup:  (&nfs3.LookupArgs{Dir: fh, Name: "x"}).Encode(),
		nfs3.ProcRead:    (&nfs3.ReadArgs{FH: fh, Count: 4096}).Encode(),
		nfs3.ProcWrite:   (&nfs3.WriteArgs{FH: fh, Count: 1, Data: []byte{1}}).Encode(),
		nfs3.ProcSetattr: (&nfs3.SetattrArgs{FH: fh}).Encode(),
		nfs3.ProcRemove:  (&nfs3.LookupArgs{Dir: fh, Name: "x"}).Encode(),
	} {
		_, stat := p.HandleCall(&sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: proc, Args: args})
		if stat != sunrpc.GarbageArgs {
			t.Errorf("%s with a %d-byte handle: %v, want GARBAGE_ARGS", nfs3.ProcName(proc), len(fh), stat)
		}
	}
}

func TestHandleCallShedsWhenClientQueueFull(t *testing.T) {
	sched := qos.New(qos.Config{MaxConcurrent: 1, PerClientQueue: 1})
	defer sched.Close()
	up := &blockingCaller{entered: make(chan struct{}, 4), release: make(chan struct{})}
	p, err := New(Config{Upstream: up, QoS: sched})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

	var wg sync.WaitGroup
	wg.Add(2)
	// First call takes the only concurrency slot and parks upstream.
	go func() {
		defer wg.Done()
		p.HandleCall(readCall(4096))
	}()
	<-up.entered
	// Second call fills the client's queue of one.
	go func() {
		defer wg.Done()
		p.HandleCall(readCall(4096))
	}()
	waitUntil(t, "second call queued", func() bool {
		for _, ts := range sched.Snapshot() {
			if ts.Queued == 1 {
				return true
			}
		}
		return false
	})

	// Third call must bounce off the queue bound with JUKEBOX.
	res, stat := p.HandleCall(readCall(4096))
	if stat != sunrpc.Success {
		t.Fatalf("shed stat = %v", stat)
	}
	r, err := nfs3.DecodeReadRes(res)
	if err != nil || r.Status != nfs3.ErrJukebox {
		t.Fatalf("overflow call reply = %+v, %v; want NFS3ERR_JUKEBOX", r, err)
	}

	close(up.release)
	wg.Wait()
}

func TestHandleCallShedsExpiredDeadline(t *testing.T) {
	sched := qos.New(qos.Config{})
	defer sched.Close()
	p, err := New(Config{Upstream: stubCaller{}, QoS: sched})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

	c := readCall(4096)
	c.Deadline = time.Now().Add(-time.Millisecond)
	res, stat := p.HandleCall(c)
	if stat != sunrpc.Success {
		t.Fatalf("expired-call stat = %v", stat)
	}
	r, err := nfs3.DecodeReadRes(res)
	if err != nil || r.Status != nfs3.ErrJukebox {
		t.Fatalf("expired call reply = %+v, %v; want NFS3ERR_JUKEBOX", r, err)
	}
}

func TestSetDeadlineFromVerifierBudget(t *testing.T) {
	p, err := New(Config{Upstream: stubCaller{}, CallBudget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	now := time.Now()

	// A propagated budget wins over the local default.
	c := readCall(4096)
	tc := sunrpc.TraceContext{ID: 7, Hop: 1, BudgetMs: 250}
	c.Verf = tc.EncodeVerf()
	p.setDeadline(c, now)
	if got := c.Deadline.Sub(now); got != 250*time.Millisecond {
		t.Errorf("verifier budget deadline = %v, want 250ms", got)
	}

	// Without a budget word the configured CallBudget applies.
	c2 := readCall(4096)
	p.setDeadline(c2, now)
	if got := c2.Deadline.Sub(now); got != time.Minute {
		t.Errorf("default budget deadline = %v, want 1m", got)
	}
}

// verfRecorder captures the verifier and deadline of upstream calls.
type verfRecorder struct {
	mu       sync.Mutex
	verf     sunrpc.OpaqueAuth
	deadline time.Time
}

func (v *verfRecorder) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	return nil, nil
}

func (v *verfRecorder) CallPooled(prog, vers, proc uint32, cred, verf sunrpc.OpaqueAuth, args []byte, deadline time.Time) ([]byte, []byte, error) {
	v.mu.Lock()
	v.verf, v.deadline = verf, deadline
	v.mu.Unlock()
	return nil, nil, nil
}

func TestUpstreamCallPropagatesRemainingBudget(t *testing.T) {
	up := &verfRecorder{}
	deadline := time.Now().Add(2 * time.Second)
	if _, err := nfs3be.Call(up, nfs3.Program, nfs3.Version, nfs3.ProcNull,
		sunrpc.OpaqueAuth{}, nil, backend.CallOpts{Deadline: deadline}); err != nil {
		t.Fatal(err)
	}
	up.mu.Lock()
	verf, got := up.verf, up.deadline
	up.mu.Unlock()
	if !got.Equal(deadline) {
		t.Errorf("upstream deadline = %v, want %v", got, deadline)
	}
	tc, ok := sunrpc.DecodeTraceVerf(verf)
	if !ok {
		t.Fatal("upstream call carried no trace verifier")
	}
	if tc.BudgetMs == 0 || tc.BudgetMs > 2000 {
		t.Errorf("propagated budget = %dms, want (0, 2000]", tc.BudgetMs)
	}

	// A zero deadline must not invent a budget.
	up2 := &verfRecorder{}
	if _, err := nfs3be.Call(up2, nfs3.Program, nfs3.Version, nfs3.ProcNull,
		sunrpc.OpaqueAuth{}, nil, backend.CallOpts{}); err != nil {
		t.Fatal(err)
	}
	up2.mu.Lock()
	verf2 := up2.verf
	up2.mu.Unlock()
	if len(verf2.Body) != 0 {
		t.Error("zero deadline produced a verifier on an untraced call")
	}
}

func TestBrownoutDefersCacheMisses(t *testing.T) {
	// The EWMA only sees nonzero samples from *queued* admissions, so
	// park one call on the single concurrency slot, let another age in
	// the queue well past the 100µs threshold, then release.
	sched := qos.New(qos.Config{MaxConcurrent: 1, BrownoutEnter: 100 * time.Microsecond})
	defer sched.Close()
	bc, err := cache.New(cache.Config{
		Dir: t.TempDir(), Banks: 2, SetsPerBank: 4, Assoc: 2, BlockSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	up := &blockingCaller{entered: make(chan struct{}, 4), release: make(chan struct{})}
	p, err := New(Config{Upstream: up, QoS: sched, BlockCache: bc})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.HandleCall(readCall(4096))
	}()
	<-up.entered
	go func() {
		defer wg.Done()
		p.HandleCall(readCall(4096))
	}()
	waitUntil(t, "second call queued", func() bool {
		for _, ts := range sched.Snapshot() {
			if ts.Queued == 1 {
				return true
			}
		}
		return false
	})
	time.Sleep(10 * time.Millisecond) // queue delay >> BrownoutEnter
	close(up.release)
	wg.Wait()
	if !p.brownout() {
		t.Fatal("sustained queue delay did not trip brownout")
	}
	missesBefore := p.stats.readMisses.Value()

	// A cold read is a cache miss: brownout must defer it with
	// JUKEBOX instead of spending an upstream round trip.
	res, stat := p.HandleCall(readCall(4096))
	if stat != sunrpc.Success {
		t.Fatalf("brownout miss stat = %v", stat)
	}
	r, derr := nfs3.DecodeReadRes(res)
	if derr != nil || r.Status != nfs3.ErrJukebox {
		t.Fatalf("brownout miss reply = %+v, %v; want NFS3ERR_JUKEBOX", r, derr)
	}
	if p.stats.brownoutShed.Value() == 0 {
		t.Error("brownout shed counter not incremented")
	}
	if p.stats.readMisses.Value() != missesBefore {
		t.Error("deferred miss still counted as a forwarded miss")
	}
}

// stubCaller is an upstream that fails every call.
type stubCaller struct{}

func (stubCaller) Call(prog, vers, proc uint32, cred sunrpc.OpaqueAuth, args []byte) ([]byte, error) {
	return nil, errors.New("stub upstream")
}
