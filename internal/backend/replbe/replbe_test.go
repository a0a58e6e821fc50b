package replbe

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/objstore"
	"gvfs/internal/bubble"
	"gvfs/internal/bufpool"
)

const testFile = "/images/vm0.img"

func fileContent(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*13 + i>>9)
	}
	return data
}

// mkObj builds one objstore replica holding testFile with content.
func mkObj(t *testing.T, content []byte) *objstore.Backend {
	t.Helper()
	b := objstore.New(objstore.NewMemStore(), 8192)
	if err := b.CreateFile(testFile, content); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return b
}

func unavailable() error {
	return &backend.Error{Class: backend.ClassUnavailable, Op: "fault", Err: errors.New("injected outage")}
}

// mkSet builds a composite over n identically seeded objstore replicas.
func mkSet(t *testing.T, n int, cfg Config) (*Backend, []*objstore.Backend, []byte) {
	t.Helper()
	content := fileContent(40960)
	var reps []Replica
	var objs []*objstore.Backend
	for i := 0; i < n; i++ {
		o := mkObj(t, content)
		objs = append(objs, o)
		reps = append(reps, Replica{B: o})
	}
	c, err := New(reps, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, objs, content
}

func TestFailoverRead(t *testing.T) {
	c, objs, content := mkSet(t, 3, Config{ScrubInterval: -1})
	objs[0].SetFault(unavailable())
	for i := 0; i < 5; i++ {
		r, err := c.Read(backend.FileID(testFile), 0, 8192, backend.CallOpts{})
		if err != nil {
			t.Fatalf("read %d with one dead replica: %v", i, err)
		}
		if !bytes.Equal(r.Data, content[:8192]) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
	}
	st := c.Stats()
	if st.Failovers == 0 {
		t.Error("no failovers recorded despite a dead replica")
	}
	if st.Replicas[0].State != "down" {
		t.Errorf("replica 0 state = %q after repeated failures, want down", st.Replicas[0].State)
	}
}

func TestAllReplicasDownIsUnavailable(t *testing.T) {
	c, objs, _ := mkSet(t, 3, Config{ScrubInterval: -1})
	for _, o := range objs {
		o.SetFault(unavailable())
	}
	_, err := c.Read(backend.FileID(testFile), 0, 8192, backend.CallOpts{})
	if err == nil {
		t.Fatal("read succeeded with every replica dead")
	}
	if cl := backend.Classify(err); cl != backend.ClassUnavailable {
		t.Errorf("whole-set failure classified %v, want unavailable", cl)
	}
	if err := c.Probe(); err == nil {
		t.Error("probe reported a fully dead set healthy")
	}
}

func TestAuthoritativeErrorNotRetried(t *testing.T) {
	c, objs, _ := mkSet(t, 3, Config{ScrubInterval: -1})
	// A missing file is an authoritative NotFound from the first
	// replica; the composite must not mask it by trying the others.
	_, err := c.Read(backend.FileID("/nope"), 0, 8192, backend.CallOpts{})
	if cl := backend.Classify(err); cl != backend.ClassNotFound {
		t.Errorf("missing file classified %v, want not-found", cl)
	}
	if got := c.Stats().Failovers; got != 0 {
		t.Errorf("authoritative error caused %d failovers, want 0", got)
	}
	_ = objs
}

func TestWriteReplicatesAsync(t *testing.T) {
	c, objs, _ := mkSet(t, 3, Config{ScrubInterval: -1})
	patch := bytes.Repeat([]byte{0xAB}, 8192)
	if _, err := c.Write(backend.FileID(testFile), 8192, patch, backend.CallOpts{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Read-your-writes through the composite, immediately.
	r, err := c.Read(backend.FileID(testFile), 8192, 8192, backend.CallOpts{})
	if err != nil || !bytes.Equal(r.Data, patch) {
		t.Fatalf("readback through composite: err=%v match=%v", err, bytes.Equal(r.Data, patch))
	}
	if !c.WaitReplicated(5 * time.Second) {
		t.Fatal("replication queues did not drain")
	}
	// Every replica holds the write after the queues drain.
	for i, o := range objs {
		r, err := o.Read(backend.FileID(testFile), 8192, 8192, backend.CallOpts{})
		if err != nil || !bytes.Equal(r.Data, patch) {
			t.Errorf("replica %d missing replicated write: err=%v", i, err)
		}
	}
}

func TestFailedReplicationMarksStaleThenScrubRepairs(t *testing.T) {
	c, objs, _ := mkSet(t, 3, Config{ScrubInterval: -1})
	objs[2].SetFault(unavailable())
	patch := bytes.Repeat([]byte{0xCD}, 8192)
	if _, err := c.Write(backend.FileID(testFile), 0, patch, backend.CallOpts{}); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !c.WaitReplicated(5 * time.Second) {
		t.Fatal("replication queues did not drain")
	}
	if got := c.Stats().Replicas[2].StaleFiles; got != 1 {
		t.Fatalf("replica 2 stale files = %d after failed replication, want 1", got)
	}
	// While stale, reads must never land on replica 2 (its copy is old).
	if c.reps[2].consistentFor(testFile) {
		t.Fatal("stale replica still considered consistent")
	}
	objs[2].SetFault(nil)
	c.reps[2].br.Recover() // probe loop would do this; keep the test synchronous
	c.ScrubNow()
	st := c.Stats()
	if st.Scrub.BlocksRepaired == 0 {
		t.Fatalf("scrub repaired nothing: %+v", st.Scrub)
	}
	if got := st.Replicas[2].StaleFiles; got != 0 {
		t.Errorf("stale files = %d after scrub, want 0", got)
	}
	r, err := objs[2].Read(backend.FileID(testFile), 0, 8192, backend.CallOpts{})
	if err != nil || !bytes.Equal(r.Data, patch) {
		t.Errorf("replica 2 still divergent after scrub: err=%v", err)
	}
}

func TestScrubDetectsAndRepairsDivergence(t *testing.T) {
	c, objs, _ := mkSet(t, 3, Config{ScrubInterval: -1})
	// Diverge replica 1 behind the composite's back: a direct write the
	// replication machinery never saw (bit rot, a rogue writer).
	rogue := bytes.Repeat([]byte{0x66}, 8192)
	if _, err := objs[1].Write(backend.FileID(testFile), 16384, rogue, backend.CallOpts{}); err != nil {
		t.Fatalf("rogue write: %v", err)
	}
	c.RegisterFile(backend.FileID(testFile))
	c.ScrubNow()
	st := c.Stats().Scrub
	if st.BlocksDivergent == 0 {
		t.Fatalf("scrub saw no divergence: %+v", st)
	}
	if st.BlocksRepaired == 0 {
		t.Fatalf("scrub repaired no blocks: %+v", st)
	}
	want := fileContent(40960)[16384 : 16384+8192]
	r, err := objs[1].Read(backend.FileID(testFile), 16384, 8192, backend.CallOpts{})
	if err != nil || !bytes.Equal(r.Data, want) {
		t.Errorf("replica 1 not repaired: err=%v", err)
	}
}

func TestQuorumWrite(t *testing.T) {
	c, objs, _ := mkSet(t, 3, Config{Quorum: true, ScrubInterval: -1})
	objs[2].SetFault(unavailable())
	patch := bytes.Repeat([]byte{0xEE}, 8192)
	// 2 of 3 up: quorum holds.
	if _, err := c.Write(backend.FileID(testFile), 0, patch, backend.CallOpts{}); err != nil {
		t.Fatalf("write with 2/3 replicas: %v", err)
	}
	if got := c.Stats().Replicas[2].StaleFiles; got != 1 {
		t.Errorf("skipped replica stale files = %d, want 1", got)
	}
	// 1 of 3 up: below quorum, the write must fail as Unavailable.
	objs[1].SetFault(unavailable())
	_, err := c.Write(backend.FileID(testFile), 0, patch, backend.CallOpts{})
	if err == nil {
		t.Fatal("write succeeded below quorum")
	}
	if cl := backend.Classify(err); cl != backend.ClassUnavailable {
		t.Errorf("below-quorum write classified %v, want unavailable", cl)
	}
}

func TestProbeRecovery(t *testing.T) {
	c, objs, _ := mkSet(t, 2, Config{ProbeInterval: 10 * time.Millisecond, ScrubInterval: -1})
	objs[0].SetFault(unavailable())
	for i := 0; i < 4; i++ {
		c.Read(backend.FileID(testFile), 0, 512, backend.CallOpts{})
	}
	if !c.reps[0].isDown() {
		t.Fatal("replica 0 not marked down after repeated failures")
	}
	objs[0].SetFault(nil)
	deadline := time.Now().Add(5 * time.Second)
	for c.reps[0].isDown() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.reps[0].isDown() {
		t.Fatal("probe loop never recovered the healed replica")
	}
}

// slowBackend delays reads by the current value of delay, simulating a
// stalled-but-alive replica.
type slowBackend struct {
	backend.Backend
	delayNs atomic.Int64
}

func (s *slowBackend) Read(f backend.FileID, off uint64, count uint32, opts backend.CallOpts) (backend.ReadResult, error) {
	if d := s.delayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return s.Backend.Read(f, off, count, opts)
}

func TestHedgedReadBeatsStalledReplica(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		content := fileContent(40960)
		slow := &slowBackend{Backend: mkObj(t, content)}
		// The hedge target carries a constant 300µs so the other replica is
		// deterministically the EWMA-preferred primary.
		fast := &slowBackend{Backend: mkObj(t, content)}
		fast.delayNs.Store(int64(300 * time.Microsecond))
		c, err := New([]Replica{{Name: "a", B: slow}, {Name: "b", B: fast}}, Config{
			ScrubInterval: -1,
			HedgeBudget:   1.0, // the test wants every slow read hedged
		})
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		defer c.Close()
		fid := backend.FileID(testFile)
		// Warm the latency distribution past the hedge threshold while both
		// replicas are fast.
		for i := 0; i < hedgeWarmup+5; i++ {
			if _, err := c.Read(fid, 0, 4096, backend.CallOpts{}); err != nil {
				t.Fatalf("warmup read: %v", err)
			}
		}
		if got := c.Stats().Replicas[0].Ops; got == 0 {
			t.Fatal("primary never served the warmup reads; routing premise broken")
		}
		// Stall replica a. Its EWMA is the lowest (it answered instantly so
		// far), so it stays the first routing choice — exactly the case
		// hedging exists for.
		slow.delayNs.Store(int64(200 * time.Millisecond))
		start := time.Now()
		r, err := c.Read(fid, 0, 4096, backend.CallOpts{})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("hedged read: %v", err)
		}
		if !bytes.Equal(r.Data, content[:4096]) {
			t.Fatal("hedged read returned wrong bytes")
		}
		// In virtual time the warm-up reads took none, so the hedge fires at
		// the floor and replica b answers 300µs later.
		if want := hedgeMinDelay + 300*time.Microsecond; bubble.Virtual && elapsed != want {
			t.Errorf("hedged read took %v, want %v", elapsed, want)
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("hedged read took %v; the hedge should have beaten the 200ms stall", elapsed)
		}
		st := c.Stats()
		if st.HedgesFired == 0 || st.HedgesWon == 0 {
			t.Errorf("hedge counters: fired=%d won=%d, want both > 0", st.HedgesFired, st.HedgesWon)
		}
	})
}

// lendingBackend answers reads as nfs3be does — in a pooled record the
// receiver releases — and stalls whichever read is the first of its
// round, so the hedge always races a stalled primary whatever the EWMA
// ordering has become.
type lendingBackend struct {
	backend.Backend
	round    *atomic.Bool // set by the round's first read
	inflight *atomic.Int64
}

func (l lendingBackend) Read(f backend.FileID, off uint64, count uint32, opts backend.CallOpts) (backend.ReadResult, error) {
	l.inflight.Add(1)
	defer l.inflight.Add(-1)
	if l.round.CompareAndSwap(false, true) {
		time.Sleep(3 * time.Millisecond)
	}
	r, err := l.Backend.Read(f, off, count, opts)
	if err == nil {
		const hdr = 100 // the data sits inside the record, not at its start
		r.Buf = bufpool.Get(hdr + len(r.Data))
		r.Data = r.Buf[hdr:][:copy(r.Buf[hdr:], r.Data)]
	}
	return r, err
}

// The winner of a hedged read owns its record and the loser's goes to
// the GC: after the stalled loser has returned, the winner's bytes are
// still the file's, and releasing them once leaves the pool sound —
// under poison fill a record released twice, or by the loser, panics in
// a later round. Every stalled loser's latency is observed, close to
// half the samples, so the hedge is armed at the 30th percentile: the
// delay stays at its floor, below the 3 ms stall.
func TestHedgedReadOwnership(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		bufpool.SetDebug(true)
		defer bufpool.SetDebug(false)
		content := fileContent(40960)
		var round atomic.Bool
		var inflight atomic.Int64
		round.Store(true) // nothing stalls during warm-up
		c, err := New([]Replica{
			{Name: "a", B: lendingBackend{mkObj(t, content), &round, &inflight}},
			{Name: "b", B: lendingBackend{mkObj(t, content), &round, &inflight}},
		}, Config{ScrubInterval: -1, HedgeQuantile: 0.3, HedgeBudget: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fid := backend.FileID(testFile)
		for i := 0; i < hedgeWarmup+5; i++ {
			r, err := c.Read(fid, 0, 4096, backend.CallOpts{})
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
		const rounds = 200
		for i := 0; i < rounds; i++ {
			off := uint64(i%5) * 8192
			round.Store(false)
			r, err := c.Read(fid, off, 8192, backend.CallOpts{})
			if err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
			for inflight.Load() != 0 { // the loser is still asleep
				time.Sleep(100 * time.Microsecond)
			}
			if !bytes.Equal(r.Data, content[off:off+8192]) {
				t.Fatalf("round %d: winner's bytes changed once the loser returned", i)
			}
			r.Release()
		}
		if st := c.Stats(); st.HedgesWon < rounds*9/10 {
			t.Errorf("%d of %d rounds won by the hedge (%d fired): the primary was not stalled", st.HedgesWon, rounds, st.HedgesFired)
		}
	})
}

func TestHedgeRespectsDeadlineBudget(t *testing.T) {
	bubble.Run(t, func(t *testing.T) {
		c, _, _ := mkSet(t, 2, Config{ScrubInterval: -1})
		for i := 0; i < hedgeWarmup+5; i++ {
			c.Read(backend.FileID(testFile), 0, 512, backend.CallOpts{})
		}
		// Without a deadline the clamped delay applies.
		d := c.hedgeDelay(backend.CallOpts{})
		if d < hedgeMinDelay {
			t.Fatalf("hedgeDelay = %v, want >= the %v floor", d, hedgeMinDelay)
		}
		// Remaining budget no more than 2 x hedge delay: no hedge.
		opts := backend.CallOpts{Deadline: time.Now().Add(2 * d)}
		if d := c.hedgeDelay(opts); d != 0 {
			t.Errorf("hedgeDelay = %v under a tight deadline, want 0", d)
		}
	})
}

func TestHedgeBudgetCap(t *testing.T) {
	c, _, _ := mkSet(t, 2, Config{ScrubInterval: -1, HedgeBudget: 0.1})
	c.reads.Store(100)
	c.hedgesFired.Store(11)
	if c.takeHedgeToken() {
		t.Error("hedge token granted above the 10% budget")
	}
	c.hedgesFired.Store(2)
	if !c.takeHedgeToken() {
		t.Error("hedge token denied below budget")
	}
}

func TestCreateReplicates(t *testing.T) {
	c, objs, _ := mkSet(t, 3, Config{ScrubInterval: -1})
	fid, _, err := c.Create(backend.FileID("/images"), "new.img", backend.CallOpts{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Write(fid, 0, []byte("hello"), backend.CallOpts{}); err != nil {
		t.Fatalf("write to created file: %v", err)
	}
	if !c.WaitReplicated(5 * time.Second) {
		t.Fatal("replication queues did not drain")
	}
	for i, o := range objs {
		if _, err := o.GetAttr(fid, backend.CallOpts{}); err != nil {
			t.Errorf("replica %d missing created file: %v", i, err)
		}
	}
}

// gatedBackend holds Write and Create until the gate opens, letting a
// test pin a replica's replication queue in the not-yet-applied state
// while it drives failover traffic at the same file.
type gatedBackend struct {
	*objstore.Backend
	gate chan struct{}
}

func (g *gatedBackend) Write(f backend.FileID, off uint64, data []byte, opts backend.CallOpts) (backend.WriteResult, error) {
	<-g.gate
	return g.Backend.Write(f, off, data, opts)
}

func (g *gatedBackend) Create(dir backend.FileID, name string, opts backend.CallOpts) (backend.FileID, backend.Attr, error) {
	<-g.gate
	return g.Backend.Create(dir, name, opts)
}

// TestWriteFailoverOrdersBehindQueuedWrites pins the write-ordering
// invariant: a write that fails over to a secondary whose queue still
// holds an older write for the same file must apply after it, not race
// it. A direct write would be overwritten when the worker applied the
// queued data, silently losing an acknowledged write.
func TestWriteFailoverOrdersBehindQueuedWrites(t *testing.T) {
	content := fileContent(40960)
	primary := mkObj(t, content)
	gate := make(chan struct{})
	gateOnce := sync.OnceFunc(func() { close(gate) })
	defer gateOnce() // a Fatal path must still unblock the worker for Close
	sec := &gatedBackend{Backend: mkObj(t, content), gate: gate}
	c, err := New([]Replica{{Name: "p", B: primary}, {Name: "s", B: sec}}, Config{ScrubInterval: -1})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	fid := backend.FileID(testFile)

	// Acknowledged on the primary; the replication to s parks at the gate.
	old := bytes.Repeat([]byte{0x01}, 8192)
	if _, err := c.Write(fid, 0, old, backend.CallOpts{}); err != nil {
		t.Fatalf("first write: %v", err)
	}
	primary.SetFault(unavailable())

	// The failover write must queue behind the parked item.
	newData := bytes.Repeat([]byte{0x02}, 8192)
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(fid, 0, newData, backend.CallOpts{})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.reps[1].q.pendingFor(testFile) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("failover write never routed through the replication queue")
		}
		time.Sleep(time.Millisecond)
	}
	gateOnce()
	if err := <-done; err != nil {
		t.Fatalf("failover write: %v", err)
	}
	if !c.WaitReplicated(5 * time.Second) {
		t.Fatal("replication queues did not drain")
	}
	// The secondary must hold the acknowledged (newer) data, and the
	// composite must serve it: the queued old write applied first.
	r, err := sec.Backend.Read(fid, 0, 8192, backend.CallOpts{})
	if err != nil || !bytes.Equal(r.Data, newData) {
		t.Fatalf("secondary lost the acknowledged failover write: err=%v old=%v",
			err, bytes.Equal(r.Data, old))
	}
	cr, err := c.Read(fid, 0, 8192, backend.CallOpts{})
	if err != nil || !bytes.Equal(cr.Data, newData) {
		t.Fatalf("composite read after failover write: err=%v", err)
	}
}

// TestQuorumTotalFailureMarksNothingStale: a quorum write that lands
// nowhere leaves the old state uniform, so no replica may be marked
// stale — branding all of them would leave the file with no read
// candidate and the scrub with no repair source, permanently.
func TestQuorumTotalFailureMarksNothingStale(t *testing.T) {
	c, objs, content := mkSet(t, 3, Config{Quorum: true, ScrubInterval: -1})
	for _, o := range objs {
		o.SetFault(unavailable())
	}
	patch := bytes.Repeat([]byte{0x7F}, 8192)
	if _, err := c.Write(backend.FileID(testFile), 0, patch, backend.CallOpts{}); err == nil {
		t.Fatal("write succeeded with every replica dead")
	}
	for i, r := range c.reps {
		if got := r.staleCount(); got != 0 {
			t.Errorf("replica %d stale files = %d after total write failure, want 0", i, got)
		}
	}
	for _, o := range objs {
		o.SetFault(nil)
	}
	r, err := c.Read(backend.FileID(testFile), 0, 8192, backend.CallOpts{})
	if err != nil || !bytes.Equal(r.Data, content[:8192]) {
		t.Fatalf("file unreadable after recovered total-failure write: %v", err)
	}
}

// TestLookupSeesQueuedCreate: a lookup that fails over to a replica
// whose queue still holds the Create for that name must resolve the
// file (by riding the queue behind the create), not return NotFound
// for a file the composite has acknowledged.
func TestLookupSeesQueuedCreate(t *testing.T) {
	content := fileContent(8192)
	primary := mkObj(t, content)
	gate := make(chan struct{})
	gateOnce := sync.OnceFunc(func() { close(gate) })
	defer gateOnce()
	sec := &gatedBackend{Backend: mkObj(t, content), gate: gate}
	c, err := New([]Replica{{Name: "p", B: primary}, {Name: "s", B: sec}}, Config{ScrubInterval: -1})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	dir := backend.FileID("/images")
	fid, _, err := c.Create(dir, "new.img", backend.CallOpts{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	primary.SetFault(unavailable())

	type lookupResult struct {
		fid backend.FileID
		err error
	}
	done := make(chan lookupResult, 1)
	go func() {
		f, _, lerr := c.Lookup(dir, "new.img", backend.CallOpts{})
		done <- lookupResult{f, lerr}
	}()
	nk := nameKey(dir, "new.img")
	deadline := time.Now().Add(5 * time.Second)
	for c.reps[1].q.pendingFor(nk) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("failover lookup never routed through the replication queue")
		}
		time.Sleep(time.Millisecond)
	}
	gateOnce()
	res := <-done
	if res.err != nil {
		t.Fatalf("lookup after create with dead acker: %v", res.err)
	}
	if !bytes.Equal(res.fid, fid) {
		t.Fatalf("lookup resolved %q, create returned %q", res.fid, fid)
	}
}

// TestScrubConvergesWhenEveryReplicaStale: when no replica holds a
// consistent copy (every one carries a stale marker), the scrub must
// converge the set on the primary-order copy and restore readability
// instead of leaving the file permanently without a repair source.
func TestScrubConvergesWhenEveryReplicaStale(t *testing.T) {
	c, _, content := mkSet(t, 3, Config{Quorum: true, ScrubInterval: -1})
	c.RegisterFile(backend.FileID(testFile))
	for _, r := range c.reps {
		r.markStale(testFile)
	}
	if _, err := c.Read(backend.FileID(testFile), 0, 8192, backend.CallOpts{}); err == nil {
		t.Fatal("read succeeded with every replica stale")
	}
	c.ScrubNow()
	for i, r := range c.reps {
		if got := r.staleCount(); got != 0 {
			t.Errorf("replica %d stale files = %d after scrub convergence, want 0", i, got)
		}
	}
	r, err := c.Read(backend.FileID(testFile), 0, 8192, backend.CallOpts{})
	if err != nil || !bytes.Equal(r.Data, content[:8192]) {
		t.Fatalf("file still unreadable after scrub convergence: %v", err)
	}
}

func TestLatTrackerQuantile(t *testing.T) {
	lt := newLatTracker()
	for i := 0; i < 99; i++ {
		lt.observe(100 * time.Microsecond)
	}
	lt.observe(50 * time.Millisecond)
	q := lt.quantile(0.5)
	if q > time.Millisecond {
		t.Errorf("p50 = %v, want at most ~256µs", q)
	}
	q99 := lt.quantile(0.999)
	if q99 < 10*time.Millisecond {
		t.Errorf("p99.9 = %v, want to land in the slow tail", q99)
	}
}

func TestCapsAndDelegation(t *testing.T) {
	c, _, _ := mkSet(t, 3, Config{ScrubInterval: -1})
	caps := c.Caps()
	if caps.Name != "repl" {
		t.Errorf("caps name = %q", caps.Name)
	}
	if !caps.ContentHashes {
		t.Error("all-objstore set should advertise content hashes")
	}
	if _, _, ok := c.BlockHash(backend.FileID(testFile), 0, 8192); !ok {
		t.Error("BlockHash delegation failed")
	}
	if _, _, err := c.Root("/images"); err != nil {
		t.Errorf("root: %v", err)
	}
	if _, _, err := c.Lookup(backend.FileID("/images"), "vm0.img", backend.CallOpts{}); err != nil {
		t.Errorf("lookup: %v", err)
	}
}
