package proxy

// Read-ahead as runs ahead: what the asynchronous runs ask of upstream and
// what they leave in the cache. They go through the miss's own path, so
// the rules of missrun_test.go hold for them by construction; these tests
// pin the ones a second path used to break.

import (
	"bytes"
	"testing"
	"time"
)

// settle waits until no run ahead is in flight.
func (e *runEnv) settle(t *testing.T) {
	t.Helper()
	if e.p.ra == nil {
		return
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		e.p.ra.mu.Lock()
		n := len(e.p.ra.inflight)
		e.p.ra.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d runs ahead still in flight", n)
		}
	}
}

// scan READs blocks [from, to) one at a time, in order, checking the bytes
// and leaving the spy's record alone.
func (e *runEnv) scan(t *testing.T, from, to int) {
	t.Helper()
	for b := from; b < to; b++ {
		data, _, err := e.nc.Read(e.fh, uint64(b*runBS), runBS)
		if err != nil || !bytes.Equal(data, e.want[b*runBS:(b+1)*runBS]) {
			t.Fatalf("READ of block %d: %d bytes, err=%v", b, len(data), err)
		}
	}
}

// TestReadAheadIsRunsAhead: a sequential scan with a 16-block read-ahead
// over 8 KiB blocks. Once the scan is recognized every upstream READ is one
// whole 32 KiB-aligned run, at most four are outstanding, no block is
// fetched twice, and the client misses only while the evidence is built.
func TestReadAheadIsRunsAhead(t *testing.T) {
	const blocks, per = 128, 4
	e := newRunEnv(t, blocks*runBS, Config{ReadAhead: 16})
	e.spy.set(func(s *spyBackend) { s.delay = 2 * time.Millisecond })
	before := e.p.Snapshot()
	e.scan(t, 0, blocks)
	e.settle(t)
	reads := e.spy.taken()
	// Block 0 alone, 1..3 and 4..7 on demand, then one run per window.
	if want := 2 + (blocks-per)/per; len(reads) != want {
		t.Errorf("%d upstream READs, want %d: %v", len(reads), want, reads)
	}
	fetched := make([]int, blocks)
	for _, u := range reads {
		if u.block >= per && (u.block%per != 0 || u.blocks != per) {
			t.Errorf("upstream READ %v is not one whole aligned run", u)
		}
		for b := u.block; b < u.block+u.blocks && b < blocks; b++ {
			fetched[b]++
		}
	}
	for b, n := range fetched {
		if n != 1 {
			t.Errorf("block %d fetched %d times", b, n)
		}
	}
	var peak int
	e.spy.set(func(s *spyBackend) { peak = s.peak })
	if peak < 2 || peak > 16/per {
		t.Errorf("%d upstream READs outstanding at once, want 2 to %d", peak, 16/per)
	}
	after := e.p.Snapshot()
	for name, want := range map[string]uint64{
		"gvfs_proxy_read_misses_total": 3, // blocks 0, 1 and 4
		"gvfs_proxy_read_hits_total":   blocks - 3,
		"gvfs_proxy_forwarded_total":   3,
		"gvfs_proxy_prefetched_total":  blocks - 3,
	} {
		if got := after.Counter(name) - before.Counter(name); got != want {
			t.Errorf("%s rose by %d, want %d", name, got, want)
		}
	}
}

// TestReadAheadShortReplyNotCached: an upstream may answer short without
// the file ending there (a caching proxy whose tail frame predates an
// extension of the file). A run ahead that gets half a block back caches
// nothing of it: a frame is its block's prefix up to the end of the file,
// and these bytes are neither.
func TestReadAheadShortReplyNotCached(t *testing.T) {
	e := newRunEnv(t, 32*runBS, Config{ReadAhead: 4})
	// Demand brings 0, 1..3 and 4..7; everything from block 8 on is asked
	// for by a run ahead first.
	e.spy.set(func(s *spyBackend) { s.cut, s.cutFrom = runBS/2, 8 })
	e.scan(t, 0, 8)
	e.settle(t)
	ahead := false
	for _, u := range e.spy.taken() {
		ahead = ahead || u.block == 8
	}
	if !ahead {
		t.Fatal("no run ahead asked for block 8: the scenario did not run")
	}
	if e.resident(8) {
		t.Error("half a block that is not the file's end was cached as block 8's frame")
	}
	e.spy.set(func(s *spyBackend) { s.cut = 0 })
	e.read(t, 8, 1) // the whole block, whoever fetches it
	e.read(t, 9, 1)
}
