package proxy

// Miss in runs: what one READ miss asks of upstream, what it leaves in
// the cache, and what the client is told — and the rule the run depends
// on, that a clean insert never replaces a dirty frame.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

const runBS = 8192

// upstreamRead is one Read the proxy sent its backend, in blocks.
type upstreamRead struct{ block, blocks uint64 }

func (u upstreamRead) String() string { return fmt.Sprintf("%d+%d", u.block, u.blocks) }

// spyBackend records every Read the proxy sends upstream and can cut a
// reply short, fail the transport, take its time, or hold a reply until
// told to let go.
type spyBackend struct {
	backend.Backend

	mu      sync.Mutex
	reads   []upstreamRead
	fetched uint64        // blocks asked for, over all Reads
	cur     int           // Reads outstanding ...
	peak    int           // ... and the most there have been at once
	cut     int           // when > 0, a longer reply is cut to this many bytes (and is not the file's end) ...
	cutFrom uint64        // ... if the Read starts at this block or later
	delay   time.Duration // every Read takes this long
	down    bool          // every Read fails as a dead transport
	hold    chan struct{} // when set, a Read's reply waits for a receive from it ...
	held    chan struct{} // ... after announcing itself here
}

func (s *spyBackend) Read(f backend.FileID, off uint64, count uint32, opts backend.CallOpts) (backend.ReadResult, error) {
	s.mu.Lock()
	s.reads = append(s.reads, upstreamRead{off / runBS, uint64(count) / runBS})
	s.fetched += uint64(count) / runBS
	s.cur++
	s.peak = max(s.peak, s.cur)
	cut, delay, down, hold, held := s.cut, s.delay, s.down, s.hold, s.held
	if off/runBS < s.cutFrom {
		cut = 0
	}
	s.mu.Unlock()
	defer s.set(func(s *spyBackend) { s.cur-- })
	time.Sleep(delay)
	if down {
		return backend.ReadResult{}, &backend.Error{Class: backend.ClassUnavailable, Op: "read"}
	}
	r, err := s.Backend.Read(f, off, count, opts)
	if err == nil && cut > 0 && len(r.Data) > cut {
		r.Data, r.EOF = r.Data[:cut], false
	}
	if hold != nil {
		held <- struct{}{}
		<-hold
	}
	return r, err
}

// Lookup lets the proxy look for meta-data files (backend.Lookuper).
func (s *spyBackend) Lookup(dir backend.FileID, name string, opts backend.CallOpts) (backend.FileID, backend.Attr, error) {
	return s.Backend.(backend.Lookuper).Lookup(dir, name, opts)
}

// taken returns the upstream Reads recorded since the last call.
func (s *spyBackend) taken() []upstreamRead {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.reads
	s.reads = nil
	return out
}

func (s *spyBackend) set(f func(*spyBackend)) {
	s.mu.Lock()
	f(s)
	s.mu.Unlock()
}

// runEnv is a write-back caching proxy over an in-process nfsd holding
// one file, /disk.img, with a spy on the data path.
type runEnv struct {
	p    *Proxy
	spy  *spyBackend
	nc   *nfs3.Client
	root nfs3.FH
	fh   nfs3.FH
	fs   *memfs.FS
	want []byte // the session's view of the file: origin bytes plus absorbed writes
}

// newSession ends the session — the proxy's Flush — and looks the file up
// again, so that what the test wrote at the origin since the proxy listed
// its directory is seen.
func (e *runEnv) newSession(t *testing.T) {
	t.Helper()
	if err := e.p.Flush(); err != nil {
		t.Fatal(err)
	}
	var err error
	if e.fh, _, err = e.nc.Lookup(e.root, "disk.img"); err != nil {
		t.Fatal(err)
	}
}

func runContent(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*11+i/runBS) ^ salt
	}
	return b
}

func newRunEnv(t *testing.T, size int, cfg Config) *runEnv {
	t.Helper()
	return newRunEnvPolicy(t, size, cfg, cache.WriteBack)
}

func newRunEnvPolicy(t *testing.T, size int, cfg Config, policy cache.Policy) *runEnv {
	t.Helper()
	e := &runEnv{fs: memfs.New(), want: runContent(size, 0)}
	if err := e.fs.WriteFile("/disk.img", e.want); err != nil {
		t.Fatal(err)
	}
	upstream := nfsdInProcess(t, e.fs)
	bc, err := cache.New(cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 16, Assoc: 4,
		BlockSize: runBS, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	e.spy = &spyBackend{Backend: nfs3be.New(upstream)}
	cfg.Upstream, cfg.Backend, cfg.BlockCache = upstream, e.spy, bc
	if e.p, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.p.Shutdown)
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "runs"}.Encode()
	rpc := sunrpc.Local{H: e.p}
	if e.root, err = mountd.Mount(rpc, cred, "/"); err != nil {
		t.Fatal(err)
	}
	e.nc = nfs3.NewClient(rpc, cred)
	if e.fh, _, err = e.nc.Lookup(e.root, "disk.img"); err != nil {
		t.Fatal(err)
	}
	return e
}

// read issues one READ of blocks whole blocks from block on, checks the
// reply against the session's view (bytes, and EOF exactly when the reply
// reaches the end of the file) and returns what it cost upstream.
func (e *runEnv) read(t *testing.T, block, blocks int) []upstreamRead {
	t.Helper()
	e.spy.taken()
	off, count := block*runBS, blocks*runBS
	data, eof, err := e.nc.Read(e.fh, uint64(off), uint32(count))
	if err != nil {
		t.Fatalf("READ %d+%d: %v", block, blocks, err)
	}
	end := min(off+count, len(e.want))
	if !bytes.Equal(data, e.want[off:end]) || eof != (end == len(e.want)) {
		t.Fatalf("READ %d+%d: %d bytes eof=%v; want the session's %d bytes, eof=%v",
			block, blocks, len(data), eof, end-off, end == len(e.want))
	}
	return e.spy.taken()
}

// write absorbs one whole-block WRITE of new content.
func (e *runEnv) write(t *testing.T, block int, salt byte) {
	t.Helper()
	data := runContent(runBS, salt)
	if n, _, err := e.nc.Write(e.fh, uint64(block*runBS), data, nfs3.Unstable); err != nil || n != runBS {
		t.Fatalf("WRITE block %d: n=%d err=%v", block, n, err)
	}
	copy(e.want[block*runBS:], data)
}

func (e *runEnv) resident(block int) bool {
	cached, _ := e.p.cfg.BlockCache.Peek(e.fh, uint64(block))
	return cached
}

func sameReads(got []upstreamRead, want ...upstreamRead) bool {
	return slices.Equal(got, want)
}

// TestMissRunShape: the shape of the one upstream READ a miss sends. A
// step is a READ of whole blocks and what it must cost upstream; after
// the steps, the blocks that must (not) be resident.
func TestMissRunShape(t *testing.T) {
	type step struct {
		block, blocks int
		write         bool           // an absorbed WRITE of the block instead of a READ
		cost          []upstreamRead // upstream READs it must cost; none for a READ served by the cache
	}
	for _, tc := range []struct {
		name      string
		size      int // file size in bytes (default 16 blocks)
		cut       int // upstream replies cut to this many bytes
		steps     []step
		in, notIn []int
	}{
		{name: "first block of a file is a run of one",
			steps: []step{{block: 0, blocks: 1, cost: []upstreamRead{{0, 1}}}},
			in:    []int{0}, notIn: []int{1}},
		{name: "no predecessor resident: a run of one",
			steps: []step{{block: 5, blocks: 1, cost: []upstreamRead{{5, 1}}}, {block: 9, blocks: 1, cost: []upstreamRead{{9, 1}}}},
			in:    []int{5, 9}, notIn: []int{6, 10, 11}},
		{name: "predecessor resident: to the aligned end, and the rest are hits",
			steps: []step{
				{block: 0, blocks: 1, cost: []upstreamRead{{0, 1}}},
				{block: 1, blocks: 1, cost: []upstreamRead{{1, 3}}},
				{block: 2, blocks: 1},
				{block: 3, blocks: 1},
				{block: 4, blocks: 1, cost: []upstreamRead{{4, 4}}},
				{block: 7, blocks: 1},
			},
			in: []int{0, 1, 2, 3, 4, 5, 6, 7}, notIn: []int{8}},
		{name: "stops at a cached clean block",
			steps: []step{
				{block: 6, blocks: 1, cost: []upstreamRead{{6, 1}}},
				{block: 3, blocks: 1, cost: []upstreamRead{{3, 1}}},
				{block: 4, blocks: 1, cost: []upstreamRead{{4, 2}}},
			},
			in: []int{3, 4, 5, 6}, notIn: []int{7}},
		{name: "stops at a dirty block, which keeps its bytes",
			steps: []step{
				{block: 6, write: true},
				{block: 3, blocks: 1, cost: []upstreamRead{{3, 1}}},
				{block: 4, blocks: 1, cost: []upstreamRead{{4, 2}}},
				{block: 6, blocks: 1},
			},
			in: []int{3, 4, 5, 6}, notIn: []int{7}},
		{name: "stops at the known size, whole blocks",
			size: 6 * runBS,
			steps: []step{
				{block: 3, blocks: 1, cost: []upstreamRead{{3, 1}}},
				{block: 4, blocks: 1, cost: []upstreamRead{{4, 2}}},
			},
			in: []int{3, 4, 5}},
		{name: "short last block is installed where the file ends, EOF told only there",
			size: 6*runBS + 100,
			steps: []step{
				{block: 3, blocks: 1, cost: []upstreamRead{{3, 1}}},
				{block: 4, blocks: 1, cost: []upstreamRead{{4, 3}}}, // reply not EOF though upstream's was
				{block: 5, blocks: 1},
				{block: 6, blocks: 1}, // 100 bytes and EOF, from the cache
			},
			in: []int{3, 4, 5, 6}},
		{name: "short upstream reply mid-run installs the whole blocks that arrived",
			cut: runBS + runBS/2,
			steps: []step{
				{block: 0, blocks: 1, cost: []upstreamRead{{0, 1}}},
				{block: 1, blocks: 1, cost: []upstreamRead{{1, 3}}},
				{block: 2, blocks: 1, cost: []upstreamRead{{2, 2}}},
			},
			in: []int{0, 1, 2}, notIn: []int{3}},
		{name: "aligned multi-block READ is one run, then served by the cache",
			steps: []step{
				{block: 4, blocks: 4, cost: []upstreamRead{{4, 4}}},
				{block: 4, blocks: 4},
				{block: 5, blocks: 2},
				{block: 6, blocks: 1},
				{block: 9, blocks: 3, cost: []upstreamRead{{9, 3}}},
				{block: 10, blocks: 4, cost: []upstreamRead{{10, 4}}}, // crosses a boundary: the demand is the run
			},
			in: []int{4, 5, 6, 7, 9, 10, 11, 12, 13}, notIn: []int{8, 14}},
		{name: "multi-block READ with a dirty block inside: session data wins",
			steps: []step{
				{block: 4, blocks: 4, cost: []upstreamRead{{4, 4}}},
				{block: 5, write: true},
				{block: 4, blocks: 4}, // all resident, one dirty
				{block: 9, write: true},
				// 8, 10 and 11 are not resident: the write is flushed, then
				// the range bypasses the cache.
				{block: 8, blocks: 4, cost: []upstreamRead{{8, 4}}},
				{block: 12, write: true}, // the same with the dirty block first
				{block: 12, blocks: 2, cost: []upstreamRead{{12, 2}}},
			},
			in: []int{4, 5, 6, 7, 9, 12}, notIn: []int{8, 10, 13}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			size := tc.size
			if size == 0 {
				size = 16 * runBS
			}
			e := newRunEnv(t, size, Config{})
			e.spy.set(func(s *spyBackend) { s.cut = tc.cut })
			for i, st := range tc.steps {
				if st.write {
					e.write(t, st.block, byte(0x40+i))
					continue
				}
				if got := e.read(t, st.block, st.blocks); !sameReads(got, st.cost...) {
					t.Fatalf("step %d, READ %d+%d: upstream READs %v, want %v", i, st.block, st.blocks, got, st.cost)
				}
			}
			for _, b := range tc.in {
				if !e.resident(b) {
					t.Errorf("block %d not resident", b)
				}
			}
			for _, b := range tc.notIn {
				if e.resident(b) {
					t.Errorf("block %d resident", b)
				}
			}
			// The origin after a flush is the session's view.
			if err := e.p.Flush(); err != nil {
				t.Fatal(err)
			}
			if data, err := e.fs.ReadFile("/disk.img"); err != nil || !bytes.Equal(data, e.want) {
				t.Errorf("origin after flush differs from the session's view (err=%v)", err)
			}
		})
	}
}

// TestZeroMapTrimsMultiBlockReads: under a zero map, a READ of several
// blocks costs upstream the span from its first non-zero block to its
// last and nothing else — not the zero blocks at its edges, not a run
// that ends in zero blocks — and the client is told the file's bytes and
// its end all the same.
func TestZeroMapTrimsMultiBlockReads(t *testing.T) {
	const size = 15*runBS + 100
	nonZero := []int{1, 2, 5, 7, 8, 10, 15} // 15 is the 100-byte tail
	e := newRunEnv(t, size, Config{})
	clear(e.want)
	for _, b := range nonZero {
		copy(e.want[b*runBS:], runContent(runBS, byte(b)))
	}
	blob, err := meta.GenerateZeroMap(e.want, runBS).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"/disk.img": e.want, "/" + meta.NameFor("disk.img"): blob} {
		if err := e.fs.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
	}
	e.newSession(t)
	e.read(t, 0, 1) // the file's first READ fetches the map
	for _, step := range []struct {
		block, blocks int
		cost          []upstreamRead
	}{
		{0, 4, []upstreamRead{{1, 2}}},   // Z N N Z
		{0, 4, nil},                      // the span is resident, the map answers the rest
		{4, 4, []upstreamRead{{5, 3}}},   // Z N Z N: a zero block between two others rides along
		{8, 1, []upstreamRead{{8, 3}}},   // a scan (7 is resident): the miss run N Z N Z is cut back to N Z N
		{8, 4, nil},                      // N Z N Z
		{12, 4, []upstreamRead{{15, 1}}}, // Z Z Z and the file's tail
		{12, 3, nil},                     // all zero: the filter proper
		{2, 2, nil},                      // N Z, N resident
	} {
		if got := e.read(t, step.block, step.blocks); !sameReads(got, step.cost...) {
			t.Errorf("READ %d+%d cost upstream %v, want %v", step.block, step.blocks, got, step.cost)
		}
	}
	for b := 0; b < 16; b++ {
		if want := slices.Contains(nonZero, b) || b == 6 || b == 9; e.resident(b) != want {
			t.Errorf("block %d resident: %v, want %v (only what the map does not call zero is fetched)", b, !want, want)
		}
	}
}

// TestMissRunPartialBlockRead: a READ of part of a block is answered
// with that part, fetches only that part and installs nothing.
func TestMissRunPartialBlockRead(t *testing.T) {
	e := newRunEnv(t, 16*runBS, Config{})
	e.read(t, 3, 1)
	data, _, err := e.nc.Read(e.fh, 4*runBS, 1000)
	if err != nil || !bytes.Equal(data, e.want[4*runBS:4*runBS+1000]) {
		t.Fatalf("READ of 1000 bytes: %d bytes, err=%v", len(data), err)
	}
	if got := e.spy.taken(); !sameReads(got, upstreamRead{4, 0}) { // less than a block
		t.Errorf("upstream READs %v, want one of less than a block at block 4", got)
	}
	if e.resident(4) || e.resident(5) {
		t.Error("a partial-block READ installed a frame")
	}
	if got := e.p.Snapshot().Counter("gvfs_proxy_prefetched_total"); got != 0 {
		t.Errorf("%d blocks counted as prefetched", got)
	}
}

// TestMissRunCountsAsPrefetched: the blocks a run installs beyond the
// demanded one show in gvfs_proxy_prefetched_total, and a run is one
// miss and one forwarded call.
func TestMissRunCountsAsPrefetched(t *testing.T) {
	e := newRunEnv(t, 16*runBS, Config{})
	before := e.p.Snapshot()
	for b := 0; b < 8; b++ {
		e.read(t, b, 1)
	}
	after := e.p.Snapshot()
	for name, want := range map[string]uint64{
		"gvfs_proxy_prefetched_total":  5, // runs 0, 1+3 and 4+4
		"gvfs_proxy_read_misses_total": 3,
		"gvfs_proxy_read_hits_total":   5,
		"gvfs_proxy_forwarded_total":   3,
	} {
		if got := after.Counter(name) - before.Counter(name); got != want {
			t.Errorf("%s rose by %d, want %d", name, got, want)
		}
	}
}

// TestRandomMissesDoNotOverFetch: uniformly random misses over a cold
// cache almost never have their predecessor resident, so they cost about
// one upstream block per READ — with read-ahead on too, which wants a
// second resident block a window back before it spends a round trip.
func TestRandomMissesDoNotOverFetch(t *testing.T) {
	const fileBlocks, reads = 4096, 128
	for _, ahead := range []int{0, 16} {
		t.Run(fmt.Sprintf("readahead=%d", ahead), func(t *testing.T) {
			e := newRunEnv(t, fileBlocks*runBS, Config{ReadAhead: ahead})
			rng := rand.New(rand.NewSource(20040604))
			for _, b := range rng.Perm(fileBlocks)[:reads] {
				e.read(t, b, 1)
			}
			e.settle(t)
			var fetched uint64
			e.spy.set(func(s *spyBackend) { fetched = s.fetched })
			if per := float64(fetched) / reads; per > 1.05 {
				t.Errorf("%d random READs fetched %d blocks, %.3f per READ; want at most 1.05", reads, fetched, per)
			}
		})
	}
}

// TestMissRunDegraded: with the breaker open a miss fails fast whatever
// its run would have been, and blocks a run installed earlier — one or
// several to a READ — are served from the cache. A READ the zero map
// answers whole is a degraded read like them.
func TestMissRunDegraded(t *testing.T) {
	e := newRunEnv(t, 16*runBS, Config{FailureThreshold: 1, ProbeInterval: time.Hour})
	zeros := make([]byte, 4*runBS)
	blob, err := meta.GenerateZeroMap(zeros, runBS).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"/zero.img": zeros, "/" + meta.NameFor("zero.img"): blob} {
		if err := e.fs.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
	}
	e.newSession(t)
	zfh, _, err := e.nc.Lookup(e.root, "zero.img")
	if err != nil {
		t.Fatal(err)
	}
	readZeros := func() {
		t.Helper()
		if data, _, err := e.nc.Read(zfh, runBS, runBS); err != nil || !bytes.Equal(data, zeros[:runBS]) {
			t.Fatalf("READ of a zero block: %d bytes, err=%v", len(data), err)
		}
	}
	readZeros() // fetches the map
	e.read(t, 3, 1)
	e.read(t, 4, 1) // installs 4..7
	e.spy.set(func(s *spyBackend) { s.down = true })
	if _, _, err := e.nc.Read(e.fh, 9*runBS, runBS); err == nil {
		t.Fatal("READ through a dead transport succeeded")
	}
	if !e.p.Degraded() {
		t.Fatal("breaker did not open")
	}
	e.spy.taken()
	if _, _, err := e.nc.Read(e.fh, 8*runBS, runBS); err == nil {
		t.Error("a miss was answered while degraded")
	}
	if got := e.spy.taken(); len(got) != 0 {
		t.Errorf("a degraded miss reached upstream: %v", got)
	}
	for _, r := range [][2]int{{5, 1}, {4, 4}, {6, 2}} {
		if cost := e.read(t, r[0], r[1]); len(cost) != 0 {
			t.Errorf("degraded READ %d+%d went upstream: %v", r[0], r[1], cost)
		}
	}
	readZeros()
	if got := e.spy.taken(); len(got) != 0 {
		t.Errorf("a degraded READ of zero-mapped blocks went upstream: %v", got)
	}
	if n := e.p.Snapshot().Counter("gvfs_proxy_degraded_reads_total"); n != 4 {
		t.Errorf("%d degraded reads counted, want 4", n)
	}
}

// TestCleanInsertNeverReplacesDirtyFrame: a READ of block b is upstream
// when a WRITE of b+2 — inside b's run — is absorbed; the READ's reply,
// which still has the old bytes of b+2, lands afterwards. The session
// must read its write back and the origin must hold it after a flush.
// The same with one block: a READ and a WRITE of b racing. And the same
// when the write has reached upstream by the time the reply lands, so
// that no dirty frame is left to refuse the old bytes — written back,
// flushed and dropped, or written through: the block must not be cached
// from the reply.
func TestCleanInsertNeverReplacesDirtyFrame(t *testing.T) {
	for _, tc := range []struct {
		name                string
		policy              cache.Policy
		warm, read, written int
		settle              func(*Proxy) error // between the WRITE and the reply landing
	}{
		{"write inside the run of a read in flight", cache.WriteBack, 3, 4, 6, nil},
		{"write of the block being read", cache.WriteBack, 8, 8, 8, nil},
		{"write inside the run, written back meanwhile", cache.WriteBack, 3, 4, 6, (*Proxy).WriteBack},
		{"write inside the run, flushed and dropped meanwhile", cache.WriteBack, 3, 4, 6, (*Proxy).Flush},
		{"write inside the run, written through", cache.WriteThrough, 3, 4, 6, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newRunEnvPolicy(t, 16*runBS, Config{}, tc.policy)
			if tc.warm != tc.read {
				e.read(t, tc.warm, 1) // sequential evidence for the READ below
			}
			hold, held := make(chan struct{}), make(chan struct{})
			e.spy.set(func(s *spyBackend) { s.hold, s.held = hold, held })
			done := make(chan error, 1)
			go func() {
				_, _, err := e.nc.Read(e.fh, uint64(tc.read*runBS), runBS)
				done <- err
			}()
			<-held // the upstream reply is in hand, old bytes and all
			e.spy.set(func(s *spyBackend) { s.hold, s.held = nil, nil })
			ahead := e.p.Snapshot().Counter("gvfs_proxy_prefetched_total")
			e.write(t, tc.written, 0x77)
			if tc.settle != nil {
				if err := tc.settle(e.p); err != nil {
					t.Fatal(err)
				}
			}
			hold <- struct{}{}
			if err := <-done; err != nil {
				t.Fatalf("READ: %v", err)
			}
			cost := e.read(t, tc.written, 1) // compares with the written bytes
			if tc.policy == cache.WriteBack && tc.settle == nil {
				if len(cost) != 0 {
					t.Errorf("read-back of the written block went upstream: %v", cost)
				}
				if _, dirty := e.p.cfg.BlockCache.Peek(e.fh, uint64(tc.written)); !dirty {
					t.Error("the written block is no longer dirty")
				}
			} else if got := e.p.Snapshot().Counter("gvfs_proxy_prefetched_total") - ahead; got != 0 {
				t.Errorf("%d blocks of the overtaken run count as prefetched", got)
			}
			e.read(t, tc.read, 1)
			if err := e.p.Flush(); err != nil {
				t.Fatal(err)
			}
			if data, err := e.fs.ReadFile("/disk.img"); err != nil || !bytes.Equal(data, e.want) {
				t.Errorf("origin after flush lost the acknowledged write (err=%v)", err)
			}
			e.read(t, tc.written, 1)
		})
	}
}
