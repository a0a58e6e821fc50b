package proxy_test

import (
	"bytes"
	"errors"
	"gvfs/internal/stack/stacktest"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/objstore"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

var raUpstreamKinds = []string{stack.BackendNFS3, stack.BackendObjstore}

// raChain declares a session on a caching proxy with read-ahead, over an
// upstream of the given kind (an image server or an object store) that
// holds payload at path. It returns the chain and a function that reads a
// file as the upstream stores it. Read-ahead asks every backend the same
// thing — one Read per run, concurrent Reads for concurrent runs — so the
// expectations below do not depend on the kind.
func raChain(t *testing.T, kind, path string, payload []byte) (*stacktest.Chain, func(string) []byte) {
	t.Helper()
	hop := stack.ProxyOptions{ReadAhead: 8,
		CacheConfig: &cache.Config{Banks: 16, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}}
	if kind == stack.BackendNFS3 {
		c := stacktest.New(t, stacktest.Spec{Seed: func(fs *memfs.FS) { fs.WriteFile(path, payload) },
			Hops: []stack.ProxyOptions{hop}})
		return c, func(path string) []byte {
			data, _ := c.FS.ReadFile(path)
			return data
		}
	}
	hop.ObjstoreStore = objstore.NewMemStore()
	if err := objstore.New(hop.ObjstoreStore, 0).CreateFile(path, payload); err != nil {
		t.Fatal(err)
	}
	return stacktest.New(t, stacktest.Spec{Upstream: stacktest.Objstore, Hops: []stack.ProxyOptions{hop}}),
		func(path string) []byte {
			// A fresh backend over the same store: no state shared with
			// the proxy's.
			r, err := objstore.New(hop.ObjstoreStore, 0).Read(backend.FileID(path), 0, uint32(len(payload)), backend.CallOpts{})
			if err != nil {
				t.Errorf("origin read %s: %v", path, err)
			}
			return r.Data
		}
}

// TestReadAheadOrdering scans a file sequentially and verifies every
// block's bytes land at the right offset: with several runs outstanding
// at once each reply must be matched to its own request and cut into its
// own blocks.
func TestReadAheadOrdering(t *testing.T) {
	for _, kind := range raUpstreamKinds {
		t.Run(kind, func(t *testing.T) {
			payload := chaosPattern(512*1024, 0)
			c, _ := raChain(t, kind, "/seq.bin", payload)
			sess := c.Session()
			got, err := sess.ReadFile("/seq.bin")
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("sequential read through read-ahead: err=%v, equal=%v", err, bytes.Equal(got, payload))
			}
			if n := c.Hop().Proxy.Snapshot().Counter("gvfs_proxy_prefetched_total"); n == 0 {
				t.Error("no blocks prefetched on a fully sequential scan")
			}
			// Re-read after dropping the client cache: now mostly
			// proxy-cache hits on prefetched blocks; content must still
			// match offset by offset.
			sess.DropCaches()
			got, err = sess.ReadFile("/seq.bin")
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("re-read after prefetch: err=%v", err)
			}
		})
	}
}

// TestReadAheadDoesNotCorruptWrites interleaves demand writes with a
// sequential scan driving runs ahead: dirty blocks must win over the
// bytes a racing run brings.
func TestReadAheadDoesNotCorruptWrites(t *testing.T) {
	for _, kind := range raUpstreamKinds {
		t.Run(kind, func(t *testing.T) {
			payload := chaosPattern(256*1024, 0)
			c, origin := raChain(t, kind, "/rw.bin", payload)
			sess := c.Session()
			f, err := sess.Open("/rw.bin")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, 8192)
			patch := bytes.Repeat([]byte{0xFF}, 8192)
			for block := 0; block < 32; block++ {
				off := int64(block) * 8192
				if _, err := f.ReadAt(buf, off); err != nil {
					t.Fatal(err)
				}
				if block%4 == 0 {
					if _, err := f.WriteAt(patch, off); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := c.Hop().Proxy.Flush(); err != nil {
				t.Fatal(err)
			}
			data := origin("/rw.bin")
			if len(data) != len(payload) {
				t.Fatalf("origin holds %d bytes, want %d", len(data), len(payload))
			}
			for block := 0; block < 32; block++ {
				want := payload[block*8192]
				if block%4 == 0 {
					want = 0xFF
				}
				if data[block*8192] != want {
					t.Fatalf("block %d = %#x, want %#x", block, data[block*8192], want)
				}
			}
		})
	}
}

// gatedOrigin is an origin file system whose READs at or past a byte
// offset wait until the gate is opened.
type gatedOrigin struct {
	nfs3.Backend
	from    uint64
	gate    chan struct{}
	waiting atomic.Int32 // READs that have come to the gate ...
	first   atomic.Int32 // ... those for the very offset among them
}

func (o *gatedOrigin) Read(fh nfs3.FH, off uint64, count uint32) ([]byte, bool, error) {
	if off >= o.from {
		if off == o.from {
			o.first.Add(1)
		}
		o.waiting.Add(1)
		<-o.gate
	}
	return o.Backend.Read(fh, off, count)
}

// joinHeldRun scans blocks 0..7 of a file through a caching proxy with
// read-ahead, the runs ahead held at the origin, and sends the READ that
// comes next, of block 8: it must wait for the run covering its block
// instead of fetching the block again. With flush the proxy is flushed
// while the READ waits. The gate is then opened, the READ must return
// block 8's bytes, and the proxy's traces are returned.
func joinHeldRun(t *testing.T, flush bool) []obs.Trace {
	t.Helper()
	const blocks, bs = 32, 8192
	fs := memfs.New()
	payload := chaosPattern(blocks*bs, 0)
	fs.WriteFile("/seq.bin", payload)
	// Demand brings blocks 0, 1..3 and 4..7; the runs ahead start at 8.
	origin := &gatedOrigin{Backend: fs, from: 8 * bs, gate: make(chan struct{})}
	node := stacktest.New(t, stacktest.Spec{Upstream: stacktest.NFS, Origin: origin, NoSession: true,
		Hops: []stack.ProxyOptions{{ReadAhead: 8, TraceRing: 4 * blocks,
			CacheConfig: &cache.Config{Banks: 4, SetsPerBank: 16, Assoc: 4, BlockSize: bs, Policy: cache.WriteBack}}},
	}).Hop()
	conn, err := stack.Dialer(node.Addr, nil, nil)()
	if err != nil {
		t.Fatal(err)
	}
	rpc := sunrpc.NewClient(conn)
	defer rpc.Close()
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "ahead"}.Encode()
	root, err := mountd.Mount(rpc, cred, "/")
	if err != nil {
		t.Fatal(err)
	}
	nc := nfs3.NewClient(rpc, cred)
	fh, _, err := nc.Lookup(root, "seq.bin")
	if err != nil {
		t.Fatal(err)
	}
	for b := uint64(0); b < 8; b++ {
		if data, _, err := nc.Read(fh, b*bs, bs); err != nil || !bytes.Equal(data, payload[b*bs:(b+1)*bs]) {
			t.Fatalf("READ of block %d: %d bytes, err=%v", b, len(data), err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); origin.waiting.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d runs ahead reached the origin, want 2", origin.waiting.Load())
		}
	}
	done := make(chan error, 1)
	go func() {
		data, _, err := nc.Read(fh, 8*bs, bs)
		if err == nil && !bytes.Equal(data, payload[8*bs:9*bs]) {
			err = errors.New("not block 8's bytes")
		}
		done <- err
	}()
	// Long enough for the READ to be waiting on the run; were it not, it
	// would find the run over and be a plain hit.
	time.Sleep(50 * time.Millisecond)
	if flush {
		if err := node.Proxy.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(origin.gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("READ of block 8: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the READ that joined a run ahead never returned")
	}
	if n := origin.first.Load(); n != 1 {
		t.Errorf("%d READs of block 8 reached the origin, want the run ahead and no other", n)
	}
	return node.Tracer.Traces()
}

// TestReadAheadFlushDoesNotStrandJoin: a Flush while a READ waits on a run
// ahead leaves the table of runs in flight alone — it is the runs' own to
// clear — so the READ returns when the run does.
func TestReadAheadFlushDoesNotStrandJoin(t *testing.T) {
	joinHeldRun(t, true)
}
