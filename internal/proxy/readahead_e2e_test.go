package proxy_test

import (
	"bytes"
	"testing"

	"gvfs/internal/backend"
	"gvfs/internal/backend/objstore"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/stack"

	gvfs "gvfs"
)

// patternPayload builds position-dependent content so a block stored
// at the wrong offset (a reply matched to the wrong request) fails
// comparison — a constant fill would hide ordering bugs.
func patternPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((i / 512) * 13)
	}
	return p
}

// raUpstream is one read-ahead upstream: nfs3 reports Caps().Batched,
// so every prefetch window is pipelined on the connection; objstore
// does not, so the same window goes out one call per block.
type raUpstream struct {
	node *stack.Node
	// origin returns the file's bytes as the upstream stores them.
	origin func(path string) []byte
}

var raUpstreamKinds = []string{stack.BackendNFS3, stack.BackendObjstore}

func startRAProxy(t *testing.T, kind, path string, payload []byte) raUpstream {
	t.Helper()
	opts := stack.ProxyOptions{
		Backend: kind,
		CacheConfig: &cache.Config{Dir: t.TempDir(), Banks: 16, SetsPerBank: 16, Assoc: 4,
			BlockSize: 8192, Policy: cache.WriteBack},
		ReadAhead: 8,
	}
	var up raUpstream
	switch kind {
	case stack.BackendNFS3:
		fs := memfs.New()
		fs.WriteFile(path, payload)
		server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(server.Close)
		opts.UpstreamAddr = server.ProxyAddr()
		up.origin = func(path string) []byte {
			data, _ := fs.ReadFile(path)
			return data
		}
	case stack.BackendObjstore:
		opts.ObjstoreStore = objstore.NewMemStore()
		be := objstore.New(opts.ObjstoreStore, 0)
		if err := be.CreateFile(path, payload); err != nil {
			t.Fatal(err)
		}
		up.origin = func(path string) []byte {
			// A fresh backend over the same store: no state shared with
			// the proxy's.
			r, err := objstore.New(opts.ObjstoreStore, 0).Read(backend.FileID(path), 0, uint32(len(payload)), backend.CallOpts{})
			if err != nil {
				t.Errorf("origin read %s: %v", path, err)
			}
			return r.Data
		}
	}
	node, err := stack.StartProxy(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	up.node = node
	return up
}

// TestReadAheadOrdering scans a file sequentially and verifies every
// block's bytes land at the right offset: with the whole window
// outstanding on the connection (nfs3) each reply must be matched to
// its own request, and a backend that cannot batch (objstore) must
// still prefetch, one call per block.
func TestReadAheadOrdering(t *testing.T) {
	for _, kind := range raUpstreamKinds {
		t.Run(kind, func(t *testing.T) {
			payload := patternPayload(512 * 1024)
			up := startRAProxy(t, kind, "/seq.bin", payload)
			sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: up.node.Addr, Export: "/"})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			got, err := sess.ReadFile("/seq.bin")
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("sequential read through read-ahead: err=%v, equal=%v", err, bytes.Equal(got, payload))
			}
			if n := up.node.Proxy.Snapshot().Counter("gvfs_proxy_prefetched_total"); n == 0 {
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
// sequential scan driving prefetches: dirty blocks must win over
// racing prefetched data.
func TestReadAheadDoesNotCorruptWrites(t *testing.T) {
	for _, kind := range raUpstreamKinds {
		t.Run(kind, func(t *testing.T) {
			payload := patternPayload(256 * 1024)
			up := startRAProxy(t, kind, "/rw.bin", payload)
			sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: up.node.Addr, Export: "/"})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
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
			if err := up.node.Proxy.Flush(); err != nil {
				t.Fatal(err)
			}
			data := up.origin("/rw.bin")
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
