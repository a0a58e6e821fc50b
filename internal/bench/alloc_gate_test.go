package bench

import (
	"bytes"
	"runtime"
	"testing"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

// Alloc regression gates: the measured steady state of the warm data
// path (3 allocs/op READ, 5 WRITE; the seed was 63 and 67) plus one: two
// new allocations per op fail the build, where a fifth of the seed let a
// doubling pass.
const (
	warmReadAllocGate  = 4.0
	warmWriteAllocGate = 6.0
)

// TestWarmPathAllocGate measures the warm-cache READ/WRITE paths over
// a real loopback deployment and fails if allocs/op exceeds the
// committed gate. Skipped under -race: the detector instruments
// allocations and the counts are not comparable.
func TestWarmPathAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs/op is not comparable under the race detector")
	}
	read, write, err := measureWarmAlloc(2000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm read: %.1f allocs/op (%.0f B/op); warm write: %.1f allocs/op (%.0f B/op)",
		read.AllocsPerOp, read.BytesPerOp, write.AllocsPerOp, write.BytesPerOp)
	if read.AllocsPerOp > warmReadAllocGate {
		t.Errorf("warm READ = %.1f allocs/op, gate %.1f (seed %.1f)",
			read.AllocsPerOp, warmReadAllocGate, seedWarmReadAllocsPerOp)
	}
	if write.AllocsPerOp > warmWriteAllocGate {
		t.Errorf("warm WRITE = %.1f allocs/op, gate %.1f (seed %.1f)",
			write.AllocsPerOp, warmWriteAllocGate, seedWarmWriteAllocsPerOp)
	}
}

// flushAllocGate is allocations per flushed 8 KiB block, every layer of
// a write-back included (run assembly, upstream WRITE, the origin's
// nfs3 server): the measured steady state (3.0-3.15; 18.4 when every
// block was its own WRITE and the server copied the payload) plus one.
// A block that leaves in a run of four pays a quarter of the ~12
// allocations a WRITE costs end to end.
const flushAllocGate = 4.1

// TestFlushAllocs dirties a file through a journaled write-back proxy
// on loopback and counts the process's allocations across
// Proxy.WriteBack. Skipped under -race like the gate above.
func TestFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs/op is not comparable under the race detector")
	}
	const bs, blocks, rounds = 8192, 256, 5
	fs := memfs.New()
	if err := fs.WriteFile("/disk.img", make([]byte, blocks*bs)); err != nil {
		t.Fatal(err)
	}
	srv, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pnode, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: srv.Addr,
		CacheConfig: &cache.Config{Dir: t.TempDir(), Banks: 4, SetsPerBank: 32, Assoc: 4,
			BlockSize: bs, Policy: cache.WriteBack, Journal: true},
		DisableMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pnode.Close()
	conn, err := stack.Dialer(pnode.Addr, nil, nil)()
	if err != nil {
		t.Fatal(err)
	}
	cl := sunrpc.NewClient(conn)
	defer cl.Close()
	root, err := mountd.Mount(cl, benchCred(), "/")
	if err != nil {
		t.Fatal(err)
	}
	nc := nfs3.NewClient(cl, benchCred())
	fh, _, err := nc.Lookup(root, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, blocks*bs)
	perBlock := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		for i := range want {
			want[i] = byte(i/bs + i + r)
		}
		for b := 0; b < blocks; b++ {
			if _, _, err := nc.Write(fh, uint64(b*bs), want[b*bs:(b+1)*bs], nfs3.Unstable); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := pnode.Proxy.WriteBack(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		perBlock = append(perBlock, float64(m1.Mallocs-m0.Mallocs)/blocks)
		if got, err := fs.ReadFile("/disk.img"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: origin differs from what was written (err %v)", r, err)
		}
	}
	t.Logf("allocs per flushed block, by round: %.2f", perBlock)
	// The first round fills pools and starts workers; the rest are steady.
	for r, a := range perBlock[1:] {
		if a > flushAllocGate {
			t.Errorf("round %d: %.2f allocs per flushed block, gate %.2f", r+1, a, flushAllocGate)
		}
	}
}
