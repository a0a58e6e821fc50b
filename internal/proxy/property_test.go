package proxy_test

// End-to-end property test: arbitrary sequences of block-aligned and
// unaligned reads, writes, truncates and flushes through the full
// proxy chain must behave exactly like a flat in-memory model. This is
// the strongest single check on the write-back cache's correctness:
// read-your-writes, merge-on-partial-write, size shadowing and flush
// ordering all fall out of it.

import (
	"bytes"
	"gvfs/internal/stack/stacktest"
	"io"
	"math/rand"
	"testing"

	"gvfs/internal/cache"
)

type fileOp struct {
	kind  int // 0 read, 1 write, 2 truncate, 3 writeback, 4 drop page cache
	off   int64
	size  int
	fill  byte
	tsize uint64
}

func genOps(rng *rand.Rand, n int) []fileOp {
	ops := make([]fileOp, n)
	for i := range ops {
		op := fileOp{kind: rng.Intn(5)}
		switch op.kind {
		case 0, 1:
			op.off = int64(rng.Intn(96 * 1024))
			op.size = 1 + rng.Intn(24*1024)
			op.fill = byte(rng.Intn(255) + 1)
		case 2:
			op.tsize = uint64(rng.Intn(96 * 1024))
		}
		ops[i] = op
	}
	return ops
}

func TestPropertyProxyMatchesModel(t *testing.T) {
	for _, policy := range []cache.Policy{cache.WriteThrough, cache.WriteBack} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for round := 0; round < 6; round++ {
				spec := oneHop(policy)
				spec.Session.PageCachePages = 8
				e := stacktest.New(t, spec)
				f, err := e.Session().Create("/model.bin")
				if err != nil {
					t.Fatal(err)
				}
				model := []byte{}
				for i, op := range genOps(rng, 40) {
					switch op.kind {
					case 0: // read and compare
						buf := make([]byte, op.size)
						n, err := f.ReadAt(buf, op.off)
						if err != nil && err != io.EOF {
							t.Fatalf("round %d op %d: read: %v", round, i, err)
						}
						want := 0
						if op.off < int64(len(model)) {
							want = len(model) - int(op.off)
							if want > op.size {
								want = op.size
							}
						}
						if n != want {
							t.Fatalf("round %d op %d: read %d bytes at %d, want %d (file %d)",
								round, i, n, op.off, want, len(model))
						}
						if n > 0 && !bytes.Equal(buf[:n], model[op.off:int(op.off)+n]) {
							t.Fatalf("round %d op %d: read data mismatch at %d", round, i, op.off)
						}
					case 1: // write
						data := bytes.Repeat([]byte{op.fill}, op.size)
						if _, err := f.WriteAt(data, op.off); err != nil {
							t.Fatalf("round %d op %d: write: %v", round, i, err)
						}
						end := int(op.off) + op.size
						if end > len(model) {
							model = append(model, make([]byte, end-len(model))...)
						}
						copy(model[op.off:end], data)
					case 2: // truncate
						if err := f.Truncate(op.tsize); err != nil {
							t.Fatalf("round %d op %d: truncate: %v", round, i, err)
						}
						if op.tsize <= uint64(len(model)) {
							model = model[:op.tsize]
						} else {
							model = append(model, make([]byte, op.tsize-uint64(len(model)))...)
						}
					case 3: // middleware write-back
						if err := e.Hop().Proxy.WriteBack(); err != nil {
							t.Fatalf("round %d op %d: writeback: %v", round, i, err)
						}
					case 4: // client cache drop
						e.Session().DropCaches()
					}
				}
				// Final settle: server must hold exactly the model.
				if err := e.Hop().Proxy.Flush(); err != nil {
					t.Fatal(err)
				}
				got, err := e.FS.ReadFile("/model.bin")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, model) {
					t.Fatalf("round %d: server state diverged from model (len %d vs %d)",
						round, len(got), len(model))
				}
				f.Close()
			}
		})
	}
}
