package pagecache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"gvfs/internal/nfs3"
)

var fhA = nfs3.FH("handle-A")
var fhB = nfs3.FH("handle-B")

func TestPutGet(t *testing.T) {
	c := New(4)
	c.Put(fhA, 0, []byte("page zero"))
	got, ok := c.Get(fhA, 0)
	if !ok || string(got) != "page zero" {
		t.Errorf("got %q ok=%v", got, ok)
	}
	if _, ok := c.Get(fhA, 1); ok {
		t.Error("hit on absent page")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put(fhA, 0, []byte("0"))
	c.Put(fhA, 1, []byte("1"))
	c.Get(fhA, 0) // 1 becomes LRU
	c.Put(fhA, 2, []byte("2"))
	if _, ok := c.Get(fhA, 1); ok {
		t.Error("LRU page survived")
	}
	if _, ok := c.Get(fhA, 0); !ok {
		t.Error("MRU page evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := New(0)
	c.Put(fhA, 0, []byte("x"))
	if _, ok := c.Get(fhA, 0); ok {
		t.Error("zero-capacity cache stored a page")
	}
	if c.Len() != 0 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	c := New(2)
	c.Put(fhA, 0, []byte("v1"))
	c.Put(fhA, 0, []byte("v2"))
	got, _ := c.Get(fhA, 0)
	if string(got) != "v2" {
		t.Errorf("got %q", got)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	c := New(2)
	c.Put(fhA, 0, []byte("orig"))
	got, _ := c.Get(fhA, 0)
	got[0] = 'X'
	again, _ := c.Get(fhA, 0)
	if string(again) != "orig" {
		t.Error("caller mutation leaked into the cache")
	}
}

func TestPutCopiesInput(t *testing.T) {
	c := New(2)
	buf := []byte("orig")
	c.Put(fhA, 0, buf)
	buf[0] = 'X'
	got, _ := c.Get(fhA, 0)
	if string(got) != "orig" {
		t.Error("input slice aliasing leaked into the cache")
	}
}

func TestInvalidateFile(t *testing.T) {
	c := New(8)
	c.Put(fhA, 0, []byte("a0"))
	c.Put(fhA, 1, []byte("a1"))
	c.Put(fhB, 0, []byte("b0"))
	c.InvalidateFile(fhA)
	if _, ok := c.Get(fhA, 0); ok {
		t.Error("fhA page survived")
	}
	if _, ok := c.Get(fhB, 0); !ok {
		t.Error("fhB page wrongly dropped")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(8)
	c.Put(fhA, 0, []byte("a"))
	c.InvalidateAll()
	if c.Len() != 0 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestStatsCounting(t *testing.T) {
	c := New(2)
	c.Get(fhA, 0)
	c.Put(fhA, 0, []byte("x"))
	c.Get(fhA, 0)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestConcurrent(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fh := nfs3.FH(fmt.Sprintf("fh%d", g))
			for i := uint64(0); i < 100; i++ {
				data := []byte{byte(g), byte(i)}
				c.Put(fh, i, data)
				if got, ok := c.Get(fh, i); ok && !bytes.Equal(got, data) {
					t.Errorf("corrupt page g=%d i=%d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: the cache never exceeds capacity and a hit always returns
// the most recent Put.
func TestQuickCapacityAndFreshness(t *testing.T) {
	f := func(ops []struct {
		Block uint8
		Val   uint8
	}) bool {
		c := New(4)
		model := map[uint64][]byte{}
		for _, op := range ops {
			block := uint64(op.Block % 16)
			data := []byte{op.Val}
			c.Put(fhA, block, data)
			model[block] = data
			if c.Len() > 4 {
				return false
			}
			if got, ok := c.Get(fhA, block); !ok || !bytes.Equal(got, data) {
				return false
			}
		}
		for block, want := range model {
			if got, ok := c.Get(fhA, block); ok && !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCopyOut(t *testing.T) {
	c := New(4)
	k := fhA.Key()
	c.Put(fhA, 3, []byte("0123456789"))
	dst := make([]byte, 4)
	if n, ok := c.CopyOut(k, 3, dst, 2, 0); !ok || n != 4 || string(dst) != "2345" {
		t.Errorf("from the middle: n=%d ok=%v dst=%q", n, ok, dst)
	}
	if n, ok := c.CopyOut(k, 3, dst, 8, 0); !ok || n != 2 || string(dst[:n]) != "89" {
		t.Errorf("up to the page's end: n=%d ok=%v dst=%q", n, ok, dst[:n])
	}
	if n, ok := c.CopyOut(k, 3, dst, 10, 0); !ok || n != 0 {
		t.Errorf("past the page's end: n=%d ok=%v", n, ok)
	}
	if _, ok := c.CopyOut(k, 4, dst, 0, 0); ok {
		t.Error("hit on an absent page")
	}
	if _, ok := c.CopyOut(fhB.Key(), 3, dst, 0, 0); ok {
		t.Error("hit on another file's page")
	}
	if st := c.Stats(); st.Hits != 3 || st.Misses != 2 {
		t.Errorf("stats %+v, want 3 hits and 2 misses: one per page asked for", st)
	}
	// The file has grown past the cached tail: the page is zero-extended.
	if n, ok := c.CopyOut(k, 3, dst, 9, 12); !ok || n != 3 || !bytes.Equal(dst[:n], []byte{'9', 0, 0}) {
		t.Errorf("zero-extended: n=%d ok=%v dst=%q", n, ok, dst[:n])
	}
	if got, _ := c.Get(fhA, 3); len(got) != 12 {
		t.Errorf("page is %d bytes after the extension, want 12", len(got))
	}
}

func TestFillNeverReplaces(t *testing.T) {
	c := New(2)
	k := fhA.Key()
	c.Fill(k, 0, []byte("from the server"))
	c.Put(fhA, 0, []byte("written"))
	c.Fill(k, 0, []byte("from the server, late"))
	if got, _ := c.Get(fhA, 0); string(got) != "written" {
		t.Errorf("a fill replaced a resident page: %q", got)
	}
	c.Fill(k, 1, []byte("one"))
	c.Fill(k, 2, []byte("two")) // evicts page 0: a fill of a resident page did not count as a use
	if _, ok := c.Get(fhA, 1); !ok {
		t.Error("page 1 evicted")
	}
	off := New(0)
	off.Fill(k, 0, []byte("x"))
	if off.Len() != 0 {
		t.Error("a zero-capacity cache took a fill")
	}
}
