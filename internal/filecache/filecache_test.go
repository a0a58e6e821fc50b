package filecache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStoreAndReadAt(t *testing.T) {
	c := newCache(t)
	data := bytes.Repeat([]byte("memstate"), 1000)
	if err := c.Store("/images/vm.vmss", data); err != nil {
		t.Fatal(err)
	}
	got, eof, err := c.ReadAt("/images/vm.vmss", 16, 32)
	if err != nil || eof {
		t.Fatalf("err=%v eof=%v", err, eof)
	}
	if !bytes.Equal(got, data[16:48]) {
		t.Error("ReadAt returned wrong bytes")
	}
	tail, eof, err := c.ReadAt("/images/vm.vmss", uint64(len(data))-10, 100)
	if err != nil || !eof || len(tail) != 10 {
		t.Errorf("tail: len=%d eof=%v err=%v", len(tail), eof, err)
	}
}

// A read gets as much of the file as there is from its offset on, and
// reports EOF once it reaches the end.
func TestReadInto(t *testing.T) {
	c := newCache(t)
	if err := c.Store("/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		off  uint64
		want string
		eof  bool
	}{{0, "0123", false}, {6, "6789", true}, {8, "89", true}, {10, "", true}, {99, "", true}} {
		got, eof, err := c.ReadAt("/f", tc.off, 4)
		if err != nil || string(got) != tc.want || eof != tc.eof {
			t.Errorf("ReadAt at %d: %q eof=%v err=%v, want %q eof=%v", tc.off, got, eof, err, tc.want, tc.eof)
		}
	}
	if _, _, err := c.ReadAt("/missing", 0, 4); !errors.Is(err, ErrNotCached) {
		t.Errorf("ReadAt of a path not cached: %v", err)
	}
}

func TestReadBeyondEOF(t *testing.T) {
	c := newCache(t)
	c.Store("/f", []byte("xy"))
	data, eof, err := c.ReadAt("/f", 100, 10)
	if err != nil || !eof || len(data) != 0 {
		t.Errorf("data=%q eof=%v err=%v", data, eof, err)
	}
}

func TestNotCached(t *testing.T) {
	c := newCache(t)
	if _, _, err := c.ReadAt("/missing", 0, 10); !errors.Is(err, ErrNotCached) {
		t.Errorf("err = %v", err)
	}
}

// contents reads path's whole cached copy.
func contents(t *testing.T, c *Cache, path string) []byte {
	t.Helper()
	data, eof, err := c.ReadAt(path, 0, 1<<20)
	if err != nil || !eof {
		t.Fatalf("%s: read %d bytes, eof=%v: %v", path, len(data), eof, err)
	}
	return data
}

// A Store replaces the entry it finds whole.
func TestContents(t *testing.T) {
	c := newCache(t)
	data := []byte("whole file contents")
	c.Store("/f", []byte("an older and longer copy of the file"))
	c.Store("/f", data)
	if got := contents(t, c, "/f"); !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
}

func TestDistinctPathsDistinctFiles(t *testing.T) {
	c := newCache(t)
	c.Store("/x/same-name", []byte("one"))
	c.Store("/y/same-name", []byte("two"))
	a := contents(t, c, "/x/same-name")
	b := contents(t, c, "/y/same-name")
	if string(a) != "one" || string(b) != "two" {
		t.Errorf("collision: %q %q", a, b)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := newCache(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("/f%d", i)
			data := bytes.Repeat([]byte{byte(i)}, 1000)
			if err := c.Store(p, data); err != nil {
				t.Error(err)
				return
			}
			got, _, err := c.ReadAt(p, 0, 1000)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("readback %s failed: %v", p, err)
			}
		}(i)
	}
	wg.Wait()
}
