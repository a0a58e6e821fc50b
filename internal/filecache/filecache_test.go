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
	if !c.Has("/images/vm.vmss") {
		t.Fatal("Has = false after Store")
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
	if err := c.WriteAt("/missing", 0, []byte("x")); !errors.Is(err, ErrNotCached) {
		t.Errorf("err = %v", err)
	}
	if _, ok := c.Size("/missing"); ok {
		t.Error("Size of missing entry")
	}
}

func TestWriteAtMarksDirty(t *testing.T) {
	c := newCache(t)
	c.Store("/f", make([]byte, 100))
	if c.Dirty("/f") {
		t.Error("fresh entry dirty")
	}
	if err := c.WriteAt("/f", 10, []byte("patch")); err != nil {
		t.Fatal(err)
	}
	if !c.Dirty("/f") {
		t.Error("entry not dirty after write")
	}
	data, _, _ := c.ReadAt("/f", 10, 5)
	if string(data) != "patch" {
		t.Errorf("read = %q", data)
	}
}

func TestWriteAtExtends(t *testing.T) {
	c := newCache(t)
	c.Store("/f", make([]byte, 10))
	if err := c.WriteAt("/f", 20, []byte("beyond")); err != nil {
		t.Fatal(err)
	}
	if sz, _ := c.Size("/f"); sz != 26 {
		t.Errorf("size = %d", sz)
	}
}

func TestTruncate(t *testing.T) {
	c := newCache(t)
	c.Store("/f", make([]byte, 100))
	if err := c.Truncate("/f", 10); err != nil {
		t.Fatal(err)
	}
	if sz, _ := c.Size("/f"); sz != 10 {
		t.Errorf("size = %d", sz)
	}
	if !c.Dirty("/f") {
		t.Error("truncate should mark dirty")
	}
}

func TestContents(t *testing.T) {
	c := newCache(t)
	data := []byte("whole file contents")
	c.Store("/f", data)
	got, err := c.Contents("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("got %q err=%v", got, err)
	}
}

func TestFlush(t *testing.T) {
	c := newCache(t)
	c.Store("/a", []byte("A"))
	c.Store("/b", []byte("B"))
	c.WriteAt("/a", 0, []byte("X"))
	uploaded := map[string][]byte{}
	err := c.Flush(func(path string, data []byte) error {
		uploaded[path] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(uploaded) != 1 || string(uploaded["/a"]) != "X" {
		t.Errorf("uploaded = %v", uploaded)
	}
	if c.Dirty("/a") {
		t.Error("still dirty after flush")
	}
}

func TestFlushPropagatesError(t *testing.T) {
	c := newCache(t)
	c.Store("/a", []byte("A"))
	c.WriteAt("/a", 0, []byte("X"))
	wantErr := errors.New("network down")
	err := c.Flush(func(string, []byte) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v", err)
	}
	if !c.Dirty("/a") {
		t.Error("entry marked clean despite failed upload")
	}
}

func TestInvalidate(t *testing.T) {
	c := newCache(t)
	c.Store("/a", []byte("A"))
	c.Invalidate("/a")
	if c.Has("/a") {
		t.Error("entry survives Invalidate")
	}
	c.Store("/b", []byte("B"))
	c.InvalidateAll()
	if c.Has("/b") {
		t.Error("entry survives InvalidateAll")
	}
}

func TestStats(t *testing.T) {
	c := newCache(t)
	c.Store("/a", make([]byte, 100))
	c.Store("/b", make([]byte, 50))
	c.ReadAt("/a", 0, 10)
	st := c.Stats()
	if st.Files != 2 || st.Bytes != 150 || st.Hits != 1 || st.Stores != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDistinctPathsDistinctFiles(t *testing.T) {
	c := newCache(t)
	c.Store("/x/same-name", []byte("one"))
	c.Store("/y/same-name", []byte("two"))
	a, _ := c.Contents("/x/same-name")
	b, _ := c.Contents("/y/same-name")
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

// ReadInto fills the caller's buffer as far as the file goes.
func TestReadInto(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("0123456789")
	if err := c.Store("/f", data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	for _, tc := range []struct {
		off  uint64
		want string
		eof  bool
	}{{0, "0123", false}, {6, "6789", true}, {8, "89", true}, {10, "", true}, {99, "", true}} {
		n, eof, err := c.ReadInto("/f", tc.off, buf)
		if err != nil || string(buf[:n]) != tc.want || eof != tc.eof {
			t.Errorf("ReadInto at %d: %q eof=%v err=%v, want %q eof=%v", tc.off, buf[:n], eof, err, tc.want, tc.eof)
		}
	}
	if _, _, err := c.ReadInto("/missing", 0, buf); !errors.Is(err, ErrNotCached) {
		t.Errorf("ReadInto of a path not cached: %v", err)
	}
}
