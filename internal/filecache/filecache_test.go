package filecache

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
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
	if c.Has("/missing") {
		t.Error("Has of a missing entry")
	}
}

// contents reads path's whole cached copy through Open.
func contents(t *testing.T, c *Cache, path string) []byte {
	t.Helper()
	r, size, err := c.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil || uint64(len(data)) != size {
		t.Fatalf("%s: read %d of %d bytes: %v", path, len(data), size, err)
	}
	return data
}

func TestContents(t *testing.T) {
	c := newCache(t)
	data := []byte("whole file contents")
	c.Store("/f", data)
	if got := contents(t, c, "/f"); !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
	if _, _, err := c.Open("/missing"); !errors.Is(err, ErrNotCached) {
		t.Errorf("Open of a path not cached: %v", err)
	}
}

// A fill that fails leaves no entry and no file behind, and keeps the
// entry it would have replaced.
func TestFillFailureLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cut := errors.New("connection dropped")
	half := func(w io.Writer) error {
		w.Write([]byte("half a file"))
		return cut
	}
	if _, err := c.Fill("/new", half); !errors.Is(err, cut) {
		t.Errorf("Fill: %v", err)
	}
	if c.Has("/new") {
		t.Error("a failed fill left an entry")
	}
	c.Store("/old", []byte("old copy"))
	if _, err := c.Fill("/old", half); !errors.Is(err, cut) {
		t.Errorf("Fill over an entry: %v", err)
	}
	if got := contents(t, c, "/old"); string(got) != "old copy" {
		t.Errorf("a failed fill replaced the entry: %q", got)
	}
	if files, _ := os.ReadDir(dir); len(files) != 1 {
		t.Errorf("%d files in the cache directory, want the one entry's", len(files))
	}
	n, err := c.Fill("/old", func(w io.Writer) error {
		_, err := w.Write([]byte("new copy!"))
		return err
	})
	if err != nil || n != 9 || string(contents(t, c, "/old")) != "new copy!" {
		t.Errorf("Fill: %d bytes, err=%v", n, err)
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

// readInto fills the caller's buffer as far as the file goes.
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
		n, eof, err := c.readInto("/f", tc.off, buf)
		if err != nil || string(buf[:n]) != tc.want || eof != tc.eof {
			t.Errorf("readInto at %d: %q eof=%v err=%v, want %q eof=%v", tc.off, buf[:n], eof, err, tc.want, tc.eof)
		}
	}
	if _, _, err := c.readInto("/missing", 0, buf); !errors.Is(err, ErrNotCached) {
		t.Errorf("readInto of a path not cached: %v", err)
	}
}
