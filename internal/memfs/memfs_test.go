package memfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"gvfs/internal/nfs3"
)

func mustRoot(t *testing.T, fs *FS) nfs3.FH {
	t.Helper()
	root, err := fs.Root()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestCreateLookupReadWrite(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fh, attr, err := fs.Create(root, "vm.vmss", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Type != nfs3.TypeReg || attr.Size != 0 {
		t.Errorf("attr = %+v", attr)
	}
	data := []byte("memory state contents")
	if _, err := fs.Write(fh, 0, data); err != nil {
		t.Fatal(err)
	}
	fh2, attr2, err := fs.Lookup(root, "vm.vmss")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fh, fh2) {
		t.Error("lookup returned different handle")
	}
	if attr2.Size != uint64(len(data)) {
		t.Errorf("size = %d, want %d", attr2.Size, len(data))
	}
	got, eof, err := fs.Read(fh, 0, 1024)
	if err != nil || !eof || !bytes.Equal(got, data) {
		t.Errorf("read = %q eof=%v err=%v", got, eof, err)
	}
}

func TestReadBeyondEOF(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fh, _, _ := fs.Create(root, "f", nfs3.SetAttr{}, false)
	fs.Write(fh, 0, []byte("abc"))
	data, eof, err := fs.Read(fh, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 || !eof {
		t.Errorf("read past EOF: data=%q eof=%v", data, eof)
	}
}

func TestPartialRead(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fh, _, _ := fs.Create(root, "f", nfs3.SetAttr{}, false)
	fs.Write(fh, 0, []byte("0123456789"))
	data, eof, err := fs.Read(fh, 2, 4)
	if err != nil || eof {
		t.Fatalf("err=%v eof=%v", err, eof)
	}
	if string(data) != "2345" {
		t.Errorf("data = %q", data)
	}
}

func TestSparseWrite(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fh, _, _ := fs.Create(root, "f", nfs3.SetAttr{}, false)
	attr, err := fs.Write(fh, 100, []byte("xy"))
	if err != nil {
		t.Fatal(err)
	}
	if attr.Size != 102 {
		t.Errorf("size = %d, want 102", attr.Size)
	}
	data, _, _ := fs.Read(fh, 0, 200)
	if data[0] != 0 || data[99] != 0 || data[100] != 'x' || data[101] != 'y' {
		t.Error("hole not zero-filled or data misplaced")
	}
	// Truncated bytes stay in the array; a later write past EOF must
	// not bring them back as the hole's content.
	sz := uint64(10)
	if _, err := fs.SetAttr(fh, nfs3.SetAttr{Size: &sz}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(fh, 101, []byte("z")); err != nil {
		t.Fatal(err)
	}
	data, _, _ = fs.Read(fh, 0, 200)
	if len(data) != 102 || data[100] != 0 || data[101] != 'z' {
		t.Errorf("after truncate and write past EOF: len %d, data[100..] = %q", len(data), data[100:])
	}
}

func TestGuardedCreateExisting(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fs.Create(root, "f", nfs3.SetAttr{}, false)
	_, _, err := fs.Create(root, "f", nfs3.SetAttr{}, true)
	if nfs3.StatusOf(err) != nfs3.ErrExist {
		t.Errorf("err = %v, want EXIST", err)
	}
}

func TestUncheckedCreateTruncates(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fh, _, _ := fs.Create(root, "f", nfs3.SetAttr{}, false)
	fs.Write(fh, 0, []byte("data"))
	var zero uint64
	_, attr, err := fs.Create(root, "f", nfs3.SetAttr{Size: &zero}, false)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Size != 0 {
		t.Errorf("size = %d after truncating create", attr.Size)
	}
}

func TestMkdirRmdir(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	dir, _, err := fs.Mkdir(root, "images", nfs3.SetAttr{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(root, "images"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Lookup(root, "images"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("lookup after rmdir: %v", err)
	}
	_ = dir
}

func TestRmdirNotEmpty(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	dir, _, _ := fs.Mkdir(root, "d", nfs3.SetAttr{})
	fs.Create(dir, "f", nfs3.SetAttr{}, false)
	if err := fs.Rmdir(root, "d"); nfs3.StatusOf(err) != nfs3.ErrNotEmpty {
		t.Errorf("err = %v, want NOTEMPTY", err)
	}
}

func TestRemoveDirFails(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fs.Mkdir(root, "d", nfs3.SetAttr{})
	if err := fs.Remove(root, "d"); nfs3.StatusOf(err) != nfs3.ErrIsDir {
		t.Errorf("err = %v, want ISDIR", err)
	}
}

func TestSymlinkReadlink(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fh, attr, err := fs.Symlink(root, "disk.vmdk", "/images/golden/disk.vmdk")
	if err != nil {
		t.Fatal(err)
	}
	if attr.Type != nfs3.TypeLnk {
		t.Errorf("type = %d", attr.Type)
	}
	target, err := fs.ReadLink(fh)
	if err != nil || target != "/images/golden/disk.vmdk" {
		t.Errorf("target = %q err=%v", target, err)
	}
}

func TestRename(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fh, _, _ := fs.Create(root, "old", nfs3.SetAttr{}, false)
	fs.Write(fh, 0, []byte("payload"))
	if err := fs.Rename(root, "old", root, "new"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Lookup(root, "old"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Error("old name still present")
	}
	nfh, _, err := fs.Lookup(root, "new")
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ := fs.Read(nfh, 0, 100)
	if string(data) != "payload" {
		t.Errorf("data = %q", data)
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	a, _, _ := fs.Create(root, "a", nfs3.SetAttr{}, false)
	fs.Write(a, 0, []byte("A"))
	b, _, _ := fs.Create(root, "b", nfs3.SetAttr{}, false)
	fs.Write(b, 0, []byte("B"))
	if err := fs.Rename(root, "a", root, "b"); err != nil {
		t.Fatal(err)
	}
	fh, _, _ := fs.Lookup(root, "b")
	data, _, _ := fs.Read(fh, 0, 10)
	if string(data) != "A" {
		t.Errorf("b = %q, want A", data)
	}
}

func TestReadDirPagination(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	const n = 50
	for i := 0; i < n; i++ {
		fs.Create(root, fmt.Sprintf("file%03d", i), nfs3.SetAttr{}, false)
	}
	seen := map[string]bool{}
	var cookie uint64
	for {
		entries, eof, err := fs.ReadDir(root, cookie, 256)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if seen[e.Name] {
				t.Errorf("duplicate entry %q", e.Name)
			}
			seen[e.Name] = true
			cookie = e.Cookie
		}
		if eof {
			break
		}
		if len(entries) == 0 {
			t.Fatal("no progress")
		}
	}
	if len(seen) != n {
		t.Errorf("saw %d entries, want %d", len(seen), n)
	}
}

func TestSetAttrTruncateAndExtend(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fh, _, _ := fs.Create(root, "f", nfs3.SetAttr{}, false)
	fs.Write(fh, 0, []byte("0123456789"))
	sz := uint64(4)
	attr, err := fs.SetAttr(fh, nfs3.SetAttr{Size: &sz})
	if err != nil || attr.Size != 4 {
		t.Fatalf("truncate: %v size=%d", err, attr.Size)
	}
	sz = 8
	attr, _ = fs.SetAttr(fh, nfs3.SetAttr{Size: &sz})
	data, _, _ := fs.Read(fh, 0, 10)
	if string(data) != "0123\x00\x00\x00\x00" {
		t.Errorf("data = %q", data)
	}
	if attr.Size != 8 {
		t.Errorf("size = %d", attr.Size)
	}
}

func TestStaleHandle(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	fh, _, _ := fs.Create(root, "f", nfs3.SetAttr{}, false)
	fs.Remove(root, "f")
	if _, err := fs.GetAttr(fh); nfs3.StatusOf(err) != nfs3.ErrStale {
		t.Errorf("err = %v, want STALE", err)
	}
}

func TestBadHandle(t *testing.T) {
	fs := New()
	if _, err := fs.GetAttr(nfs3.FH{1, 2, 3}); nfs3.StatusOf(err) != nfs3.ErrBadHandle {
		t.Errorf("err = %v, want BADHANDLE", err)
	}
}

func TestInvalidNames(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	for _, name := range []string{"", ".", "..", "a/b"} {
		if _, _, err := fs.Create(root, name, nfs3.SetAttr{}, false); err == nil {
			t.Errorf("create %q succeeded", name)
		}
	}
}

func TestPathHelpers(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/images/golden/vm.vmx", []byte("config")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/images/golden/vm.vmx")
	if err != nil || string(data) != "config" {
		t.Fatalf("data=%q err=%v", data, err)
	}
	fh, err := fs.LookupPath("/images/golden")
	if err != nil {
		t.Fatal(err)
	}
	attr, err := fs.GetAttr(fh)
	if err != nil || attr.Type != nfs3.TypeDir {
		t.Errorf("attr=%+v err=%v", attr, err)
	}
	if sz, _ := fs.Size("/images/golden/vm.vmx"); sz != 6 {
		t.Errorf("size = %d", sz)
	}
}

func TestFSStat(t *testing.T) {
	fs := New()
	fs.WriteFile("/a", make([]byte, 1000))
	root := mustRoot(t, fs)
	st, err := fs.FSStat(root)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalBytes-st.FreeBytes != 1000 {
		t.Errorf("used = %d, want 1000", st.TotalBytes-st.FreeBytes)
	}
}

func TestConcurrentWriters(t *testing.T) {
	fs := New()
	root := mustRoot(t, fs)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", i)
			fh, _, err := fs.Create(root, name, nfs3.SetAttr{}, false)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 50; j++ {
				if _, err := fs.Write(fh, uint64(j*10), []byte("0123456789")); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	entries, _, _ := fs.ReadDir(root, 0, 1<<20)
	if len(entries) != 16 {
		t.Errorf("entries = %d", len(entries))
	}
}

// Property: any sequence of (offset, data) writes followed by a full
// read matches an in-memory model applied the same way.
func TestQuickWriteReadModel(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		fs := New()
		root, _ := fs.Root()
		fh, _, err := fs.Create(root, "f", nfs3.SetAttr{}, false)
		if err != nil {
			return false
		}
		var model []byte
		for _, o := range ops {
			if len(o.Data) > 256 {
				o.Data = o.Data[:256]
			}
			end := int(o.Off) + len(o.Data)
			if end > len(model) {
				model = append(model, make([]byte, end-len(model))...)
			}
			copy(model[o.Off:end], o.Data)
			if _, err := fs.Write(fh, uint64(o.Off), o.Data); err != nil {
				return false
			}
		}
		got, _, err := fs.Read(fh, 0, 1<<20)
		if err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
