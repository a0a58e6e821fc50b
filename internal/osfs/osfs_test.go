package osfs_test

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/osfs"
	"gvfs/internal/stack"
)

func newFS(t *testing.T) (*osfs.FS, string) {
	t.Helper()
	dir := t.TempDir()
	fs, err := osfs.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs, dir
}

func TestNewRejectsMissingAndNonDir(t *testing.T) {
	if _, err := osfs.New("/does/not/exist"); err == nil {
		t.Error("missing dir accepted")
	}
	f := filepath.Join(t.TempDir(), "file")
	os.WriteFile(f, []byte("x"), 0644)
	if _, err := osfs.New(f); err == nil {
		t.Error("plain file accepted as root")
	}
}

func TestLifecycle(t *testing.T) {
	fs, dir := newFS(t)
	root, err := fs.Root()
	if err != nil {
		t.Fatal(err)
	}
	fh, attr, err := fs.Create(root, "vm.vmss", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Type != nfs3.TypeReg {
		t.Errorf("type = %d", attr.Type)
	}
	payload := bytes.Repeat([]byte("state"), 100)
	if _, err := fs.Write(fh, 0, payload); err != nil {
		t.Fatal(err)
	}
	// Data actually lands in the host directory.
	host, err := os.ReadFile(filepath.Join(dir, "vm.vmss"))
	if err != nil || !bytes.Equal(host, payload) {
		t.Fatalf("host file mismatch: %v", err)
	}
	data, eof, err := fs.Read(fh, 0, 8192)
	if err != nil || !eof || !bytes.Equal(data, payload) {
		t.Errorf("read: eof=%v err=%v", eof, err)
	}
	if err := fs.Remove(root, "vm.vmss"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Lookup(root, "vm.vmss"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("lookup after remove: %v", err)
	}
}

func TestDirsAndSymlinks(t *testing.T) {
	fs, _ := newFS(t)
	root, _ := fs.Root()
	dfh, _, err := fs.Mkdir(root, "images", nfs3.SetAttr{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Create(dfh, "a.vmdk", nfs3.SetAttr{}, false); err != nil {
		t.Fatal(err)
	}
	lfh, attr, err := fs.Symlink(dfh, "link.vmdk", "a.vmdk")
	if err != nil {
		t.Fatal(err)
	}
	if attr.Type != nfs3.TypeLnk {
		t.Errorf("type = %d", attr.Type)
	}
	target, err := fs.ReadLink(lfh)
	if err != nil || target != "a.vmdk" {
		t.Errorf("target = %q err=%v", target, err)
	}
	entries, eof, err := fs.ReadDir(dfh, 0, 1<<20)
	if err != nil || !eof || len(entries) != 2 {
		t.Errorf("readdir: %d entries eof=%v err=%v", len(entries), eof, err)
	}
	if err := fs.Rmdir(root, "images"); nfs3.StatusOf(err) != nfs3.ErrNotEmpty {
		t.Errorf("rmdir non-empty: %v", err)
	}
}

// TestReadDirCookiePastEnd: a READDIR cookie past the last entry, even
// one of 2^63 or more that does not fit an int, lists nothing and ends
// the directory instead of panicking the server.
func TestReadDirCookiePastEnd(t *testing.T) {
	fs, _ := newFS(t)
	root, _ := fs.Root()
	if _, _, err := fs.Create(root, "a.vmdk", nfs3.SetAttr{}, false); err != nil {
		t.Fatal(err)
	}
	for _, cookie := range []uint64{5, 1 << 63, math.MaxUint64} {
		entries, eof, err := fs.ReadDir(root, cookie, 1<<20)
		if err != nil || !eof || len(entries) != 0 {
			t.Errorf("cookie %d: %d entries eof=%v err=%v, want none at EOF", cookie, len(entries), eof, err)
		}
	}
}

func TestRenameKeepsHandle(t *testing.T) {
	fs, _ := newFS(t)
	root, _ := fs.Root()
	fh, _, _ := fs.Create(root, "old", nfs3.SetAttr{}, false)
	fs.Write(fh, 0, []byte("data"))
	if err := fs.Rename(root, "old", root, "new"); err != nil {
		t.Fatal(err)
	}
	// The original handle must still reach the file (id follows it).
	data, _, err := fs.Read(fh, 0, 100)
	if err != nil || string(data) != "data" {
		t.Errorf("read via old handle after rename: %q err=%v", data, err)
	}
}

func TestPathEscapeBlocked(t *testing.T) {
	fs, dir := newFS(t)
	os.WriteFile(filepath.Join(dir, "inside"), []byte("in"), 0644)
	// filechan-style path access must not escape the export root.
	if r, _, err := fs.OpenFile("../../etc/hostname"); nfs3.StatusOf(err) == nfs3.OK {
		r.Close()
		t.Error("path escape allowed")
	}
	r, _, err := fs.OpenFile("/inside")
	if err != nil {
		t.Fatalf("in-root open failed: %v", err)
	}
	defer r.Close()
	if data, err := io.ReadAll(r); err != nil || string(data) != "in" {
		t.Errorf("in-root read failed: %q %v", data, err)
	}
}

func TestGuardedCreate(t *testing.T) {
	fs, _ := newFS(t)
	root, _ := fs.Root()
	fs.Create(root, "f", nfs3.SetAttr{}, false)
	if _, _, err := fs.Create(root, "f", nfs3.SetAttr{}, true); nfs3.StatusOf(err) != nfs3.ErrExist {
		t.Errorf("guarded create: %v", err)
	}
}

func TestTruncateViaSetAttr(t *testing.T) {
	fs, _ := newFS(t)
	root, _ := fs.Root()
	fh, _, _ := fs.Create(root, "f", nfs3.SetAttr{}, false)
	fs.Write(fh, 0, make([]byte, 100))
	sz := uint64(10)
	attr, err := fs.SetAttr(fh, nfs3.SetAttr{Size: &sz})
	if err != nil || attr.Size != 10 {
		t.Errorf("truncate: attr=%+v err=%v", attr, err)
	}
}

// TestFullStackOverOSFS mounts a GVFS session against an osfs-backed
// image server: the configuration the standalone daemons run.
func TestFullStackOverOSFS(t *testing.T) {
	fs, dir := newFS(t)
	os.MkdirAll(filepath.Join(dir, "images"), 0755)
	payload := bytes.Repeat([]byte{0xAB}, 32*1024)
	os.WriteFile(filepath.Join(dir, "images", "vm.vmdk"), payload, 0644)

	node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/", PageCachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, err := sess.ReadFile("/images/vm.vmdk")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read through stack: err=%v", err)
	}
	if err := sess.WriteFile("/images/new.vmx", []byte("cfg")); err != nil {
		t.Fatal(err)
	}
	host, err := os.ReadFile(filepath.Join(dir, "images", "new.vmx"))
	if err != nil || string(host) != "cfg" {
		t.Errorf("write through stack: %v", err)
	}
}
