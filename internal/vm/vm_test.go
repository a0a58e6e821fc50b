package vm_test

import (
	"bytes"
	"compress/gzip"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/obs"
	"gvfs/internal/stack"
	"gvfs/internal/vm"
)

func testSpec() vm.Spec {
	return vm.Spec{
		Name:        "rh73",
		MemoryBytes: 2 << 20,
		DiskBytes:   8 << 20,
		Seed:        42,
	}
}

func TestGenerateMemStateZeroFraction(t *testing.T) {
	spec := testSpec()
	mem := spec.GenerateMemState()
	if uint64(len(mem)) != spec.MemoryBytes {
		t.Fatalf("len = %d", len(mem))
	}
	zero := 0
	pages := len(mem) / vm.PageSize
	for p := 0; p < pages; p++ {
		isZero := true
		for _, b := range mem[p*vm.PageSize : (p+1)*vm.PageSize] {
			if b != 0 {
				isZero = false
				break
			}
		}
		if isZero {
			zero++
		}
	}
	frac := float64(zero) / float64(pages)
	if frac < 0.85 || frac > 0.97 {
		t.Errorf("zero fraction = %.3f, want ~0.92", frac)
	}
}

func TestGenerateMemStateDeterministic(t *testing.T) {
	spec := testSpec()
	a := spec.GenerateMemState()
	b := spec.GenerateMemState()
	if !bytes.Equal(a, b) {
		t.Error("memory state not deterministic")
	}
	spec.Seed = 43
	c := spec.GenerateMemState()
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical state")
	}
}

func TestMemStateCompressible(t *testing.T) {
	// The paper relies on memory state being highly compressible.
	spec := testSpec()
	mem := spec.GenerateMemState()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(mem)
	zw.Close()
	ratio := float64(len(mem)) / float64(buf.Len())
	if ratio < 5 {
		t.Errorf("compression ratio = %.1fx, want well above 5x for ~92%% zero state", ratio)
	}
}

func TestConfigContents(t *testing.T) {
	spec := testSpec()
	cfg := spec.ConfigContents()
	for _, want := range []string{"rh73.vmdk", "rh73.vmss", "memsize = \"2\""} {
		if !bytes.Contains([]byte(cfg), []byte(want)) {
			t.Errorf("config missing %q:\n%s", want, cfg)
		}
	}
}

func TestInstallImage(t *testing.T) {
	fs := memfs.New()
	spec := testSpec()
	if err := vm.InstallImage(fs, "/images/golden", spec); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"rh73.vmx", "rh73.vmss", "rh73.vmdk", meta.NameFor("rh73.vmss")} {
		if _, err := fs.ReadFile("/images/golden/" + f); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	// The installed meta-data must describe the memory state.
	blob, _ := fs.ReadFile("/images/golden/" + meta.NameFor("rh73.vmss"))
	m, err := meta.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if m.FileSize != spec.MemoryBytes || !m.WantsFileChannel() || !m.HasZeroMap() {
		t.Errorf("meta = %+v", m)
	}
}

func startSession(t *testing.T, fs *memfs.FS) *gvfs.Session {
	t.Helper()
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: server.ProxyAddr(), Export: "/", PageCachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func TestResumeReadsWholeMemState(t *testing.T) {
	fs := memfs.New()
	spec := testSpec()
	if err := vm.InstallImage(fs, "/images/golden", spec); err != nil {
		t.Fatal(err)
	}
	sess := startSession(t, fs)
	monitor := vm.NewMonitor(sess)
	machine, err := monitor.Resume("/images/golden", "rh73")
	if err != nil {
		t.Fatal(err)
	}
	defer machine.Close()
	if machine.Name != "rh73" || machine.Disk == nil {
		t.Errorf("vm = %+v", machine)
	}
	if machine.Disk.Size() != spec.DiskBytes {
		t.Errorf("disk size = %d", machine.Disk.Size())
	}
}

func TestResumeFollowsDiskSymlink(t *testing.T) {
	fs := memfs.New()
	spec := testSpec()
	if err := vm.InstallImage(fs, "/images/golden", spec); err != nil {
		t.Fatal(err)
	}
	sess := startSession(t, fs)
	// Build a clone-style directory: copied config, symlinked disk.
	if err := sess.MkdirAll("/clones/c1"); err != nil {
		t.Fatal(err)
	}
	cfg, _ := sess.ReadFile("/images/golden/rh73.vmx")
	// Point checkpoint state at the golden dir.
	patched := bytes.ReplaceAll(cfg, []byte(`checkpoint.vmState = "rh73.vmss"`),
		[]byte(`checkpoint.vmState = "/images/golden/rh73.vmss"`))
	sess.WriteFile("/clones/c1/rh73.vmx", patched)
	if err := sess.Symlink("/images/golden/rh73.vmdk", "/clones/c1/rh73.vmdk"); err != nil {
		t.Fatal(err)
	}
	monitor := vm.NewMonitor(sess)
	machine, err := monitor.Resume("/clones/c1", "rh73")
	if err != nil {
		t.Fatal(err)
	}
	defer machine.Close()
	if machine.Disk.Size() != spec.DiskBytes {
		t.Errorf("cloned disk size = %d, want %d", machine.Disk.Size(), spec.DiskBytes)
	}
}

// TestResumeInHalves: ReadState reads the state a config names and
// returns its path; Finish, handed that path, does not read the state
// again, and handed another it does. The session's page counts show it.
func TestResumeInHalves(t *testing.T) {
	fs := memfs.New()
	spec := testSpec()
	if err := vm.InstallImage(fs, "/vm", spec); err != nil {
		t.Fatal(err)
	}
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	reg := obs.NewRegistry()
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: server.ProxyAddr(), Export: "/", PageCachePages: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	pages := func() uint64 {
		snap := reg.Snapshot()
		return snap.Counter("gvfs_pagecache_hits_total") + snap.Counter("gvfs_pagecache_misses_total")
	}
	statePages := spec.MemoryBytes / uint64(sess.BlockSize())
	monitor := vm.NewMonitor(sess)
	read, err := monitor.ReadState("/vm", "rh73", spec.ConfigContents())
	if err != nil || read != "/vm/rh73.vmss" {
		t.Fatalf("ReadState = %q, %v; want /vm/rh73.vmss", read, err)
	}
	for _, tc := range []struct {
		read      string
		readState bool
	}{{read, false}, {"/elsewhere/rh73.vmss", true}} {
		before := pages()
		machine, err := monitor.Finish("/vm", "rh73", tc.read, nil)
		if err != nil {
			t.Fatal(err)
		}
		machine.Close()
		if asked := pages() - before; (asked >= statePages) != tc.readState {
			t.Errorf("Finish after reading %s asked for %d pages (the state is %d); want the state read again: %v", tc.read, asked, statePages, tc.readState)
		}
	}
}

func TestSuspendWritesMemState(t *testing.T) {
	fs := memfs.New()
	spec := testSpec()
	vm.InstallImage(fs, "/vm", spec)
	sess := startSession(t, fs)
	monitor := vm.NewMonitor(sess)
	machine, err := monitor.Resume("/vm", "rh73")
	if err != nil {
		t.Fatal(err)
	}
	defer machine.Close()
	newState := bytes.Repeat([]byte{0xAA}, 1<<20)
	if err := monitor.Suspend(machine, newState); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/vm/rh73.vmss")
	if err != nil || !bytes.Equal(data, newState) {
		t.Errorf("suspend state mismatch: err=%v len=%d", err, len(data))
	}
}

func TestRedoLog(t *testing.T) {
	fs := memfs.New()
	spec := testSpec()
	vm.InstallImage(fs, "/vm", spec)
	sess := startSession(t, fs)
	monitor := vm.NewMonitor(sess)
	machine, err := monitor.Resume("/vm", "rh73")
	if err != nil {
		t.Fatal(err)
	}
	defer machine.Close()
	redo, err := machine.OpenRedoLog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := redo.Write([]byte("block 42 -> new contents")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/vm/rh73.redo"); err != nil {
		t.Errorf("redo log missing on server: %v", err)
	}
}
