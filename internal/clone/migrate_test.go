package clone_test

import (
	"bytes"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/clone"
	"gvfs/internal/memfs"
	"gvfs/internal/stack"
	"gvfs/internal/vm"
)

// computeServer builds one compute server (caching proxy + session)
// against server.
func computeServer(t *testing.T, server *stack.ImageServer) (*stack.Node, *gvfs.Session) {
	t.Helper()
	cfg := cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 16, Assoc: 4,
		BlockSize: 8192, Policy: cache.WriteBack}
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		CacheConfig:  &cfg,
		FileChanAddr: server.FileChanAddr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/", PageCachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return node, sess
}

func TestMigrateMovesRunningVM(t *testing.T) {
	fs := memfs.New()
	s := vm.Spec{Name: "rh73", MemoryBytes: 1 << 20, DiskBytes: 4 << 20, Seed: 5}
	if err := vm.InstallImage(fs, "/vm", s); err != nil {
		t.Fatal(err)
	}
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	srcNode, srcSess := computeServer(t, server)
	_, dstSess := computeServer(t, server)

	// Start the VM on the source and modify its state: disk write +
	// a distinctive memory checkpoint.
	srcMonitor := vm.NewMonitor(srcSess)
	machine, err := srcMonitor.Resume("/vm", "rh73")
	if err != nil {
		t.Fatal(err)
	}
	diskPatch := bytes.Repeat([]byte{0xD1}, 8192)
	if _, err := machine.Disk.WriteAt(diskPatch, 0); err != nil {
		t.Fatal(err)
	}
	newMem := bytes.Repeat([]byte{0xE5}, 1<<20)

	res, err := clone.Migrate(dstSess, clone.MigrateOptions{
		Machine:      machine,
		Monitor:      srcMonitor,
		MemState:     newMem,
		SettleSource: srcNode.Proxy.WriteBack,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.VM.Close()

	if res.SuspendTime <= 0 || res.ResumeTime <= 0 {
		t.Errorf("phases not timed: %+v", res)
	}
	// The image server holds the checkpointed memory state.
	mem, err := fs.ReadFile("/vm/rh73.vmss")
	if err != nil || !bytes.Equal(mem, newMem) {
		t.Fatalf("memory state not settled: err=%v", err)
	}
	// The destination VM sees the source's disk modification.
	buf := make([]byte, 8192)
	if _, err := res.VM.Disk.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, diskPatch) {
		t.Error("disk modification lost across migration")
	}
}

func TestMigrateRequiresSettle(t *testing.T) {
	fs := memfs.New()
	s := vm.Spec{Name: "rh73", MemoryBytes: 1 << 20, DiskBytes: 4 << 20, Seed: 5}
	vm.InstallImage(fs, "/vm", s)
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	_, srcSess := computeServer(t, server)
	srcMonitor := vm.NewMonitor(srcSess)
	machine, err := srcMonitor.Resume("/vm", "rh73")
	if err != nil {
		t.Fatal(err)
	}
	defer machine.Close()
	if _, err := clone.Migrate(srcSess, clone.MigrateOptions{
		Machine: machine, Monitor: srcMonitor, MemState: nil,
	}); err == nil {
		t.Error("migrate without SettleSource succeeded")
	}
	if _, err := clone.Migrate(srcSess, clone.MigrateOptions{
		SettleSource: func() error { return nil },
	}); err == nil {
		t.Error("migrate without a running machine succeeded")
	}
}
