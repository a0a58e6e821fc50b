package clone_test

import (
	"bytes"
	"gvfs/internal/stack/stacktest"
	"testing"

	"gvfs/internal/clone"
	"gvfs/internal/memfs"
	"gvfs/internal/vm"
)

func TestMigrateMovesRunningVM(t *testing.T) {
	fs := memfs.New()
	s := vm.Spec{Name: "rh73", MemoryBytes: 1 << 20, DiskBytes: 4 << 20, Seed: 5}
	if err := vm.InstallImage(fs, "/vm", s); err != nil {
		t.Fatal(err)
	}
	server := stacktest.New(t, stacktest.Spec{FS: fs, NoSession: true}).Server

	src := stacktest.New(t, computeServer(server))
	srcNode, srcSess := src.Hop(), src.Session()
	dstSess := stacktest.New(t, computeServer(server)).Session()

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
	server := stacktest.New(t, stacktest.Spec{FS: fs, NoSession: true}).Server
	srcSess := stacktest.New(t, computeServer(server)).Session()
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
