// VM migration across compute servers — the paper's future-work
// direction, built on the mechanisms the paper provides: a VM running
// on compute server A is checkpointed, A's proxy writes its dirty
// session state back to the image server, and the VM resumes on
// compute server B, pulling state on demand through B's own proxy
// caches.
//
//	go run ./examples/migrate
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/clone"
	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
	"gvfs/internal/vm"
)

func computeServer(name string, server *stack.ImageServer, wan *simnet.Link) (*stack.Node, *gvfs.Session, func(), error) {
	blockDir, _ := os.MkdirTemp("", "migrate-block")
	cfg := cache.DefaultConfig(blockDir)
	cfg.Banks, cfg.SetsPerBank = 16, 32
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		UpstreamLink: wan,
		UpstreamKey:  server.Key,
		CacheConfig:  &cfg,
		FileChanAddr: server.FileChanAddr(),
		FileChanLink: wan,
		FileChanKey:  server.Key,
	})
	if err != nil {
		os.RemoveAll(blockDir)
		return nil, nil, nil, err
	}
	sess, err := gvfs.Mount(gvfs.SessionConfig{
		Addr:           node.Addr,
		Export:         "/",
		Cred:           sunrpc.UnixCred{UID: 500, GID: 500, MachineName: name}.Encode(),
		PageCachePages: 512,
	})
	if err != nil {
		node.Close()
		os.RemoveAll(blockDir)
		return nil, nil, nil, err
	}
	cleanup := func() {
		sess.Close()
		node.Close()
		os.RemoveAll(blockDir)
	}
	return node, sess, cleanup, nil
}

func main() {
	spec := vm.Spec{Name: "rh73", MemoryBytes: 16 << 20, DiskBytes: 64 << 20, Seed: 2}
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/vm", spec); err != nil {
		log.Fatal(err)
	}
	wan := simnet.NewLink(simnet.WAN())
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: true})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()

	nodeA, sessA, cleanA, err := computeServer("computeA", server, wan)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanA()
	_, sessB, cleanB, err := computeServer("computeB", server, wan)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanB()

	fmt.Println("resuming VM on compute server A...")
	monitorA := vm.NewMonitor(sessA)
	machine, err := monitorA.Resume("/vm", "rh73")
	if err != nil {
		log.Fatal(err)
	}
	// The running VM modifies its disk.
	patch := bytes.Repeat([]byte("dirty-state "), 680)
	if _, err := machine.Disk.WriteAt(patch, 4096); err != nil {
		log.Fatal(err)
	}
	fmt.Println("VM running on A; disk modified (absorbed by A's write-back cache)")

	checkpoint := bytes.Repeat([]byte{0xC4}, int(spec.MemoryBytes))
	res, err := clone.Migrate(sessB, clone.MigrateOptions{
		Machine:      machine,
		Monitor:      monitorA,
		MemState:     checkpoint,
		SettleSource: nodeA.Proxy.WriteBack,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer res.VM.Close()

	fmt.Printf("migration phases: suspend %.2f s, settle %.2f s, resume %.2f s\n",
		res.SuspendTime.Seconds(), res.SettleTime.Seconds(), res.ResumeTime.Seconds())

	// Verify B sees A's modification through its own chain.
	buf := make([]byte, len(patch))
	if _, err := res.VM.Disk.ReadAt(buf, 4096); err != nil {
		log.Fatal(err)
	}
	if bytes.Equal(buf, patch) {
		fmt.Println("compute server B sees A's disk modifications: migration consistent")
	} else {
		fmt.Println("MIGRATION INCONSISTENT")
		os.Exit(1)
	}
}
