// Persistent-VM session (paper §3.2.3, first scenario): a Grid user
// owns a dedicated VM whose state lives on a WAN image server. The
// session resumes it, works, and suspends it; the write-back proxy
// hides the checkpoint latency, and the proxy's *idle writer* settles
// the modifications "when the user is off-line or the session is
// idle" — no explicit middleware flush needed.
//
//	go run ./examples/persistent
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"time"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
	"gvfs/internal/vm"
)

func main() {
	spec := vm.Spec{Name: "rh73", MemoryBytes: 8 << 20, DiskBytes: 32 << 20, Seed: 4}
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/users/alice/vm", spec); err != nil {
		log.Fatal(err)
	}
	wan := simnet.NewLink(simnet.WAN())
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: true})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()

	blockDir, _ := os.MkdirTemp("", "persistent-block")
	defer os.RemoveAll(blockDir)
	cfg := cache.DefaultConfig(blockDir)
	cfg.Banks, cfg.SetsPerBank = 16, 32
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr:  server.ProxyAddr(),
		UpstreamLink:  wan,
		UpstreamKey:   server.Key,
		CacheConfig:   &cfg,
		FileChanAddr:  server.FileChanAddr(),
		FileChanLink:  wan,
		FileChanKey:   server.Key,
		IdleWriteBack: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	sess, err := gvfs.Mount(gvfs.SessionConfig{
		Addr:           node.Addr,
		Export:         "/",
		Cred:           sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "workstation"}.Encode(),
		PageCachePages: 512,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	monitor := vm.NewMonitor(sess)
	t0 := time.Now()
	machine, err := monitor.Resume("/users/alice/vm", "rh73")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed alice's VM in %.2f s (meta-data restore over the WAN)\n",
		time.Since(t0).Seconds())

	// The user works: the VM writes to its virtual disk.
	work := bytes.Repeat([]byte("user data "), 3277) // ~32 KB
	t0 = time.Now()
	if _, err := machine.Disk.WriteAt(work, 1<<20); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disk writes absorbed by the write-back proxy in %.3f s\n",
		time.Since(t0).Seconds())

	// The user suspends and walks away.
	newState := spec.GenerateMemState()
	t0 = time.Now()
	if err := monitor.Suspend(machine, newState); err != nil {
		log.Fatal(err)
	}
	machine.Close()
	fmt.Printf("suspend (checkpoint write) returned in %.2f s — state is dirty at the proxy\n",
		time.Since(t0).Seconds())

	// With the session idle, the proxy settles on its own.
	fmt.Println("session idle; waiting for the proxy's idle writer...")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		stored, err := fs.ReadFile("/users/alice/vm/rh73.vmss")
		if err == nil && bytes.Equal(stored, newState) {
			fmt.Println("image server now holds the checkpointed state — session settled without any explicit flush")
			return
		}
		time.Sleep(500 * time.Millisecond)
	}
	log.Fatal("idle writer never settled the session")
}
