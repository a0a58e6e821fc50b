// VM cloning over an emulated WAN: a golden VM image (16 MB memory
// state, 64 MB virtual disk) lives on an image server reached across
// the paper's WAN profile (30 ms RTT, scaled 2x to keep the demo
// short). The example clones it three times with full GVFS support —
// meta-data-driven compressed memory state transfer, symlinked disks,
// proxy caches — and compares against the SCP full-copy and plain-NFS
// baselines.
//
//	go run ./examples/vmclone
package main

import (
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

// demoWAN is the paper's WAN profile accelerated 2x so the demo
// (including the deliberately slow baselines) finishes quickly.
func demoWAN() simnet.Profile {
	p := simnet.WAN()
	p.Scale = 2
	return p
}

func main() {
	spec := vm.Spec{
		Name:        "rh73",
		MemoryBytes: 16 << 20,
		DiskBytes:   64 << 20,
		Seed:        1,
	}
	fs := memfs.New()
	fmt.Println("installing golden image (16 MB memory state, 64 MB disk)...")
	if err := vm.InstallImage(fs, "/images/golden", spec); err != nil {
		log.Fatal(err)
	}

	wan := simnet.NewLink(demoWAN())
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: wan, Encrypt: true})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()

	blockDir, _ := os.MkdirTemp("", "vmclone-block")
	defer os.RemoveAll(blockDir)
	cfg := cache.DefaultConfig(blockDir)
	cfg.Banks, cfg.SetsPerBank = 32, 32
	proxyNode, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		UpstreamLink: wan,
		UpstreamKey:  server.Key,
		CacheConfig:  &cfg,
		FileChanAddr: server.FileChanAddr(),
		FileChanLink: wan,
		FileChanKey:  server.Key,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer proxyNode.Close()

	sess, err := gvfs.Mount(gvfs.SessionConfig{
		Addr:           proxyNode.Addr,
		Export:         "/",
		Cred:           sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute1"}.Encode(),
		PageCachePages: 1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	for i := 1; i <= 3; i++ {
		res, err := clone.Clone(sess, clone.Options{
			GoldenDir: "/images/golden",
			CloneDir:  fmt.Sprintf("/clones/c%d", i),
			Name:      "rh73",
			User:      fmt.Sprintf("user%d", i),
		})
		if err != nil {
			log.Fatalf("clone %d: %v", i, err)
		}
		fmt.Printf("clone %d: %8.2f s", i, res.Duration.Seconds())
		if i == 1 {
			fmt.Printf("   (cold: compressed memory state crossed the WAN)")
		} else {
			fmt.Printf("   (warm: memory state served from the proxy disk cache)")
		}
		fmt.Println()
	}
	st := proxyNode.Proxy.Snapshot()
	fmt.Printf("file-channel transfers: %d (one per golden image, regardless of clone count)\n",
		st.Counter("gvfs_proxy_filechan_fetches_total"))

	// Baseline 1: SCP-style full-image copy over the same WAN profile.
	fmt.Println("\nbaselines over the same WAN profile:")
	scpWAN := simnet.NewLink(demoWAN())
	fcNode, err := stack.StartFileChanServer(fs, scpWAN, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer fcNode.Close()
	_, scpDur, err := clone.SCPCopy(stack.Dialer(fcNode.Addr, scpWAN, nil), "/images/golden", "rh73")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  scp full-image copy:     %8.2f s\n", scpDur.Seconds())

	// Baseline 2: plain NFS resume (block-by-block memory state).
	nfsWAN := simnet.NewLink(demoWAN())
	nfsNode, err := stack.StartNFSServer(fs, stack.NFSServerOptions{ListenLink: nfsWAN})
	if err != nil {
		log.Fatal(err)
	}
	defer nfsNode.Close()
	plainSess, err := gvfs.Mount(gvfs.SessionConfig{Addr: nfsNode.Addr, Export: "/", PageCachePages: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer plainSess.Close()
	nfsDur, err := clone.PlainNFSResume(plainSess, "/images/golden", "rh73")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  plain NFS resume:        %8.2f s\n", nfsDur.Seconds())
	fmt.Println("\n(the paper reports 160 s first clone / 25 s warm vs 1127 s scp and 2060 s plain NFS at full scale)")
}
