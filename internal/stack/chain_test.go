package stack_test

import (
	"os"
	"strings"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/stack/stacktest"
)

// TestChainMountWithoutHops mounts a second session on chains with no
// proxy of their own, as the benchmark's Local and plain-NFS scenarios
// do: both sessions mount the origin.
func TestChainMountWithoutHops(t *testing.T) {
	for _, up := range []stack.Upstream{stack.MemFS, stack.NFS} {
		c := stacktest.New(t, stack.ChainSpec{Upstream: up, Session: gvfs.SessionConfig{Cred: stacktest.Cred},
			Seed: func(fs *memfs.FS) { fs.WriteFile("/f", []byte("data")) }})
		second := stacktest.Mount(t, c, gvfs.SessionConfig{Cred: stacktest.Cred})
		for i, sess := range []*gvfs.Session{c.Session(), second} {
			if got, err := sess.ReadFile("/f"); err != nil || string(got) != "data" {
				t.Errorf("upstream %d, session %d: read %q, %v", up, i, got, err)
			}
		}
	}
}

// openSockets counts the process's open sockets.
func openSockets(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if dst, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && strings.HasPrefix(dst, "socket:") {
			n++
		}
	}
	return n
}

// TestFailedChainLeavesNothing starts a chain whose first hop cannot
// start (its cache's blocks exceed an NFS transfer) behind a working
// second hop and a WAN image server: StartChain fails, and what it built
// before, the origin's listeners and the second hop's cache directory
// included, is gone.
func TestFailedChainLeavesNothing(t *testing.T) {
	work := t.TempDir()
	before := openSockets(t)
	_, err := stack.StartChain(stack.ChainSpec{
		Link: simnet.NewLink(simnet.WAN()), Encrypt: true, FileChan: true, WorkDir: work,
		Hops: []stack.ProxyOptions{
			{CacheConfig: &cache.Config{Banks: 1, SetsPerBank: 2, Assoc: 1, BlockSize: 65536}},
			{CacheConfig: &cache.Config{Banks: 1, SetsPerBank: 2, Assoc: 1, BlockSize: 8192}},
		},
	})
	if err == nil {
		t.Fatal("a hop with 64 KiB cache blocks started")
	}
	if left, err := os.ReadDir(work); err != nil || len(left) != 0 {
		t.Errorf("work directory after the failed start: %v (err %v), want empty", left, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for openSockets(t) > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d sockets open after the failed start, %d before", openSockets(t), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
