package stack_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

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

// nextPipe returns the number the in-memory network gives the next
// listener: every listener takes the next pipe:N.
func nextPipe(t *testing.T) int {
	t.Helper()
	l, err := simnet.Listen("pipe:", nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	n, err := strconv.Atoi(strings.TrimPrefix(l.Addr().String(), "pipe:"))
	if err != nil {
		t.Fatalf("pipe listener address %s: %v", l.Addr(), err)
	}
	return n + 1
}

// TestFailedChainLeavesNothing starts a chain whose first hop cannot
// start (its cache's blocks exceed an NFS transfer) behind a working
// second hop and a WAN image server: StartChain fails, and what it built
// before, the origin's listeners and the second hop's cache directory
// included, is gone. The chain listens on the in-memory network, so
// every name it took between two probes of the next free name must
// refuse a dial: a listener left open would take it.
func TestFailedChainLeavesNothing(t *testing.T) {
	work := t.TempDir()
	first := nextPipe(t)
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
	// The image server's NFS server, proxy and file channel, and the
	// second hop.
	last := nextPipe(t) - 1
	if built := last - first; built < 4 {
		t.Fatalf("the failed start took %d listener names, want at least 4", built)
	}
	for n := first; n < last; n++ {
		addr := "pipe:" + strconv.Itoa(n)
		if c, err := simnet.Dial(addr, nil); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections after the failed start", addr)
		}
	}
}
