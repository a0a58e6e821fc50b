package stack_test

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

const crashBlock = 4096

func crashCacheConfig(dir string) *cache.Config {
	return &cache.Config{
		Dir: dir, Banks: 2, SetsPerBank: 8, Assoc: 4, BlockSize: crashBlock,
		Policy: cache.WriteBack, Journal: true, JournalSync: cache.SyncAlways,
	}
}

// rawClient opens a plain NFS connection to addr: unlike gvfs.Mount it
// has no client-side page cache, so every Write is an explicit proxy
// acknowledgment.
func rawClient(t *testing.T, addr string) (*nfs3.Client, nfs3.FH, func()) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rpc := sunrpc.NewClient(conn)
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "crash-test"}.Encode()
	root, err := mountd.Mount(rpc, cred, "/")
	if err != nil {
		rpc.Close()
		t.Fatal(err)
	}
	return nfs3.NewClient(rpc, cred), root, func() { rpc.Close() }
}

func TestStartProxyJournalRecovery(t *testing.T) {
	// A proxy killed with acked-but-unpropagated write-back state must,
	// on restart over the same cache directory, replay that state to
	// the server before it starts listening.
	fs := memfs.New()
	initial := bytes.Repeat([]byte{0x01}, 8*crashBlock)
	if err := fs.WriteFile("/disk.img", initial); err != nil {
		t.Fatal(err)
	}
	server, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	cacheDir := t.TempDir()
	node1, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.Addr,
		CacheConfig:  crashCacheConfig(cacheDir),
	})
	if err != nil {
		t.Fatal(err)
	}

	nc, root, closeC := rawClient(t, node1.Addr)
	fh, _, err := nc.Lookup(root, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	dirty := make(map[uint64][]byte)
	for i := uint64(0); i < 4; i++ {
		data := bytes.Repeat([]byte{byte(0xB0 + i)}, crashBlock)
		if _, _, err := nc.Write(fh, i*crashBlock, data, nfs3.Unstable); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		dirty[i] = data
	}
	closeC()
	// "Crash": tear the node down without WriteBack/SaveIndex. Close
	// drains nothing — write-back only happens on signal or eviction —
	// so the server must still hold the initial content.
	node1.Close()
	pre, err := fs.ReadFile("/disk.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pre, initial) {
		t.Fatal("writes reached the server before recovery; test premise broken")
	}

	// Restart over the same directory. StartProxy runs recovery +
	// replay synchronously before returning, so the server state is
	// final as soon as it succeeds.
	node2, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.Addr,
		CacheConfig:  crashCacheConfig(cacheDir),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	post, err := fs.ReadFile("/disk.img")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range dirty {
		if !bytes.Equal(post[i*crashBlock:(i+1)*crashBlock], want) {
			t.Errorf("block %d not replayed to the server", i)
		}
	}
	// And the restarted proxy serves the recovered data.
	nc2, root2, closeC2 := rawClient(t, node2.Addr)
	defer closeC2()
	fh2, _, err := nc2.Lookup(root2, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := nc2.Read(fh2, 0, crashBlock)
	if err != nil || !bytes.Equal(got, dirty[0]) {
		t.Errorf("read after recovery: %v", err)
	}
}

func TestStartProxyChecksumRefetch(t *testing.T) {
	// Banks corrupted while the proxy was down: the checksum catches it
	// on first read and the proxy silently refetches from the server.
	fs := memfs.New()
	payload := bytes.Repeat([]byte{0x5C}, 4*crashBlock)
	if err := fs.WriteFile("/disk.img", payload); err != nil {
		t.Fatal(err)
	}
	server, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	cacheDir := t.TempDir()
	node1, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.Addr,
		CacheConfig:  crashCacheConfig(cacheDir),
	})
	if err != nil {
		t.Fatal(err)
	}
	nc, root, closeC := rawClient(t, node1.Addr)
	fh, _, err := nc.Lookup(root, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if _, _, err := nc.Read(fh, i*crashBlock, crashBlock); err != nil {
			t.Fatal(err)
		}
	}
	closeC()
	if err := node1.BlockCache.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	node1.Close()

	// Rot every bank on disk.
	banks, err := filepath.Glob(filepath.Join(cacheDir, "bank*"))
	if err != nil || len(banks) == 0 {
		t.Fatalf("no bank files: %v", err)
	}
	for _, bank := range banks {
		blob, err := os.ReadFile(bank)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blob {
			blob[i] ^= 0xA5
		}
		if err := os.WriteFile(bank, blob, 0644); err != nil {
			t.Fatal(err)
		}
	}

	node2, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.Addr,
		CacheConfig:  crashCacheConfig(cacheDir),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	nc2, root2, closeC2 := rawClient(t, node2.Addr)
	defer closeC2()
	fh2, _, err := nc2.Lookup(root2, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		got, _, err := nc2.Read(fh2, i*crashBlock, crashBlock)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, payload[i*crashBlock:(i+1)*crashBlock]) {
			t.Fatalf("block %d served corrupt data", i)
		}
	}
	if errs := node2.BlockCache.Stats().ChecksumErrors; errs == 0 {
		t.Error("corruption went undetected")
	}
}
