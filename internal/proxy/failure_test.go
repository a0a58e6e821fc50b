package proxy_test

// Failure injection: the proxy chain must degrade cleanly when the
// image server disappears — errors, not hangs or data loss.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"gvfs/internal/simnet"
	"gvfs/internal/stack/stacktest"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/stack"
)

// wbHop declares a session on one proxy with opts and a small write-back
// disk cache, over an image server of fs (nil: a new one) across link.
func wbHop(fs *memfs.FS, link *simnet.Link, opts stack.ProxyOptions) stacktest.Spec {
	opts.CacheConfig = &cache.Config{Banks: 8, SetsPerBank: 8, Assoc: 2, BlockSize: 8192, Policy: cache.WriteBack}
	return stacktest.Spec{FS: fs, Link: link, Hops: []stack.ProxyOptions{opts}}
}

func TestUpstreamDeathSurfacesErrors(t *testing.T) {
	c := stacktest.New(t, wbHop(nil, nil, stack.ProxyOptions{}))
	c.FS.WriteFile("/f", bytes.Repeat([]byte{1}, 64*1024))
	sess := c.Session()
	if _, err := sess.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}

	// The image server dies mid-session.
	c.StopOrigin()

	done := make(chan error, 1)
	go func() {
		_, err := sess.ReadFile("/g") // uncached: must reach upstream
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("read of uncached file succeeded with dead upstream")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read hung after upstream death")
	}
}

func TestWriteBackFailurePreservesDirtyData(t *testing.T) {
	c := stacktest.New(t, wbHop(nil, nil, stack.ProxyOptions{}))
	node, sess := c.Hop(), c.Session()
	payload := bytes.Repeat([]byte{9}, 32*1024)
	if err := sess.WriteFile("/out", payload); err != nil {
		t.Fatal(err)
	}
	dirtyBefore := node.BlockCache.DirtyCount()
	if dirtyBefore == 0 {
		t.Fatal("no dirty blocks absorbed")
	}

	c.StopOrigin()
	if err := node.Proxy.WriteBack(); err == nil {
		t.Fatal("WriteBack succeeded against a dead server")
	}
	// The dirty data must still be in the cache — nothing lost.
	if got := node.BlockCache.DirtyCount(); got != dirtyBefore {
		t.Errorf("dirty blocks %d -> %d after failed write-back", dirtyBefore, got)
	}
	// Reads of the absorbed data still succeed locally.
	got, err := sess.ReadFile("/out")
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("local read of dirty data after upstream death: %v", err)
	}
}

func TestFileChannelFailureFallsBackToBlocks(t *testing.T) {
	// If the file-channel service is unreachable, reads of a
	// metadata-marked file must still succeed via block-based NFS.
	const bs = 8192
	state := bytes.Repeat([]byte{0x42}, 16*bs)
	spec := wbHop(nil, nil, stack.ProxyOptions{})
	spec.Seed = func(fs *memfs.FS) { writeVMState(t, fs, state) }
	spec.Hops[0].FileChanAddr = "127.0.0.1:1" // nothing listens here
	c := stacktest.New(t, spec)
	node, sess := c.Hop(), c.Session()
	got, err := sess.ReadFile("/vm/mem.vmss")
	if err != nil || !bytes.Equal(got, state) {
		t.Fatalf("fallback read failed: %v", err)
	}
	st := node.Proxy.Snapshot()
	if st.Counter("gvfs_proxy_filechan_fetches_total") != 0 {
		t.Error("fetch count nonzero despite unreachable channel")
	}
	if st.Counter("gvfs_proxy_read_misses_total") == 0 {
		t.Error("no block-based reads despite fallback")
	}
}

// A file-channel transfer that goes wrong after it started leaves none of
// its blocks cached, and the READ that asked for it, like every READ
// after it, is answered through the block path.
func TestFileChannelBadTransferFallsBackToBlocks(t *testing.T) {
	const bs = 8192
	state := make([]byte, 16*bs)
	for i := range state {
		state[i] = byte(i / 100)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(state)
	zw.Close()
	z := gz.Bytes()
	size := uint64(len(state))
	badCRC := append([]byte(nil), z...)
	badCRC[len(badCRC)-8] ^= 0xff

	// reply frames a GET reply by hand: the OK status, the declared size,
	// payload in one chunk of the length given, the terminator and the
	// trailer status.
	reply := func(declared uint64, payload []byte, chunkLen uint32, trailer byte) []byte {
		b := []byte{0, 0, 0, 0, 0}
		b = binary.BigEndian.AppendUint64(b, declared)
		b = binary.BigEndian.AppendUint32(b, chunkLen)
		b = append(b, payload...)
		b = append(b, 0, 0, 0, 0)
		return append(b, trailer, 0, 0, 0, 0)
	}
	crafted := func(wire []byte) func(net.Conn, *memfs.FS) {
		return func(conn net.Conn, _ *memfs.FS) {
			var hdr [6]byte
			io.ReadFull(conn, hdr[:])
			io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(hdr[2:])))
			conn.Write(wire)
		}
	}
	serve := func(store func(*memfs.FS) filechan.FileStore) func(net.Conn, *memfs.FS) {
		return func(conn net.Conn, fs *memfs.FS) { filechan.NewServer(store(fs)).ServeConn(conn) }
	}
	for _, tc := range []struct {
		name   string
		handle func(net.Conn, *memfs.FS)
	}{
		{"source changes while it streams", serve(func(fs *memfs.FS) filechan.FileStore {
			return changeAfterOpen{fs, func() { fs.WriteFile("/vm/mem.vmss", state) }}
		})},
		{"read error after the header", serve(func(fs *memfs.FS) filechan.FileStore { return failAfter{fs} })},
		{"stream shorter than declared", crafted(reply(size+1, z, uint32(len(z)), 0))},
		{"stream longer than declared", crafted(reply(size-1, z, uint32(len(z)), 0))},
		{"bad gzip trailer", crafted(reply(size, badCRC, uint32(len(z)), 0))},
		{"error trailer", crafted(reply(size, z, uint32(len(z)), 1))},
		{"oversized chunk", crafted(reply(size, z, 1<<20+1, 0))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := memfs.New()
			writeVMState(t, fs, state)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var transfers atomic.Int32
			go func() {
				for {
					conn, err := l.Accept()
					if err != nil {
						return
					}
					transfers.Add(1)
					go func() {
						defer conn.Close()
						tc.handle(conn, fs)
					}()
				}
			}()
			c := stacktest.New(t, wbHop(fs, nil, stack.ProxyOptions{FileChanAddr: l.Addr().String()}))
			node, sess := c.Hop(), c.Session()
			for pass := 0; pass < 2; pass++ {
				sess.DropCaches()
				got, err := sess.ReadFile("/vm/mem.vmss")
				if err != nil || !bytes.Equal(got, state) {
					t.Fatalf("pass %d: fallback read: %d bytes, err=%v", pass, len(got), err)
				}
				// Every READ of the first pass is a miss of its own window,
				// unless a block of the failed transfer stayed behind.
				if n := node.Proxy.Snapshot().Counter("gvfs_proxy_read_hits_total"); pass == 0 && n != 0 {
					t.Errorf("%d READs answered from blocks the failed transfer installed", n)
				}
			}
			if transfers.Load() == 0 {
				t.Fatal("the file channel was never tried: the case is not set up")
			}
			st := node.Proxy.Snapshot()
			if n := st.Counter("gvfs_proxy_filechan_fetches_total"); n != 0 {
				t.Errorf("%d fetches counted for a failed transfer", n)
			}
			if st.Counter("gvfs_proxy_filechan_reads_total") != 0 || st.Counter("gvfs_proxy_read_misses_total") == 0 {
				t.Error("READs were not answered through the block path")
			}
		})
	}
}

// changeAfterOpen is a file-channel store whose file is rewritten by
// change once a reader is open on it.
type changeAfterOpen struct {
	*memfs.FS
	change func()
}

func (c changeAfterOpen) OpenFile(path string) (io.ReadCloser, uint64, error) {
	r, size, err := c.FS.OpenFile(path)
	if err == nil {
		c.change()
	}
	return r, size, err
}

// failAfter is a file-channel store whose reader fails after 5000 bytes.
type failAfter struct{ *memfs.FS }

func (f failAfter) OpenFile(path string) (io.ReadCloser, uint64, error) {
	r, size, err := f.FS.OpenFile(path)
	if err != nil {
		return nil, 0, err
	}
	return struct {
		io.Reader
		io.Closer
	}{io.MultiReader(io.LimitReader(r, 5000), iotest.ErrReader(errors.New("disk read error"))), r}, size, nil
}

// writeVMState puts a memory state at /vm/mem.vmss, with the meta-data
// that asks for it whole through the file channel.
func writeVMState(t *testing.T, fs *memfs.FS, state []byte) {
	t.Helper()
	blob, err := meta.ForWholeFile(state, 8192).Encode()
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("/vm/mem.vmss", state)
	fs.WriteFile("/vm/"+meta.NameFor("mem.vmss"), blob)
}
