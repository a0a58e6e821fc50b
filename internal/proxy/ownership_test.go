package proxy_test

import (
	"bytes"
	"net"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/bufpool"
	"gvfs/internal/cache"
	"gvfs/internal/meta"
	"gvfs/internal/nfs3"
	"gvfs/internal/stack"
	"gvfs/internal/stack/stacktest"
)

// Every place a proxy consumes upstream bytes, driven through the real
// two-level chain — caching proxy → server-side proxy (raw relay,
// identity mapping) → nfsd over memfs, loopback TCP between each — with
// bufpool's poison fill on: both proxies read upstream replies into
// pooled records and release them (ReadResult.Release, Call.ReplyBuf),
// so a record released before its last use, or twice, shows up as a
// reply that differs from the origin's bytes or as a poison panic. CI
// runs this under -race.
func TestChainReadOwnership(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	const bs = cascadeBS

	// A file channel that refuses every connection: meta-data that asks
	// for it sends the proxy down its block-based fallback.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadChan := l.Addr().String()
	l.Close()
	const cacheBlocks = 32
	c := stacktest.New(t, stack.ChainSpec{
		Hops: []stack.ProxyOptions{{
			CacheConfig:  &cache.Config{Banks: 2, SetsPerBank: 8, Assoc: 2, BlockSize: bs, Policy: cache.WriteBack},
			ReadAhead:    8,
			FileChanAddr: deadChan,
		}},
		Session: gvfs.SessionConfig{Cred: stacktest.Cred},
	})
	fs, node, sess := c.FS, c.Hop(), c.Session()
	nc := sess.NFS()
	counter := func(name string) uint64 { return node.Proxy.Snapshot().Counter(name) }

	scan := patterned(4*cacheBlocks*bs, 0x5a)
	rmw := patterned(8*bs, 0xa5)
	state := patterned(64*bs+777, 0x3c)
	fs.WriteFile("/scan.img", scan)
	fs.WriteFile("/rmw.img", rmw)
	clear(state[len(state)-16:]) // a zero grain at the very end, so the zero map covers the file
	fs.WriteFile("/mem.vmss", state)
	blob, err := meta.ForWholeFile(state, 2).Encode() // a 2-byte zero-map grain: the meta-data file spans several READs
	if err != nil || len(blob) <= nfs3.MaxTransfer {
		t.Fatalf("meta-data blob: %d bytes, %v", len(blob), err)
	}
	fs.WriteFile("/"+meta.NameFor("mem.vmss"), blob)

	lookup := func(name string) nfs3.FH {
		t.Helper()
		fh, _, err := nc.Lookup(sess.Root(), name)
		if err != nil {
			t.Fatalf("LOOKUP %s: %v", name, err)
		}
		return fh
	}
	// read issues one READ and compares the reply with the origin's bytes.
	read := func(what string, fh nfs3.FH, want []byte, off, count int) {
		t.Helper()
		data, eof, err := nc.Read(fh, uint64(off), uint32(count))
		if err != nil {
			t.Fatalf("%s: READ off=%d count=%d: %v", what, off, count, err)
		}
		end := min(off+count, len(want))
		if !bytes.Equal(data, want[off:end]) || eof != (end == len(want)) {
			t.Fatalf("%s: READ off=%d count=%d: %d bytes eof=%v, not the origin's %d bytes", what, off, count, len(data), eof, end-off)
		}
	}

	// Cold scan, four times the cache, read-ahead running ahead of it
	// (handleRead's miss and runAhead, both into installRun): every block
	// misses or was fetched ahead, is copied into the cache and into the
	// reply, and evicts another.
	fh := lookup("scan.img")
	for off := 0; off < len(scan); off += bs {
		read("cold scan", fh, scan, off, bs)
	}
	if pre, miss := counter("gvfs_proxy_prefetched_total"), counter("gvfs_proxy_read_misses_total"); pre == 0 || miss == 0 {
		t.Errorf("cold scan: %d blocks prefetched, %d demand misses; want both", pre, miss)
	}
	// readThrough: unaligned, and longer than a block.
	for k := 0; k < 16; k++ {
		read("unaligned", fh, scan, 100+k*3*bs, 5000)
	}
	read("two blocks", fh, scan, 8*bs, 2*bs)

	// mergeBlock: 2.5 blocks written over a cold region well inside the
	// file, so the half block is merged with upstream bytes (RMW).
	fh = lookup("rmw.img")
	patch := patterned(2*bs+bs/2, 0x11)
	if n, _, err := nc.Write(fh, 2*bs, patch, nfs3.Unstable); err != nil || int(n) != len(patch) {
		t.Fatalf("WRITE: n=%d err=%v", n, err)
	}
	copy(rmw[2*bs:], patch)
	for off := 0; off < len(rmw); off += bs {
		read("after RMW", fh, rmw, off, bs)
	}
	if err := node.Proxy.Flush(); err != nil {
		t.Fatal(err)
	}
	if data, err := fs.ReadFile("/rmw.img"); err != nil || !bytes.Equal(data, rmw) {
		t.Fatalf("origin after flush: err=%v, %d bytes, want %d byte-identical", err, len(data), len(rmw))
	}

	// readAllUpstream: the meta-data file is fetched chunk by chunk, asks
	// for the file channel, the channel is dead, the blocks come the
	// ordinary way.
	fh = lookup("mem.vmss")
	for off := 0; off < len(state); off += bs {
		read("file-channel fallback", fh, state, off, bs)
	}
	if n := counter("gvfs_proxy_filechan_fetches_total"); n != 0 {
		t.Errorf("%d file-channel fetches through a dead channel", n)
	}
	// A READ the origin refuses: the error reply's record is released by
	// the backend, never handed to the proxy.
	for i := 0; i < 4; i++ {
		if _, _, err := nc.Read(nfs3.FH{9, 9, 9, 9, 9, 9, 9, 9}, 0, bs); err == nil {
			t.Fatal("READ of a handle nobody issued succeeded")
		}
	}
	if st := bufpool.Snapshot(); st.PoisonHits != 0 {
		t.Errorf("%d poison hits", st.PoisonHits)
	}
}
