package proxy

// One table across the READ sources: whichever source answers a READ —
// the blocks of a file fetched through the file channel, the zero map
// (whole or at the edges), the dedup zero hash, a dedup alias, a block hit
// or join, an upstream miss or a forwarded READ — its status, count, EOF,
// bytes and post-op size are what the origin answers for the same READ.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"gvfs/internal/backend"
	"gvfs/internal/backend/nfs3be"
	"gvfs/internal/cache"
	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

// srcSizes are the sizes of a row's two files: one ends in a 100-byte
// block (block 8), the other on a block boundary.
var srcSizes = map[string]int{"/short": 8*runBS + 100, "/even": 8 * runBS}

// srcRead is one READ of the table, in blocks of the file, or of count
// bytes when that is set.
type srcRead struct {
	file          string
	block, blocks uint64
	count         uint32
}

func (r srcRead) args(fh nfs3.FH) nfs3.ReadArgs {
	args := nfs3.ReadArgs{FH: fh, Offset: r.block * runBS, Count: uint32(r.blocks * runBS)}
	if r.count != 0 {
		args.Count = r.count
	}
	return args
}

// srcCases names a row's READs: mid-file, of the short last block, ending
// exactly at EOF, starting past EOF, and the two far READs — whole blocks
// up to the last byte an offset can name, and the largest count past EOF.
var srcCases = [6]string{"mid-file", "short last block", "ending at EOF", "past EOF",
	"aligned at 2^64-16384", "past EOF, count 2^32-1"}

// srcFarReads are the far READs every row but the join's makes after its
// four: an offset plus count that wraps, and a count no reply can carry.
var srcFarReads = [2]srcRead{{"/short", 1<<64/runBS - 2, 2, 0}, {"/short", 9, 0, 1<<32 - 1}}

// A row's four READs, one per case: single blocks for most sources; for
// the zero map two zero blocks mid-file, or four blocks whose edges the
// map answers (Z N N Z, N N Z and the zero short tail, Z N N Z), past EOF
// answered whole. srcZeros are the zero blocks those rows' files have.
var (
	srcBlockReads = [4]srcRead{{"/short", 1, 1, 0}, {"/short", 8, 1, 0}, {"/even", 7, 1, 0}, {"/short", 9, 1, 0}}
	srcZeroReads  = [4]srcRead{{"/short", 3, 2, 0}, {"/short", 8, 1, 0}, {"/even", 7, 1, 0}, {"/short", 9, 1, 0}}
	srcEdgeReads  = [4]srcRead{{"/short", 0, 4, 0}, {"/short", 5, 4, 0}, {"/even", 4, 4, 0}, {"/short", 9, 4, 0}}
	srcZeros      = []uint64{0, 3, 4, 7, 8}
	// srcFetchReads read a fetched file whose zero map vouches for blocks
	// that were never installed: N Z Z N, N N and the zero edges, and past
	// EOF.
	srcFetchReads = [4]srcRead{{"/short", 2, 4, 0}, {"/short", 5, 4, 0}, {"/even", 0, 4, 0}, {"/short", 9, 1, 0}}
)

type srcRow struct {
	name  string
	zero  []uint64                        // blocks of both files that are zeros (8 is the short tail)
	meta  func([]byte, uint32) *meta.Meta // each file's meta-data; nil for none
	opts  srcOpts
	reads [4]srcRead
	// before puts the source in place for one READ; join answers the READ
	// by joining a run ahead.
	before   func(t *testing.T, e *srcEnv, r srcRead)
	join     bool
	outcomes [4]string // gvfs_proxy_read_duration_seconds outcome of each READ
	far      [2]string // and of the far READs; none for a row that makes none
}

type srcOpts struct{ noCache, dedup, fileChan, readAhead bool }

type srcEnv struct {
	p             *Proxy
	proxy, origin sunrpc.Local
	cred          sunrpc.OpaqueAuth
	fhs           map[string]nfs3.FH
}

func TestReadSourcesAnswerLikeTheOrigin(t *testing.T) {
	warm := func(t *testing.T, e *srcEnv, r srcRead) { e.read(t, e.proxy, r) }
	twin := func(t *testing.T, e *srcEnv, r srcRead) { r.file += ".twin"; e.read(t, e.proxy, r) }
	// grown has the file channel fetch the file, then grows it by two
	// blocks through the proxy, which drops the blocks it fetched.
	grown := func(t *testing.T, e *srcEnv, r srcRead) {
		e.read(t, e.proxy, r)
		e.setSize(t, r.file, uint64(srcSizes[r.file])+2*runBS)
	}
	local := [2]string{"zero_filter", "zero_filter"}
	through := [2]string{"block_miss", "forwarded"}
	for _, row := range []srcRow{
		{name: "file cache", meta: meta.ForWholeFile, opts: srcOpts{fileChan: true}, reads: srcBlockReads,
			outcomes: [4]string{"file_cache", "file_cache", "file_cache", "block_miss"}, far: through},
		{name: "file cache, grown by SETATTR", meta: meta.ForWholeFile, opts: srcOpts{fileChan: true}, reads: srcBlockReads,
			before:   grown,
			outcomes: [4]string{"block_miss", "block_miss", "block_miss", "block_miss"}, far: through},
		{name: "file cache, zero map", zero: srcZeros, meta: meta.ForWholeFile, opts: srcOpts{fileChan: true}, reads: srcFetchReads,
			outcomes: [4]string{"file_cache", "file_cache", "file_cache", "zero_filter"}, far: local},
		{name: "zero map, whole READ", zero: srcZeros, meta: meta.GenerateZeroMap, reads: srcZeroReads,
			outcomes: [4]string{"zero_filter", "zero_filter", "zero_filter", "zero_filter"}, far: local},
		{name: "zero map edges, span upstream", zero: srcZeros, meta: meta.GenerateZeroMap, reads: srcEdgeReads,
			outcomes: [4]string{"block_miss", "block_miss", "block_miss", "zero_filter"}, far: local},
		{name: "zero map edges, span cached", zero: srcZeros, meta: meta.GenerateZeroMap, reads: srcEdgeReads, before: warm,
			outcomes: [4]string{"block_hit", "block_hit", "block_hit", "zero_filter"}, far: local},
		{name: "dedup zero hash", zero: srcZeros, opts: srcOpts{dedup: true},
			reads:    [4]srcRead{{"/short", 3, 1, 0}, {"/short", 8, 1, 0}, {"/even", 7, 1, 0}, {"/short", 9, 1, 0}},
			outcomes: [4]string{"zero_filter", "zero_filter", "zero_filter", "block_miss"}, far: through},
		{name: "dedup alias", opts: srcOpts{dedup: true}, reads: srcBlockReads, before: twin,
			outcomes: [4]string{"block_hit", "block_hit", "block_hit", "block_miss"}, far: through},
		{name: "block hit", reads: srcBlockReads, before: warm,
			outcomes: [4]string{"block_hit", "block_hit", "block_hit", "block_miss"}, far: through},
		{name: "block join", opts: srcOpts{readAhead: true}, reads: srcBlockReads, join: true,
			outcomes: [4]string{"block_hit", "block_hit", "block_hit", "block_miss"}},
		{name: "upstream miss", reads: srcBlockReads,
			outcomes: [4]string{"block_miss", "block_miss", "block_miss", "block_miss"}, far: through},
		{name: "forwarded", opts: srcOpts{noCache: true}, reads: srcBlockReads,
			outcomes: [4]string{"forwarded", "forwarded", "forwarded", "forwarded"},
			far:      [2]string{"forwarded", "forwarded"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			e := newSrcEnv(t, row)
			reads, outcomes := row.reads[:], row.outcomes[:]
			if row.far[0] != "" {
				reads = append(reads, srcFarReads[:]...)
				outcomes = append(outcomes, row.far[:]...)
			}
			for i, r := range reads {
				if row.before != nil {
					row.before(t, e, r)
				}
				count := e.outcomeCounts()
				var got *nfs3.ReadRes
				if row.join {
					got = e.joinRead(t, r)
				} else {
					got = e.read(t, e.proxy, r)
				}
				if diff := sameRead(got, e.read(t, e.origin, r)); diff != "" {
					t.Errorf("%s READ %+v: %s", srcCases[i], r, diff)
				}
				if n := e.outcomeCounts()[outcomes[i]] - count[outcomes[i]]; n != 1 {
					t.Errorf("%s READ %+v: not answered as %s", srcCases[i], r, outcomes[i])
				}
			}
		})
	}
}

// TestZeroEdgeReadAccountsSpan: a READ whose edges the zero map answers is
// accounted as the block path's READ of the span between them, with the
// span's bytes; a READ the map answers whole, with the READ's.
func TestZeroEdgeReadAccountsSpan(t *testing.T) {
	e := newSrcEnv(t, srcRow{zero: srcZeros, meta: meta.GenerateZeroMap})
	readBytes := func() uint64 {
		for _, row := range e.p.Statusz().Files["reads"] {
			if row.File == "/short" {
				return row.ReadBytes
			}
		}
		return 0
	}
	for _, step := range []struct {
		r    srcRead
		want uint64
	}{
		{srcRead{"/short", 0, 4, 0}, 2 * runBS}, // Z N N Z
		{srcRead{"/short", 3, 2, 0}, 2 * runBS}, // Z Z
	} {
		before := readBytes()
		e.read(t, e.proxy, step.r)
		if got := readBytes() - before; got != step.want {
			t.Errorf("READ %+v accounted %d bytes, want %d", step.r, got, step.want)
		}
	}
}

// TestFileCacheEndStands: where the table knows a fetched file as longer
// than the copy the file channel brought (the origin's file grew under
// it), a READ past the copy's end, which no block answers, is told of the
// end the origin reports — not answered with no bytes and no EOF, which a
// client asks again for ever.
func TestFileCacheEndStands(t *testing.T) {
	e := newSrcEnv(t, srcRow{meta: meta.ForWholeFile, opts: srcOpts{fileChan: true}})
	r := srcRead{"/short", 9, 1, 0}
	e.read(t, e.proxy, r) // the fetch
	e.p.attrs.sawSize(e.fhs[r.file], 12*runBS)
	if got := e.read(t, e.proxy, r); got.Status != nfs3.OK || len(got.Data) != 0 || !got.EOF {
		t.Errorf("READ past the copy's end: status %v, %d bytes, eof=%v; want 0 bytes and EOF", got.Status, len(got.Data), got.EOF)
	}
}

func newSrcEnv(t *testing.T, row srcRow) *srcEnv {
	t.Helper()
	fs := memfs.New()
	for name, size := range srcSizes {
		data := make([]byte, size)
		for i := range data {
			if !slices.Contains(row.zero, uint64(i/runBS)) {
				data[i] = byte(i*7+i/runBS) | 1
			}
		}
		for _, path := range []string{name, name + ".twin"} {
			if err := fs.WriteFile(path, data); err != nil {
				t.Fatal(err)
			}
		}
		if row.meta != nil {
			blob, err := row.meta(data, runBS).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/"+meta.NameFor(name[1:]), blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := &srcEnv{origin: nfsdInProcess(t, fs), fhs: map[string]nfs3.FH{},
		cred: sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "sources"}.Encode()}
	cfg := Config{Upstream: e.origin, Backend: nfs3be.New(e.origin)}
	if row.opts.dedup {
		cfg.Backend = hashingBackend{cfg.Backend}
	}
	if !row.opts.noCache {
		bc, err := cache.New(cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 16, Assoc: 4,
			BlockSize: runBS, Policy: cache.WriteBack, Dedup: row.opts.dedup})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bc.Close() })
		cfg.BlockCache = bc
	}
	if row.opts.fileChan {
		cfg.FileChanDial = func() (net.Conn, error) {
			a, b := net.Pipe()
			go filechan.NewServer(fs).ServeConn(b)
			return a, nil
		}
	}
	if row.opts.readAhead {
		cfg.ReadAhead = 8
	}
	var err error
	if e.p, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.p.Shutdown)
	e.proxy = sunrpc.Local{H: e.p}
	root, err := mountd.Mount(e.proxy, e.cred, "/")
	if err != nil {
		t.Fatal(err)
	}
	nc := nfs3.NewClient(e.proxy, e.cred)
	for name := range srcSizes {
		for _, path := range []string{name, name + ".twin"} {
			if e.fhs[path], _, err = nc.Lookup(root, path[1:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// read sends READ r to rpc, the proxy or the origin.
func (e *srcEnv) read(t *testing.T, rpc sunrpc.Local, r srcRead) *nfs3.ReadRes {
	t.Helper()
	res, err := e.readErr(rpc, r)
	if err != nil {
		t.Fatalf("READ %+v: %v", r, err)
	}
	return res
}

func (e *srcEnv) readErr(rpc sunrpc.Local, r srcRead) (*nfs3.ReadRes, error) {
	args := r.args(e.fhs[r.file])
	res, err := rpc.Call(nfs3.Program, nfs3.Version, nfs3.ProcRead, e.cred, args.Encode())
	if err != nil {
		return nil, err
	}
	return nfs3.DecodeReadRes(res)
}

// setSize sets path's size through the proxy with a SETATTR.
func (e *srcEnv) setSize(t *testing.T, path string, size uint64) {
	t.Helper()
	args := nfs3.SetattrArgs{FH: e.fhs[path], Attr: nfs3.SetAttr{Size: &size}}
	res, err := e.proxy.Call(nfs3.Program, nfs3.Version, nfs3.ProcSetattr, e.cred, args.Encode())
	if err != nil {
		t.Fatalf("SETATTR %s: %v", path, err)
	}
	if st := nfs3.Status(binary.BigEndian.Uint32(res)); st != nfs3.OK {
		t.Fatalf("SETATTR %s: %v", path, st)
	}
}

// joinRead answers READ r by a join: a run ahead of r's window is in
// flight when the READ looks, and installs r's blocks once it has missed
// them.
func (e *srcEnv) joinRead(t *testing.T, r srcRead) *nfs3.ReadRes {
	t.Helper()
	fh, bc := e.fhs[r.file], e.p.cfg.BlockCache
	key := raWindow{fh.Key(), r.block * runBS / nfs3.MaxTransfer}
	over := make(chan struct{})
	e.p.ra.mu.Lock()
	e.p.ra.inflight[key] = over
	e.p.ra.mu.Unlock()
	defer func() {
		e.p.ra.mu.Lock()
		delete(e.p.ra.inflight, key)
		e.p.ra.mu.Unlock()
	}()
	misses := bc.Stats().Misses
	type reply struct {
		res *nfs3.ReadRes
		err error
	}
	done := make(chan reply, 1)
	go func() {
		res, err := e.readErr(e.proxy, r)
		done <- reply{res, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); bc.Stats().Misses == misses; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("READ %+v never looked in the cache", r)
		}
	}
	args := r.args(fh)
	run, err := e.p.cfg.Backend.Read(backend.FileID(fh), args.Offset, args.Count, backend.CallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.p.installRun(fh, r.block, r.blocks, run, e.p.attrs.writeSeq(fh)); err != nil {
		t.Fatal(err)
	}
	run.Release()
	close(over)
	got := <-done
	if got.err != nil {
		t.Fatalf("READ %+v: %v", r, got.err)
	}
	return got.res
}

// outcomeCounts reads gvfs_proxy_read_duration_seconds' count by outcome.
func (e *srcEnv) outcomeCounts() map[string]uint64 {
	snap, out := e.p.Snapshot(), map[string]uint64{}
	for _, o := range readOutcomes {
		out[o] = snap.Histograms[fmt.Sprintf("gvfs_proxy_read_duration_seconds{outcome=%q}", o)].Count
	}
	return out
}

// sameRead describes how got differs from want, the origin's answer.
func sameRead(got, want *nfs3.ReadRes) string {
	switch {
	case got.Status != want.Status:
		return fmt.Sprintf("status %v, origin %v", got.Status, want.Status)
	case got.Status != nfs3.OK:
		return ""
	case got.Count != want.Count || got.EOF != want.EOF || !bytes.Equal(got.Data, want.Data):
		return fmt.Sprintf("%d bytes eof=%v (count %d), origin %d bytes eof=%v (count %d), same bytes: %v",
			len(got.Data), got.EOF, got.Count, len(want.Data), want.EOF, want.Count, bytes.Equal(got.Data, want.Data))
	case got.Attr == nil || want.Attr == nil:
		return fmt.Sprintf("post-op attributes %v, origin %v", got.Attr, want.Attr)
	case got.Attr.Size != want.Attr.Size:
		return fmt.Sprintf("post-op size %d, origin %d", got.Attr.Size, want.Attr.Size)
	}
	return ""
}

// hashingBackend knows its blocks' content hashes, as a content-addressed
// store does — here by reading the block — so that the proxy's dedup
// sources answer.
type hashingBackend struct{ backend.Backend }

func (h hashingBackend) BlockHash(f backend.FileID, block uint64, bs int) (backend.Hash, uint32, bool) {
	r, err := h.Read(f, block*uint64(bs), uint32(bs), backend.CallOpts{})
	if err != nil || len(r.Data) == 0 {
		return backend.Hash{}, 0, false
	}
	defer r.Release()
	return backend.HashOf(r.Data), uint32(len(r.Data)), true
}
