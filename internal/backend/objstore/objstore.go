// Package objstore implements backend.Backend against a flat object
// store — in-memory or a local directory — with a content-addressed
// layout: file data lives in immutable blocks keyed by their SHA-256
// hash ("obj/<hex>"), and each file is a small manifest ("meta/<path>")
// listing its block hashes. Cloning a VM image is a manifest copy;
// identical blocks across clones are one object; all-zero blocks are
// represented by the well-known zero hash and never stored or
// transferred at all — the paper's zero-block map generalized.
//
// The backend lets the proxy, its cache, and the benchmarks run
// without an nfsd, and its content hashes feed the cache's cross-VM
// dedup map (backend.Hasher).
package objstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"sync"
	"sync/atomic"

	"gvfs/internal/backend"
	"gvfs/internal/nfs3"
)

const (
	dataPrefix = "obj/"
	metaPrefix = "meta"
)

// DefaultBlockSize is the manifest block size when none is given.
const DefaultBlockSize = 8192

// maxBlockSize bounds a manifest's block size, which is what one block of
// a read allocates. New clamps to it; a stored manifest past it, or whose
// block count is not its size in blocks, is refused as corrupt.
const maxBlockSize = 1 << 20

// manifest is the stored per-file descriptor.
type manifest struct {
	Size      uint64   `json:"size"`
	BlockSize int      `json:"block_size"`
	Blocks    []string `json:"blocks"` // hex SHA-256 per block
}

// parsed is a decoded manifest with binary hashes.
type parsed struct {
	size   uint64
	bs     int
	blocks []backend.Hash
}

// Backend serves the backend.Backend contract from a Store.
type Backend struct {
	store Store
	bs    int

	mu    sync.Mutex
	cache map[string]*parsed // manifest cache, keyed by FileID; at most manifestMax
	saves uint64             // manifests saved so far

	// wlocks serialize the manifest read-modify-write in Write, a file's
	// under writeLock(fid). Without them, the proxy's
	// concurrent flush (up to eight dirty runs of one file in flight at
	// once) loses manifest updates — block objects land in the store but
	// the last saveManifest wins, resurrecting zero hashes for blocks
	// another writer just filled. Files that share a stripe wait for one
	// another; a caller holds one stripe at a time, so none deadlocks.
	wlocks [64]sync.Mutex

	fault atomic.Pointer[faultState]
}

// manifestMax bounds the manifest cache; a file past it starts the cache
// afresh rather than growing it for ever (a manifest is in the store
// whenever it is in the cache).
const manifestMax = 1024

// writeLock returns the mutex serializing manifest updates for fid.
func (b *Backend) writeLock(fid string) *sync.Mutex {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(fid); i++ {
		h = (h ^ uint32(fid[i])) * 16777619
	}
	return &b.wlocks[h%uint32(len(b.wlocks))]
}

// cacheLocked caches fid's manifest, starting the cache afresh at
// manifestMax. b.mu is held.
func (b *Backend) cacheLocked(fid string, m *parsed) {
	if len(b.cache) >= manifestMax {
		b.cache = make(map[string]*parsed)
	}
	b.cache[fid] = m
}

type faultState struct{ err error }

// New returns a Backend over store with the given manifest block size
// (DefaultBlockSize when 0, maxBlockSize past it).
func New(store Store, blockSize int) *Backend {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	blockSize = min(blockSize, maxBlockSize)
	return &Backend{store: store, bs: blockSize, cache: make(map[string]*parsed)}
}

// SetFault injects err into every subsequent data operation (nil
// clears). Conformance tests use it to exercise the proxy's error
// taxonomy without a real outage.
func (b *Backend) SetFault(err error) {
	if err == nil {
		b.fault.Store(nil)
		return
	}
	b.fault.Store(&faultState{err: err})
}

func (b *Backend) faulted() error {
	if f := b.fault.Load(); f != nil {
		return f.err
	}
	return nil
}

// checkCall gates every operation on injected faults and the caller's
// deadline, mirroring how a real transport surfaces budget expiry.
func (b *Backend) checkCall(op string, opts backend.CallOpts) error {
	if err := b.faulted(); err != nil {
		return err
	}
	return expired(op, opts)
}

// expired is a ClassTimeout error once the call's deadline has passed.
func expired(op string, opts backend.CallOpts) error {
	if rem, ok := opts.Remaining(); ok && rem < 0 {
		return &backend.Error{Class: backend.ClassTimeout, Op: op, Err: context.DeadlineExceeded}
	}
	return nil
}

// inTime, deferred by every operation that reaches the store, answers one
// whose deadline ran out while the store worked with ClassTimeout,
// whatever the store said: the caller has stopped waiting, as nfs3be's
// transport stops waiting for a reply that comes too late.
func inTime(op string, opts backend.CallOpts, err *error) {
	if late := expired(op, opts); late != nil {
		*err = late
	}
}

// cleanPath canonicalizes a file path to the absolute form used as
// FileID ("/", "/images/vm0.img").
func cleanPath(p string) string { return path.Clean("/" + p) }

// fileID is cleanPath for a FileID about to be handed out: a path longer
// than backend.MaxFileID could not travel as a file handle, so it is
// refused here, by name, before anything is looked up or created.
func fileID(op, p string) (string, error) {
	fid := cleanPath(p)
	if len(fid) > backend.MaxFileID {
		return "", nfs3.Fail(op, nfs3.ErrNameTooLong, fmt.Errorf(
			"objstore: path of %d bytes exceeds the %d-byte file ID limit", len(fid), backend.MaxFileID))
	}
	return fid, nil
}

func manifestKey(fid string) string { return metaPrefix + fid }

// storeErr classifies a raw Store failure. DirStore surfaces bare OS
// errors, and a store that answered with one nfs3.Fail knows (ENOSPC, EIO,
// EROFS, permission...) is alive: that status, echoed to the client and
// ignored by the breaker and replica health scoring. Only a failure with
// no recognizable cause is Unavailable (a vanished mount, a dying device).
func storeErr(op string, err error) error {
	if errors.Is(err, ErrNotExist) {
		return nfs3.Fail(op, nfs3.ErrNoEnt, err)
	}
	return nfs3.Fail(op, 0, err)
}

// loadManifest fetches and caches the manifest for fid.
func (b *Backend) loadManifest(op, fid string) (*parsed, error) {
	b.mu.Lock()
	m, ok := b.cache[fid]
	since := b.saves
	b.mu.Unlock()
	if ok {
		return m, nil
	}
	blob, err := b.store.Get(manifestKey(fid))
	if err != nil {
		return nil, storeErr(op, err)
	}
	var raw manifest
	if err := json.Unmarshal(blob, &raw); err != nil {
		return nil, &backend.Error{Class: backend.ClassIO, Op: op, Err: err}
	}
	if raw.BlockSize <= 0 || raw.BlockSize > maxBlockSize {
		return nil, &backend.Error{Class: backend.ClassIO, Op: op, Err: fmt.Errorf("manifest %q: bad block size", fid)}
	}
	if n := blocksOf(raw.Size, raw.BlockSize); uint64(len(raw.Blocks)) != n {
		return nil, &backend.Error{Class: backend.ClassIO, Op: op, Err: fmt.Errorf("manifest %q: %d blocks for %d bytes", fid, len(raw.Blocks), raw.Size)}
	}
	m = &parsed{size: raw.Size, bs: raw.BlockSize, blocks: make([]backend.Hash, 0, len(raw.Blocks))}
	for _, hs := range raw.Blocks {
		h, ok := backend.ParseHash(hs)
		if !ok {
			return nil, &backend.Error{Class: backend.ClassIO, Op: op, Err: fmt.Errorf("manifest %q: bad hash %q", fid, hs)}
		}
		m.blocks = append(m.blocks, h)
	}
	// A manifest saved since the Get began may be newer than m and is
	// cached already: m must not replace it, or the next Write would build
	// on m and undo that save.
	b.mu.Lock()
	if b.saves == since {
		b.cacheLocked(fid, m)
	}
	b.mu.Unlock()
	return m, nil
}

// saveManifest persists m and refreshes the cache.
func (b *Backend) saveManifest(op, fid string, m *parsed) error {
	raw := manifest{Size: m.size, BlockSize: m.bs, Blocks: make([]string, len(m.blocks))}
	for i, h := range m.blocks {
		raw.Blocks[i] = h.String()
	}
	blob, err := json.Marshal(&raw)
	if err != nil {
		return &backend.Error{Class: backend.ClassIO, Op: op, Err: err}
	}
	if err := b.store.Put(manifestKey(fid), blob); err != nil {
		return storeErr(op, err)
	}
	b.mu.Lock()
	b.saves++
	b.cacheLocked(fid, m)
	b.mu.Unlock()
	return nil
}

// blocksOf is how many blocks of bs bytes hold size bytes.
func blocksOf(size uint64, bs int) uint64 {
	n := size / uint64(bs)
	if size%uint64(bs) != 0 {
		n++
	}
	return n
}

// blockLen is the content length of block i in a file of size bytes.
func blockLen(size uint64, bs int, i int) int {
	start := uint64(i) * uint64(bs)
	if start >= size {
		return 0
	}
	if rem := size - start; rem < uint64(bs) {
		return int(rem)
	}
	return bs
}

// blockContent fetches one content block by hash; zero-hash blocks
// materialize locally without touching the store.
func (b *Backend) blockContent(op string, h backend.Hash, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if backend.IsZeroHash(h, n) {
		return make([]byte, n), nil
	}
	data, err := b.store.Get(dataPrefix + h.String())
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			// A manifest pointing at an absent object is store-side
			// corruption, not a missing file: NFS3ERR_IO, and for the
			// replicated backend a divergence the scrub can repair.
			return nil, nfs3.Fail(op, nfs3.ErrIO, fmt.Errorf("missing block object %s", h))
		}
		return nil, storeErr(op, err)
	}
	if len(data) != n {
		return nil, &backend.Error{Class: backend.ClassIO, Op: op, Err: fmt.Errorf("block object %s: length %d, manifest says %d", h, len(data), n)}
	}
	return data, nil
}

// putBlock stores one content block unless it is all zeros (the
// well-known hash needs no object) or already present.
func (b *Backend) putBlock(op string, data []byte) (backend.Hash, error) {
	h := backend.HashOf(data)
	if backend.IsZeroHash(h, len(data)) {
		return h, nil
	}
	key := dataPrefix + h.String()
	if _, err := b.store.Get(key); err == nil {
		return h, nil
	}
	if err := b.store.Put(key, data); err != nil {
		return backend.Hash{}, storeErr(op, err)
	}
	return h, nil
}

func (b *Backend) fileAttr(m *parsed) backend.Attr {
	return backend.Attr{Type: backend.TypeReg, Mode: 0644, Nlink: 1, Size: m.size, Used: m.size}
}

// Read implements backend.Backend.
func (b *Backend) Read(f backend.FileID, off uint64, count uint32, opts backend.CallOpts) (_ backend.ReadResult, err error) {
	if err := b.checkCall("read", opts); err != nil {
		return backend.ReadResult{}, err
	}
	defer inTime("read", opts, &err)
	m, err := b.loadManifest("read", string(f))
	if err != nil {
		return backend.ReadResult{}, err
	}
	attr := b.fileAttr(m)
	if off >= m.size || count == 0 {
		return backend.ReadResult{EOF: true, Attr: attr}, nil
	}
	end := off + uint64(count)
	if end > m.size {
		end = m.size
	}
	out := make([]byte, 0, end-off)
	bs := uint64(m.bs)
	for bi := off / bs; bi*bs < end; bi++ {
		n := blockLen(m.size, m.bs, int(bi))
		if int(bi) >= len(m.blocks) || n == 0 {
			break
		}
		data, err := b.blockContent("read", m.blocks[bi], n)
		if err != nil {
			return backend.ReadResult{}, err
		}
		lo, hi := uint64(0), uint64(len(data))
		if start := bi * bs; start < off {
			lo = off - start
		}
		if start := bi * bs; start+hi > end {
			hi = end - start
		}
		if lo < hi {
			out = append(out, data[lo:hi]...)
		}
	}
	return backend.ReadResult{Data: out, EOF: end >= m.size, Attr: attr}, nil
}

// Write implements backend.Backend: read-modify-write of the affected
// manifest blocks, new content objects put by hash, manifest updated
// last. Store puts are durable, so the FILE_SYNC contract holds.
func (b *Backend) Write(f backend.FileID, off uint64, data []byte, opts backend.CallOpts) (_ backend.WriteResult, err error) {
	if err := b.checkCall("write", opts); err != nil {
		return backend.WriteResult{}, err
	}
	defer inTime("write", opts, &err)
	// Serialize the whole RMW per file: concurrent writers to disjoint
	// ranges must both survive into the manifest.
	wl := b.writeLock(string(f))
	wl.Lock()
	defer wl.Unlock()
	m, err := b.loadManifest("write", string(f))
	if err != nil {
		return backend.WriteResult{}, err
	}
	newSize := m.size
	if end := off + uint64(len(data)); end > newSize {
		newSize = end
	}
	bs := uint64(m.bs)
	nm := &parsed{size: newSize, bs: m.bs, blocks: make([]backend.Hash, blocksOf(newSize, m.bs))}
	copy(nm.blocks, m.blocks)
	// Blocks beyond the old content (a grow with a hole) are zeros.
	oldBlocks := len(m.blocks)
	for i := oldBlocks; i < len(nm.blocks); i++ {
		nm.blocks[i] = backend.ZeroHash(blockLen(newSize, m.bs, i))
	}
	// Old blocks whose length grows (old tail block) must be re-hashed
	// below; restrict RMW to the affected range plus the old tail.
	first, last := off/bs, (off+uint64(len(data))-1)/bs
	if len(data) == 0 {
		last = first
	}
	for bi := first; bi <= last && bi*bs < newSize; bi++ {
		n := blockLen(newSize, m.bs, int(bi))
		buf := make([]byte, n)
		if int(bi) < oldBlocks {
			oldN := blockLen(m.size, m.bs, int(bi))
			if oldN > 0 {
				old, err := b.blockContent("write", m.blocks[bi], oldN)
				if err != nil {
					return backend.WriteResult{}, err
				}
				copy(buf, old)
			}
		}
		start := bi * bs
		lo := uint64(0)
		if start < off {
			lo = off - start
		}
		srcLo := start + lo - off
		copy(buf[lo:], data[srcLo:])
		h, err := b.putBlock("write", buf)
		if err != nil {
			return backend.WriteResult{}, err
		}
		nm.blocks[bi] = h
	}
	// An old tail block that is now interior keeps its content but its
	// stored object length no longer matches blockLen; re-store padded.
	if newSize > m.size && m.size > 0 {
		ti := int((m.size - 1) / bs)
		if uint64(ti) < first || uint64(ti) > last {
			oldN := blockLen(m.size, m.bs, ti)
			newN := blockLen(newSize, m.bs, ti)
			if newN > oldN {
				old, err := b.blockContent("write", m.blocks[ti], oldN)
				if err != nil {
					return backend.WriteResult{}, err
				}
				buf := make([]byte, newN)
				copy(buf, old)
				h, err := b.putBlock("write", buf)
				if err != nil {
					return backend.WriteResult{}, err
				}
				nm.blocks[ti] = h
			}
		}
	}
	if err := b.saveManifest("write", string(f), nm); err != nil {
		return backend.WriteResult{}, err
	}
	return backend.WriteResult{After: b.fileAttr(nm)}, nil
}

// Commit implements backend.Backend; writes are already durable.
func (b *Backend) Commit(f backend.FileID, opts backend.CallOpts) error {
	return b.checkCall("commit", opts)
}

// isDir reports whether fid has files beneath it.
func (b *Backend) isDir(fid string) bool {
	prefix := manifestKey(fid) + "/"
	if fid == "/" {
		prefix = metaPrefix + "/"
	}
	keys, err := b.store.List(prefix)
	return err == nil && len(keys) > 0
}

// GetAttr implements backend.Backend.
func (b *Backend) GetAttr(f backend.FileID, opts backend.CallOpts) (_ backend.Attr, err error) {
	if err := b.checkCall("getattr", opts); err != nil {
		return backend.Attr{}, err
	}
	defer inTime("getattr", opts, &err)
	fid := cleanPath(string(f))
	if m, err := b.loadManifest("getattr", fid); err == nil {
		return b.fileAttr(m), nil
	} else if backend.Classify(err) != backend.ClassNotFound {
		return backend.Attr{}, err
	}
	if fid == "/" || b.isDir(fid) {
		return backend.Attr{Type: backend.TypeDir, Mode: 0755, Nlink: 1}, nil
	}
	return backend.Attr{}, nfs3.Fail("getattr", nfs3.ErrNoEnt, ErrNotExist)
}

// Root implements backend.Namespacer.
func (b *Backend) Root(dirpath string) (backend.FileID, backend.Attr, error) {
	fid, err := fileID("root", dirpath)
	if err != nil {
		return nil, backend.Attr{}, err
	}
	attr, err := b.GetAttr(backend.FileID(fid), backend.CallOpts{})
	if err != nil {
		return nil, backend.Attr{}, err
	}
	return backend.FileID(fid), attr, nil
}

// Lookup implements backend.Lookuper.
func (b *Backend) Lookup(dir backend.FileID, name string, opts backend.CallOpts) (_ backend.FileID, _ backend.Attr, err error) {
	if err := b.checkCall("lookup", opts); err != nil {
		return nil, backend.Attr{}, err
	}
	defer inTime("lookup", opts, &err)
	child, err := fileID("lookup", path.Join(cleanPath(string(dir)), name))
	if err != nil {
		return nil, backend.Attr{}, err
	}
	attr, err := b.GetAttr(backend.FileID(child), opts)
	if err != nil {
		return nil, backend.Attr{}, err
	}
	return backend.FileID(child), attr, nil
}

// Create implements backend.Namespacer: an empty regular file.
func (b *Backend) Create(dir backend.FileID, name string, opts backend.CallOpts) (_ backend.FileID, _ backend.Attr, err error) {
	if err := b.checkCall("create", opts); err != nil {
		return nil, backend.Attr{}, err
	}
	defer inTime("create", opts, &err)
	child, err := fileID("create", path.Join(cleanPath(string(dir)), name))
	if err != nil {
		return nil, backend.Attr{}, err
	}
	wl := b.writeLock(child)
	wl.Lock()
	defer wl.Unlock()
	m := &parsed{size: 0, bs: b.bs}
	if err := b.saveManifest("create", child, m); err != nil {
		return nil, backend.Attr{}, err
	}
	return backend.FileID(child), b.fileAttr(m), nil
}

// BlockHash implements backend.Hasher: the content hash of a block
// straight from the manifest — no data transfer. ok is false when the
// manifest block size differs from the caller's or the file/block is
// unknown, in which case the caller must fall back to Read.
func (b *Backend) BlockHash(f backend.FileID, block uint64, blockSize int) (backend.Hash, uint32, bool) {
	if b.faulted() != nil {
		return backend.Hash{}, 0, false
	}
	m, err := b.loadManifest("blockhash", string(f))
	if err != nil || m.bs != blockSize || block >= uint64(len(m.blocks)) {
		return backend.Hash{}, 0, false
	}
	n := blockLen(m.size, m.bs, int(block))
	return m.blocks[block], uint32(n), true
}

// Probe implements backend.Backend: one cheap store operation.
func (b *Backend) Probe() error {
	if err := b.faulted(); err != nil {
		return err
	}
	_, err := b.store.Get(metaPrefix + "/.probe")
	if err == nil || errors.Is(err, ErrNotExist) {
		return nil
	}
	return storeErr("probe", err)
}

// Caps implements backend.Backend.
func (b *Backend) Caps() backend.Caps {
	return backend.Caps{Name: "objstore", ContentHashes: true}
}

// Close implements backend.Backend.
func (b *Backend) Close() error { return nil }

// CreateFile stores a whole file in one shot (seeding golden images).
func (b *Backend) CreateFile(name string, data []byte) error {
	fid := cleanPath(name)
	size := uint64(len(data))
	bs := uint64(b.bs)
	m := &parsed{size: size, bs: b.bs, blocks: make([]backend.Hash, blocksOf(size, b.bs))}
	for i := range m.blocks {
		lo := uint64(i) * bs
		hi := lo + bs
		if hi > size {
			hi = size
		}
		h, err := b.putBlock("create-file", data[lo:hi])
		if err != nil {
			return err
		}
		m.blocks[i] = h
	}
	return b.saveManifest("create-file", fid, m)
}

// Clone makes dst a copy-on-write clone of src: a manifest copy, no
// data objects touched. This is the content-addressed store's VM
// image clone primitive.
func (b *Backend) Clone(src, dst string) error {
	m, err := b.loadManifest("clone", cleanPath(src))
	if err != nil {
		return err
	}
	cp := &parsed{size: m.size, bs: m.bs, blocks: append([]backend.Hash(nil), m.blocks...)}
	return b.saveManifest("clone", cleanPath(dst), cp)
}
