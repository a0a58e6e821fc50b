// Package filecache implements the file-based disk cache of the
// paper's heterogeneous caching scheme (§3.2.2): whole files fetched
// through the file-based data channel are stored on local disk and all
// subsequent NFS requests to them are satisfied locally. It complements
// the block-based cache in package cache — together they form the
// heterogeneous disk cache the paper describes.
//
// Entries are keyed by remote path. The cache supports write-back:
// locally modified entries are marked dirty and uploaded through the
// file channel when the middleware flushes the session.
package filecache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrNotCached is returned when the requested path has no entry.
var ErrNotCached = errors.New("filecache: not cached")

type entry struct {
	local string // local file path
	size  uint64
	dirty bool
	gen   uint64 // counts local modifications, so a flush knows if one raced it
}

// Stats reports file-cache counters.
type Stats struct {
	Files     int
	Bytes     uint64
	Hits      uint64
	Stores    uint64
	WriteOuts uint64
}

// Cache is a whole-file disk cache. All methods are safe for
// concurrent use.
type Cache struct {
	dir string

	mu      sync.Mutex
	entries map[string]*entry
	hits    uint64
	stores  uint64
	flushes uint64
}

// New creates the cache directory if needed and returns an empty cache.
func New(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir, entries: make(map[string]*entry)}, nil
}

func (c *Cache) localName(path string) string {
	sum := sha256.Sum256([]byte(path))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16]))
}

// Fill caches path's full contents as fill writes them to w. The bytes
// go to a temporary file that replaces any entry for path only if fill
// returns nil, so a failed transfer leaves no entry. It returns the
// size cached.
func (c *Cache) Fill(path string, fill func(w io.Writer) error) (uint64, error) {
	tmp, err := os.CreateTemp(c.dir, "fill-*")
	if err != nil {
		return 0, err
	}
	size, err := fillTemp(tmp, fill)
	if err == nil {
		err = os.Rename(tmp.Name(), c.localName(path))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[path] = &entry{local: c.localName(path), size: size}
	c.stores++
	return size, nil
}

// fillTemp runs fill into tmp, closes it and returns its size.
func fillTemp(tmp *os.File, fill func(w io.Writer) error) (uint64, error) {
	err := fill(tmp)
	var size int64
	if err == nil {
		size, err = tmp.Seek(0, io.SeekCurrent)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	return uint64(size), err
}

// Store caches the full contents of path.
func (c *Cache) Store(path string, data []byte) error {
	_, err := c.Fill(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	return err
}

// Has reports whether path is cached.
func (c *Cache) Has(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[path]
	return ok
}

// Size returns the cached size of path.
func (c *Cache) Size(path string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[path]
	if !ok {
		return 0, false
	}
	return e.size, true
}

// ReadAt serves a block read from the cached file, reporting EOF when
// the read reaches the end.
func (c *Cache) ReadAt(path string, off uint64, count uint32) (data []byte, eof bool, err error) {
	size, _ := c.Size(path)
	buf := make([]byte, min(uint64(count), size-min(size, off)))
	n, eof, err := c.ReadInto(path, off, buf)
	if err != nil || n == 0 {
		return nil, eof, err
	}
	return buf[:n], eof, nil
}

// ReadInto is ReadAt into the caller's buffer: it fills buf from off on
// as far as the file goes and returns how far that was.
func (c *Cache) ReadInto(path string, off uint64, buf []byte) (n int, eof bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[path]
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	if !ok {
		return 0, false, ErrNotCached
	}
	if off >= e.size {
		return 0, true, nil
	}
	end := min(off+uint64(len(buf)), e.size)
	f, err := os.Open(e.local)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	if _, err := f.ReadAt(buf[:end-off], int64(off)); err != nil {
		return 0, false, err
	}
	return int(end - off), end == e.size, nil
}

// WriteAt applies a block write to the cached file and marks it dirty
// (file-cache write-back).
func (c *Cache) WriteAt(path string, off uint64, data []byte) error {
	c.mu.Lock()
	e, ok := c.entries[path]
	if !ok {
		c.mu.Unlock()
		return ErrNotCached
	}
	e.dirty = true
	e.gen++
	if end := off + uint64(len(data)); end > e.size {
		e.size = end
	}
	local := e.local
	c.mu.Unlock()
	f, err := os.OpenFile(local, os.O_WRONLY, 0644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(data, int64(off))
	return err
}

// Truncate resizes a cached entry and marks it dirty.
func (c *Cache) Truncate(path string, size uint64) error {
	c.mu.Lock()
	e, ok := c.entries[path]
	if !ok {
		c.mu.Unlock()
		return ErrNotCached
	}
	e.size = size
	e.dirty = true
	e.gen++
	local := e.local
	c.mu.Unlock()
	return os.Truncate(local, int64(size))
}

// Open returns a reader of path's cached contents and their size.
func (c *Cache) Open(path string) (io.ReadCloser, uint64, error) {
	c.mu.Lock()
	e, ok := c.entries[path]
	var local string
	var size uint64
	if ok {
		local, size = e.local, e.size
	}
	c.mu.Unlock()
	if !ok {
		return nil, 0, ErrNotCached
	}
	f, err := os.Open(local)
	if err != nil {
		return nil, 0, err
	}
	return struct {
		io.Reader
		io.Closer
	}{io.NewSectionReader(f, 0, int64(size)), f}, size, nil
}

// Dirty reports whether path has local modifications.
func (c *Cache) Dirty(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[path]
	return ok && e.dirty
}

// DirtyPaths lists entries with local modifications.
func (c *Cache) DirtyPaths() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for p, e := range c.entries {
		if e.dirty {
			out = append(out, p)
		}
	}
	return out
}

// Invalidate removes path from the cache. Dirty data is discarded;
// flush first if it must survive.
func (c *Cache) Invalidate(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[path]; ok {
		os.Remove(e.local)
		delete(c.entries, path)
	}
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p, e := range c.entries {
		os.Remove(e.local)
		delete(c.entries, p)
	}
}

// Stats returns a snapshot of counters and sizes.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{Files: len(c.entries), Hits: c.hits, Stores: c.stores, WriteOuts: c.flushes}
	for _, e := range c.entries {
		st.Bytes += e.size
	}
	return st
}

// FlushFunc uploads one dirty file of size bytes read from r (e.g. via
// filechan.PutFrom).
type FlushFunc func(path string, r io.Reader, size uint64) error

// Flush uploads every dirty entry through fn and marks them clean.
func (c *Cache) Flush(fn FlushFunc) error { return c.flush(c.DirtyPaths(), fn) }

// Evict uploads through fn what is dirty at prefix or under it — the
// path of a directory, or of a file — and then drops every entry there:
// the path is about to stop naming them.
func (c *Cache) Evict(prefix string, fn FlushFunc) error {
	c.mu.Lock()
	var paths []string
	for p := range c.entries {
		if rest, ok := strings.CutPrefix(p, prefix); ok && (rest == "" || rest[0] == '/') {
			paths = append(paths, p)
		}
	}
	c.mu.Unlock()
	if err := c.flush(paths, fn); err != nil {
		return err
	}
	for _, p := range paths {
		c.Invalidate(p)
	}
	return nil
}

func (c *Cache) flush(paths []string, fn FlushFunc) error {
	for _, p := range paths {
		var gen uint64
		c.mu.Lock()
		e, dirty := c.entries[p]
		if dirty {
			dirty, gen = e.dirty, e.gen
		}
		c.mu.Unlock()
		if !dirty {
			continue
		}
		if err := c.upload(p, fn); err != nil {
			return fmt.Errorf("filecache: flush %s: %w", p, err)
		}
		c.mu.Lock()
		c.flushes++
		// A write that landed during the upload may be missing from it.
		if e, ok := c.entries[p]; ok && e.gen == gen {
			e.dirty = false
		}
		c.mu.Unlock()
	}
	return nil
}

// upload streams path's cached contents through fn.
func (c *Cache) upload(path string, fn FlushFunc) error {
	r, size, err := c.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	return fn(path, r, size)
}
