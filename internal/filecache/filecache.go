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
	"os"
	"path/filepath"
	"sync"
)

// ErrNotCached is returned when the requested path has no entry.
var ErrNotCached = errors.New("filecache: not cached")

type entry struct {
	local string // local file path
	size  uint64
	dirty bool
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

// Store caches the full contents of path.
func (c *Cache) Store(path string, data []byte) error {
	local := c.localName(path)
	if err := os.WriteFile(local, data, 0644); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[path] = &entry{local: local, size: uint64(len(data))}
	c.stores++
	return nil
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
	local := e.local
	c.mu.Unlock()
	return os.Truncate(local, int64(size))
}

// Contents returns the full cached contents of path.
func (c *Cache) Contents(path string) ([]byte, error) {
	c.mu.Lock()
	e, ok := c.entries[path]
	c.mu.Unlock()
	if !ok {
		return nil, ErrNotCached
	}
	data, err := os.ReadFile(e.local)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) > e.size {
		data = data[:e.size]
	}
	return data, nil
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

// MarkClean clears the dirty flag after an upload.
func (c *Cache) MarkClean(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[path]; ok {
		e.dirty = false
	}
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

// FlushFunc uploads one dirty file (e.g. via filechan.Put).
type FlushFunc func(path string, data []byte) error

// Flush uploads every dirty entry through fn and marks them clean.
func (c *Cache) Flush(fn FlushFunc) error {
	for _, p := range c.DirtyPaths() {
		data, err := c.Contents(p)
		if err != nil {
			return fmt.Errorf("filecache: flush %s: %w", p, err)
		}
		if err := fn(p, data); err != nil {
			return fmt.Errorf("filecache: flush %s: %w", p, err)
		}
		c.mu.Lock()
		c.flushes++
		c.mu.Unlock()
		c.MarkClean(p)
	}
	return nil
}
