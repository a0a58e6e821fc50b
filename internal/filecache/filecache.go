// Package filecache is a whole-file disk store keyed by remote path: the
// second-level file cache of a LAN file-channel relay (stack
// StartFileChanRelay), which fetches a file once from the image server
// and serves every later fetch of it locally. A client proxy has no such
// store: its file-channel fetches fill the block cache (package cache).
// Entries are never modified in place; Fill replaces one whole.
package filecache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrNotCached is returned when the requested path has no entry.
var ErrNotCached = errors.New("filecache: not cached")

// entry is one cached file. Fill replaces an entry whole; none changes.
type entry struct {
	local string // local file path
	size  uint64
}

// Stats reports file-cache counters.
type Stats struct {
	Files  int
	Bytes  uint64
	Hits   uint64
	Stores uint64
}

// Cache is a whole-file disk cache. All methods are safe for
// concurrent use.
type Cache struct {
	dir string

	mu      sync.Mutex
	entries map[string]*entry
	hits    uint64
	stores  uint64
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

// lookup returns path's entry, nil if it has none, and counts a hit if
// it is a read's.
func (c *Cache) lookup(path string, read bool) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[path]
	if e != nil && read {
		c.hits++
	}
	return e
}

// Has reports whether path is cached.
func (c *Cache) Has(path string) bool { return c.lookup(path, false) != nil }

// ReadAt serves a block read from the cached file, reporting EOF when
// the read reaches the end.
func (c *Cache) ReadAt(path string, off uint64, count uint32) (data []byte, eof bool, err error) {
	var size uint64
	if e := c.lookup(path, false); e != nil {
		size = e.size
	}
	buf := make([]byte, min(uint64(count), size-min(size, off)))
	n, eof, err := c.readInto(path, off, buf)
	if err != nil || n == 0 {
		return nil, eof, err
	}
	return buf[:n], eof, nil
}

// readInto is ReadAt into the caller's buffer: it fills buf from off on
// as far as the file goes and returns how far that was.
func (c *Cache) readInto(path string, off uint64, buf []byte) (n int, eof bool, err error) {
	e := c.lookup(path, true)
	if e == nil {
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

// Open returns a reader of path's cached contents and their size.
func (c *Cache) Open(path string) (io.ReadCloser, uint64, error) {
	e := c.lookup(path, false)
	if e == nil {
		return nil, 0, ErrNotCached
	}
	f, err := os.Open(e.local)
	if err != nil {
		return nil, 0, err
	}
	return struct {
		io.Reader
		io.Closer
	}{io.NewSectionReader(f, 0, int64(e.size)), f}, e.size, nil
}

// Stats returns a snapshot of counters and sizes.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{Files: len(c.entries), Hits: c.hits, Stores: c.stores}
	for _, e := range c.entries {
		st.Bytes += e.size
	}
	return st
}
