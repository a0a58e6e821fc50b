// Package filecache is a whole-file disk store keyed by path. No GVFS
// component uses it: the LAN's file-channel relay serves through the LAN
// caching proxy's block cache (stack.StartFileChanRelay). It stays only
// for the benchmark probe filecache.read_at_us, and goes with it.
package filecache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
)

// ErrNotCached is returned when the requested path has no entry.
var ErrNotCached = errors.New("filecache: not cached")

// Cache is a whole-file disk store. Its methods may run concurrently,
// but for a Store and another call on the same path.
type Cache struct{ dir string }

// New creates the cache directory if needed and returns an empty cache.
func New(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

func (c *Cache) localName(path string) string {
	sum := sha256.Sum256([]byte(path))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16]))
}

// Store caches the full contents of path, replacing any entry.
func (c *Cache) Store(path string, data []byte) error {
	return os.WriteFile(c.localName(path), data, 0644)
}

// ReadAt reads up to count bytes of path's cached copy from off on,
// reporting EOF when they reach its end.
func (c *Cache) ReadAt(path string, off uint64, count uint32) (data []byte, eof bool, err error) {
	f, err := os.Open(c.localName(path))
	if errors.Is(err, fs.ErrNotExist) {
		err = ErrNotCached
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	size := uint64(st.Size())
	if off >= size {
		return nil, true, nil
	}
	data = make([]byte, min(off+uint64(count), size)-off)
	if _, err := f.ReadAt(data, int64(off)); err != nil {
		return nil, false, err
	}
	return data, off+uint64(len(data)) == size, nil
}
