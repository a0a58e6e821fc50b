// Package pagecache stands in for the kernel NFS client's memory
// buffer cache. The paper's analysis hinges on its two limitations in
// a WAN setting: limited storage capacity (capacity misses fall
// through to the network) and write staging that is only short-term.
// The GVFS proxy disk cache sits *behind* this cache and absorbs
// exactly those misses.
//
// The cache is a strict-capacity LRU of (file handle, block) pages.
package pagecache

import (
	"container/list"
	"sync"

	"gvfs/internal/nfs3"
)

type key struct {
	fh    string // nfs3.FH.Key()
	block uint64
}

type page struct {
	key  key
	data []byte
}

// Stats reports hit/miss counters.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// Cache is an LRU page cache with a fixed page budget.
type Cache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recent; values are *page
	pages    map[key]*list.Element
	stats    Stats
}

// New returns a cache holding at most capacity pages. Zero capacity
// disables caching entirely (every Get misses).
func New(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		pages:    make(map[key]*list.Element),
	}
}

// Capacity returns the page budget.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of resident pages.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// lookup counts one page a caller asked for as a hit or a miss and
// returns it if resident. c.mu is held.
func (c *Cache) lookup(k key) *page {
	el, ok := c.pages[k]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*page)
}

// Get returns a copy of the cached page for (fh, block) if resident.
func (c *Cache) Get(fh nfs3.FH, block uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.lookup(key{fh.Key(), block})
	if p == nil {
		return nil, false
	}
	return append([]byte(nil), p.data...), true
}

// CopyOut is the hit path without a copy of the page in between: the
// resident page's bytes from off on go straight into dst, and n says how
// many. fh is the file's nfs3.FH.Key(), which a caller that touches many
// pages of one file computes once. The caller knows the page to hold at
// least atLeast bytes of its file; a page cached shorter (the tail of a
// file that has grown since) is zero-extended to that first.
func (c *Cache) CopyOut(fh string, block uint64, dst []byte, off, atLeast int) (n int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.lookup(key{fh, block})
	if p == nil {
		return 0, false
	}
	if short := atLeast - len(p.data); short > 0 {
		p.data = append(p.data, make([]byte, short)...)
	}
	if off < len(p.data) {
		n = copy(dst, p.data[off:])
	}
	return n, true
}

// Put inserts or refreshes a page, evicting the LRU page if the cache
// is full.
func (c *Cache) Put(fh nfs3.FH, block uint64, data []byte) {
	c.put(key{fh.Key(), block}, data, true)
}

// Fill inserts a page read from the server unless one is resident
// already: what is resident is at least as new (a write patched it, or
// another reader brought the same bytes), so it is neither replaced nor
// counted as used. fh is the file's nfs3.FH.Key().
func (c *Cache) Fill(fh string, block uint64, data []byte) {
	c.put(key{fh, block}, data, false)
}

func (c *Cache) put(k key, data []byte, replace bool) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.pages[k]; ok {
		if !replace {
			return
		}
		p := el.Value.(*page)
		p.data = append(p.data[:0], data...)
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.pages, back.Value.(*page).key)
		c.stats.Evictions++
	}
	p := &page{key: k, data: append([]byte{}, data...)}
	c.pages[k] = c.lru.PushFront(p)
}

// InvalidateFile drops all pages of fh.
func (c *Cache) InvalidateFile(fh nfs3.FH) {
	fhKey := fh.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*page).key.fh == fhKey {
			c.lru.Remove(el)
			delete(c.pages, el.Value.(*page).key)
		}
		el = next
	}
}

// InvalidateAll empties the cache (unmount/remount between runs — the
// paper's "cold cache" setup step).
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.pages = make(map[key]*list.Element)
}
