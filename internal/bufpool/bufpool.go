// Package bufpool provides size-classed, sync.Pool-backed byte
// buffers for the RPC data path. The proxy sits on every NFS call
// between a VM and its image server, so steady-state READ/WRITE
// traffic must not churn the allocator: record framing, XDR
// encode/decode and cache bank I/O all borrow buffers here and return
// them when the reply has been written.
//
// Ownership rules (see DESIGN.md §9): a pooled buffer has exactly one
// owner at a time. Whoever calls Get (or receives the buffer together
// with an explicit release callback) must either Put it back or hand
// it off; no component may retain a pooled slice past its release
// point — long-lived structures (cache index, flight recorder, trace
// ring) must copy. Put is always optional: a dropped buffer is
// garbage-collected like any other slice, so error paths may simply
// abandon buffers they own.
package bufpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Size classes are powers of two from 512 B to 1 MiB: the data path
// mostly moves 4 KiB cache blocks, 32 KiB NFS transfers and ~1 MiB
// RPC records, plus small header-sized scratch buffers.
const (
	minClassBits = 9  // 512 B
	maxClassBits = 20 // 1 MiB
	numClasses   = maxClassBits - minClassBits + 1

	// MaxPooled is the largest buffer the pool manages. Requests
	// beyond it fall back to plain allocation and Put drops them.
	MaxPooled = 1 << maxClassBits
)

var pools [numClasses]sync.Pool

// boxes recycles the *[]byte headers that carry buffers through the
// class pools. Storing a raw []byte in a sync.Pool boxes the slice
// header on every Put; cycling preallocated boxes keeps Put
// allocation-free in steady state.
var boxes = sync.Pool{New: func() any { return new([]byte) }}

var (
	gets   atomic.Uint64 // successful Get calls
	puts   atomic.Uint64 // buffers accepted back
	news   atomic.Uint64 // Gets that had to allocate (pool miss)
	big    atomic.Uint64 // Gets larger than MaxPooled (unpooled)
	poison atomic.Uint64 // poison-check violations detected
	debug  atomic.Bool
)

// classFor returns the pool index for a request of n bytes, or -1 when
// n exceeds MaxPooled.
func classFor(n int) int {
	if n > MaxPooled {
		return -1
	}
	c := 0
	for size := 1 << minClassBits; size < n; size <<= 1 {
		c++
	}
	return c
}

// Get returns a buffer with len n. Its capacity is the size class
// (cap >= n), so append within the class never reallocates. The
// contents are unspecified: callers must overwrite before reading.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		big.Add(1)
		return make([]byte, n)
	}
	gets.Add(1)
	if v := pools[c].Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		boxes.Put(box)
		if debug.Load() {
			checkPoison(b)
			released.Delete(&b[0]) // Put stored it at full length
		}
		return b[:n]
	}
	news.Add(1)
	return make([]byte, n, 1<<(minClassBits+c))
}

// Put returns a buffer obtained from Get to its size class. Buffers
// whose capacity is not an exact class size (resliced past cap games,
// or plain make() slices) are dropped silently, so Put is safe to call
// on any slice. After Put the caller must not touch b again.
func Put(b []byte) {
	c := cap(b)
	if c == 0 {
		return
	}
	cls := classFor(c)
	if cls < 0 || 1<<(minClassBits+cls) != c {
		return
	}
	b = b[:c]
	if debug.Load() {
		if _, twice := released.LoadOrStore(&b[0], struct{}{}); twice {
			poison.Add(1)
			panic("bufpool: buffer released twice")
		}
		for i := range b {
			b[i] = poisonByte
		}
	}
	puts.Add(1)
	box := boxes.Get().(*[]byte)
	*box = b
	pools[cls].Put(box)
}

// poisonByte fills released buffers in debug mode; Get verifies the
// fill is intact, catching writers that kept a slice past its release.
const poisonByte = 0xDB

// released holds, in debug mode, the first byte's address of every
// buffer Put and not handed out again, so a second Put of one is caught
// where it happens instead of when two owners collide. The keys keep
// buffers the pool itself has dropped alive until SetDebug empties the
// set: debug mode trades memory for the check.
var released sync.Map // *byte -> struct{}

func checkPoison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		if b[i] != poisonByte {
			poison.Add(1)
			panic("bufpool: pooled buffer mutated after release")
		}
	}
}

// SetDebug toggles poison-fill checking: Put fills released buffers
// with a sentinel and Get verifies it, turning any use-after-release
// write into a panic at the next reuse, and a buffer Put twice into a
// panic at the second Put. Meant for tests; it makes
// every Get/Put O(size). Enabling empties the pools first so buffers
// released before the switch (never poisoned) cannot trip the check:
// two collections, because Get cannot reach what another P holds in its
// private slot, while the first GC moves every sync.Pool's contents to
// its victim cache and the second drops them.
func SetDebug(on bool) {
	if on {
		runtime.GC()
		runtime.GC()
	}
	released.Range(func(k, _ any) bool { released.Delete(k); return true })
	debug.Store(on)
}

// Stats reports cumulative counters: total pooled Gets, Puts accepted
// back, Gets that allocated (pool misses), and oversized requests that
// bypassed the pool.
type Stats struct {
	Gets, Puts, Misses, Oversize, PoisonHits uint64
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	return Stats{
		Gets:       gets.Load(),
		Puts:       puts.Load(),
		Misses:     news.Load(),
		Oversize:   big.Load(),
		PoisonHits: poison.Load(),
	}
}
