package obs

import "sync"

// Ring keeps the last values added to it: when full, each Add
// overwrites the oldest. It backs every bounded record the diagnostic
// layer serves — the trace ring, the flight recorder, the /logz events
// and the proxy's write-back audit. It is safe for concurrent use, and
// a nil *Ring is inert (Add drops, reads are empty).
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int    // slot the next Add fills once buf is full
	total uint64 // every value ever added, overwritten ones included
}

// NewRing returns a ring of the given capacity, which must be positive.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Add appends v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Add(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
		r.next = (r.next + 1) % len(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Values returns the retained values, oldest first.
func (r *Ring[T]) Values() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total reports how many values were ever added, including the ones
// since overwritten.
func (r *Ring[T]) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Capacity reports the ring's bound (0 on nil).
func (r *Ring[T]) Capacity() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}
