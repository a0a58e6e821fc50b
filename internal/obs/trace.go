package obs

// Lightweight request tracing. A trace context (64-bit ID + hop count)
// is allocated at the first proxy a call reaches and propagated
// upstream hop to hop — the wire encoding lives in internal/sunrpc as
// a verifier-field header extension; this file only knows IDs, hops
// and spans. Every participating proxy records its own view of the
// call (one Trace with per-layer Spans) into its bounded ring, so
// stitching the rings of a chain by trace ID reconstructs where each
// RPC spent its time: page cache, block cache hit/miss, zero filter,
// file cache, or the upstream round trip.

import (
	"crypto/rand"
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span layer names recorded by the session and proxy layers.
const (
	LayerPageCache  = "page_cache"
	LayerBlockCache = "block_cache"
	LayerZeroFilter = "zero_filter"
	LayerFileCache  = "file_cache"
	LayerUpstream   = "upstream_rpc"
	LayerAttrTable  = "attr_table" // LOOKUP/GETATTR/READLINK answered from the proxy's attribute table
)

// Span is one layer's contribution to a traced call.
type Span struct {
	Layer   string `json:"layer"`
	Outcome string `json:"outcome,omitempty"` // e.g. "hit", "miss", "ok", "error"
	StartNs int64  `json:"start_ns"`          // offset from the trace start
	DurNs   int64  `json:"dur_ns"`
}

// Trace is one hop's record of one RPC.
type Trace struct {
	ID    uint64 `json:"id"`
	Hop   uint32 `json:"hop"` // 0 at the hop that allocated the ID
	Proc  string `json:"proc"`
	DurNs int64  `json:"dur_ns"`
	Spans []Span `json:"spans,omitempty"`
}

// Tracer records finished traces into a bounded ring; when full, the
// oldest entries are overwritten. The zero Tracer is not usable;
// a nil *Tracer is safe to call (tracing disabled).
type Tracer struct {
	ids  atomic.Uint64
	ring *Ring[Trace]
}

// DefaultRing is the trace ring capacity used when none is given.
const DefaultRing = 1024

// NewTracer returns a tracer keeping the last capacity traces
// (DefaultRing when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRing
	}
	t := &Tracer{ring: NewRing[Trace](capacity)}
	// Seed the ID allocator randomly so IDs from unrelated processes
	// (or restarts) don't collide when rings are stitched offline.
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		t.ids.Store(binary.LittleEndian.Uint64(seed[:]))
	}
	return t
}

// NewID allocates a fresh trace ID. Only the hop that originates a
// trace (hop 0) allocates; later hops reuse the propagated ID.
func (t *Tracer) NewID() uint64 { return t.ids.Add(1) }

// Start begins recording one call. The returned Active is nil-safe:
// all its methods are no-ops on nil, so callers can thread it through
// unconditionally.
func (t *Tracer) Start(id uint64, hop uint32, proc string) *Active {
	if t == nil {
		return nil
	}
	return &Active{t: t, start: time.Now(), trace: Trace{ID: id, Hop: hop, Proc: proc}}
}

// Traces returns the retained traces, oldest first.
func (t *Tracer) Traces() []Trace {
	if t == nil {
		return nil
	}
	return t.ring.Values()
}

// Total reports how many traces have ever been recorded (including
// ones the ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Total()
}

// WriteJSON dumps the ring as a JSON document (the /traces endpoint).
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := struct {
		Total  uint64  `json:"total_recorded"`
		Traces []Trace `json:"traces"`
	}{Total: t.Total(), Traces: t.Traces()}
	if doc.Traces == nil {
		doc.Traces = []Trace{}
	}
	return writeIndented(w, doc)
}

// Active is an in-flight trace at one hop. Methods are safe on a nil
// receiver and safe for concurrent span recording.
type Active struct {
	t     *Tracer
	start time.Time

	mu    sync.Mutex
	trace Trace
}

// ID returns the trace ID (0 on nil).
func (a *Active) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.trace.ID
}

// Hop returns this hop's index (0 on nil).
func (a *Active) Hop() uint32 {
	if a == nil {
		return 0
	}
	return a.trace.Hop
}

// Span records one layer visit lasting from start to now.
func (a *Active) Span(layer, outcome string, start time.Time) {
	if a == nil {
		return
	}
	now := time.Now()
	a.mu.Lock()
	a.trace.Spans = append(a.trace.Spans, Span{
		Layer:   layer,
		Outcome: outcome,
		StartNs: start.Sub(a.start).Nanoseconds(),
		DurNs:   now.Sub(start).Nanoseconds(),
	})
	a.mu.Unlock()
}

// Finish stamps the total duration and commits the trace to the ring.
// It returns the committed trace so callers (the flight recorder
// promotion path) can retain the span tree without re-reading the
// ring; on a nil receiver it returns the zero Trace.
func (a *Active) Finish() Trace {
	if a == nil {
		return Trace{}
	}
	a.mu.Lock()
	a.trace.DurNs = time.Since(a.start).Nanoseconds()
	tr := a.trace
	tr.Spans = append([]Span(nil), a.trace.Spans...)
	a.mu.Unlock()
	a.t.ring.Add(tr)
	return tr
}
