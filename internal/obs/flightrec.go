package obs

// Flight recorder: the retained ring of "interesting" calls. The
// regular trace ring (trace.go) keeps the last N traces regardless of
// what they were, so by the time an operator asks "why was that call
// slow", the evidence has usually been overwritten by thousands of
// healthy calls. The flight recorder solves that by promoting calls
// that crossed the slow threshold — or ended in error or while the
// circuit breaker was open — into a separate ring that
// only interesting calls can displace. Each promoted call keeps its
// full per-layer span tree, and the promoting component links the
// matching histogram bucket to it with an exemplar (see registry.go),
// so a slow bucket on a dashboard resolves to a concrete recording at
// /flightrec.

import (
	"fmt"
	"io"
	"time"
)

// Promotion reasons recorded with each flight recording.
const (
	ReasonSlow        = "slow"
	ReasonError       = "error"
	ReasonBreakerOpen = "breaker_open"
)

// DefaultFlightRing is the recording capacity used when none is given.
const DefaultFlightRing = 256

// DefaultSlowThreshold is the promotion latency bound used when none
// is given.
const DefaultSlowThreshold = 100 * time.Millisecond

// Recording is one promoted call.
type Recording struct {
	Trace       Trace  `json:"trace"`
	Reason      string `json:"reason"`
	WallNs      int64  `json:"wall_ns"` // unix nanoseconds at capture
	ThresholdNs int64  `json:"threshold_ns,omitempty"`
}

// FlightRecorder retains promoted calls in a bounded ring. A nil
// *FlightRecorder is safe to use (recording disabled).
type FlightRecorder struct {
	slow time.Duration
	ring *Ring[Recording]
}

// NewFlightRecorder returns a recorder keeping the last capacity
// recordings (DefaultFlightRing when capacity <= 0) and promoting
// calls slower than slow (DefaultSlowThreshold when slow <= 0).
func NewFlightRecorder(capacity int, slow time.Duration) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRing
	}
	if slow <= 0 {
		slow = DefaultSlowThreshold
	}
	return &FlightRecorder{slow: slow, ring: NewRing[Recording](capacity)}
}

// ShouldRecord reports whether a call lasting d qualifies as slow.
// Error and breaker promotions bypass this check.
func (f *FlightRecorder) ShouldRecord(d time.Duration) bool {
	return f != nil && d >= f.slow
}

// Record commits one promoted call.
func (f *FlightRecorder) Record(tr Trace, reason string) {
	if f == nil {
		return
	}
	rec := Recording{
		Trace:  tr,
		Reason: reason,
		WallNs: time.Now().UnixNano(),
	}
	if reason == ReasonSlow {
		rec.ThresholdNs = f.slow.Nanoseconds()
	}
	f.ring.Add(rec)
}

// Recordings returns the retained recordings, oldest first.
func (f *FlightRecorder) Recordings() []Recording {
	if f == nil {
		return nil
	}
	return f.ring.Values()
}

// Total reports how many calls were ever promoted (including ones the
// ring has since overwritten).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.ring.Total()
}

// Resolve finds the most recent recording with the given trace ID —
// the lookup an exemplar's trace_id label points at.
func (f *FlightRecorder) Resolve(id uint64) (Recording, bool) {
	if f == nil {
		return Recording{}, false
	}
	recs := f.Recordings()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Trace.ID == id {
			return recs[i], true
		}
	}
	return Recording{}, false
}

// flightDoc is the /flightrec JSON document.
type flightDoc struct {
	Total      uint64      `json:"total_recorded"`
	Capacity   int         `json:"capacity"`
	Recordings []Recording `json:"recordings"`
}

// WriteJSON dumps the ring as a JSON document (the /flightrec
// endpoint). Safe on a nil receiver (empty document).
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	doc := flightDoc{Total: f.Total(), Recordings: f.Recordings()}
	if f != nil {
		doc.Capacity = f.ring.Capacity()
	}
	if doc.Recordings == nil {
		doc.Recordings = []Recording{}
	}
	return writeIndented(w, doc)
}

// TraceIDString renders a trace ID the way exemplars and /flightrec
// consumers compare them: fixed-width hex.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }
