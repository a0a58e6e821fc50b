package tunnel

import "sync/atomic"

// Package-wide transfer totals, aggregated across every tunnel Conn in
// the process. The counters are plain atomics so the per-frame cost is
// one add each; daemons bridge them into an obs.Registry with
// CounterFunc so the tunnel package stays dependency-free.
var stats struct {
	txFrames atomic.Uint64
	txBytes  atomic.Uint64
	rxFrames atomic.Uint64
	rxBytes  atomic.Uint64
	elided   atomic.Uint64
	deflated atomic.Uint64
}

// Stats is a point-in-time snapshot of the process-wide tunnel totals.
type Stats struct {
	TxFrames uint64 // encrypted frames sent
	TxBytes  uint64 // plaintext bytes sent
	RxFrames uint64 // authenticated frames received
	RxBytes  uint64 // plaintext bytes received
	// ElidedBytes is the part of TxBytes that zero elision and deflation
	// kept off the wire (zero runs sent as lengths, less the lengths; a
	// frame's plaintext less its deflated form): the bytes put on the
	// underlying connections are TxBytes − ElidedBytes + 20·TxFrames.
	ElidedBytes uint64
	// DeflatedFrames counts the frames of TxFrames sent deflated.
	DeflatedFrames uint64
}

// ReadStats returns the current process-wide tunnel transfer totals.
func ReadStats() Stats {
	return Stats{
		TxFrames:       stats.txFrames.Load(),
		TxBytes:        stats.txBytes.Load(),
		RxFrames:       stats.rxFrames.Load(),
		RxBytes:        stats.rxBytes.Load(),
		ElidedBytes:    stats.elided.Load(),
		DeflatedFrames: stats.deflated.Load(),
	}
}
