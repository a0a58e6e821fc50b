package tunnel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Zero elision: a frame's long runs of zero bytes cross as lengths. The
// elided form of a chunk is a sequence of triples,
//
//	literal length ‖ zero length ‖ literal bytes
//
// (lengths 4 bytes each, big-endian) that reads "these bytes, then that
// many zeros". It is sealed in place of the chunk when it is at least one
// sector shorter, and marked by the top bit of the frame's length word.
const (
	sector    = 512     // the shortest zero run taken out, and the least a frame must save to be elided
	tripleHdr = 8       // the two lengths of a triple
	elidedBit = 1 << 31 // of the length word: the body is triples
)

var zeroSector [sector]byte

// zeroRun returns the first run of at least sector zero bytes in p[from:]
// that covers one of the probed words — 8 bytes at every multiple of
// sector — widened both ways, or (len(p), len(p)) when there is none. A
// run of sector+7 bytes or more always covers a probe; payloads without
// zero words at the probes cost one load per sector and nothing else.
func zeroRun(p []byte, from int) (start, end int) {
	for i := (from + sector - 1) &^ (sector - 1); i+8 <= len(p); {
		if binary.LittleEndian.Uint64(p[i:]) != 0 {
			i += sector
			continue
		}
		start, end = i, i+8
		for start > from && p[start-1] == 0 {
			start--
		}
		for end+sector <= len(p) && bytes.Equal(p[end:end+sector], zeroSector[:]) {
			end += sector
		}
		for end < len(p) && p[end] == 0 {
			end++
		}
		if end-start >= sector {
			return start, end
		}
		from = end // too short to pay for a triple: it stays literal
		i = (end + sector - 1) &^ (sector - 1)
	}
	return len(p), len(p)
}

// elidedLen returns the length of p's elided form.
func elidedLen(p []byte) (n int) {
	for lit := 0; lit < len(p); {
		start, end := zeroRun(p, lit)
		n += tripleHdr + start - lit
		lit = end
	}
	return n
}

// elide appends p's elided form to dst.
func elide(dst, p []byte) []byte {
	for lit := 0; lit < len(p); {
		start, end := zeroRun(p, lit)
		dst = binary.BigEndian.AppendUint32(dst, uint32(start-lit))
		dst = binary.BigEndian.AppendUint32(dst, uint32(end-start))
		dst = append(dst, p[lit:start]...)
		lit = end
	}
	return dst
}

// expandedLen checks the body of an elided frame — whole triples, every
// literal inside the body, no more than maxFrame bytes once expanded — and
// returns the length it expands to. The peer that sealed the body holds
// the session key; the check is what keeps a wrong one from costing more
// than a frame's worth of memory or time.
func expandedLen(body []byte) (int, error) {
	n := 0
	for len(body) > 0 {
		if len(body) < tripleHdr {
			return 0, errors.New("tunnel: elided frame ends inside a triple's lengths")
		}
		lit, zero := binary.BigEndian.Uint32(body), binary.BigEndian.Uint32(body[4:])
		body = body[tripleHdr:]
		if uint64(lit) > uint64(len(body)) {
			return 0, fmt.Errorf("tunnel: elided frame ends inside a literal (%d of %d bytes)", len(body), lit)
		}
		if uint64(lit)+uint64(zero) > uint64(maxFrame-n) {
			return 0, fmt.Errorf("tunnel: elided frame expands past %d bytes", maxFrame)
		}
		n += int(lit) + int(zero)
		body = body[lit:]
	}
	return n, nil
}
