// Package xdr implements the External Data Representation standard
// (RFC 4506) used by ONC RPC and NFS, for the primitive types the NFSv3
// and MOUNT protocols need: 32/64-bit integers, booleans, opaque byte
// arrays (fixed and variable length) and strings. All quantities are
// big-endian and padded to 4-byte boundaries as the standard requires.
//
// Record marking hands every layer a whole message in memory, so there
// is one codec and it works on byte slices: a Builder appends the wire
// form to a slice, a Decoder walks one. Neither allocates, except for
// the copies Decoder.Opaque and Decoder.String return.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrLimit is returned when a variable-length item declares a size
// larger than the maximum its decoder allows. It guards against corrupt
// or hostile peers handing us items the protocol does not permit.
var ErrLimit = errors.New("xdr: variable-length item exceeds limit")

// DefaultMaxSize bounds variable-length opaques and strings accepted
// by a Decoder unless overridden with SetMaxSize. 1 MiB comfortably
// exceeds the 32 KB NFSv3 transfer-size ceiling plus headers.
const DefaultMaxSize = 1 << 20

var pad [4]byte

func xdrPad(n int) int {
	if r := n % 4; r != 0 {
		return 4 - r
	}
	return 0
}

// Decoder reads XDR-encoded values from a byte slice. Declare one as a
// value and call ResetBytes: it then stays on the stack and decoding
// allocates nothing. The first error is sticky: the call that meets it
// and every later one return a zero value, and later ones consume nothing.
type Decoder struct {
	data []byte
	pos  int
	max  uint32
	err  error
}

// ResetBytes re-initializes d to decode p from its start.
func (d *Decoder) ResetBytes(p []byte) {
	*d = Decoder{data: p, max: DefaultMaxSize}
}

// SetMaxSize overrides the maximum accepted variable-length item size.
func (d *Decoder) SetMaxSize(n uint32) { d.max = n }

// Err returns the first error encountered while decoding, if any.
func (d *Decoder) Err() error { return d.err }

// Pos returns the number of input bytes consumed so far.
func (d *Decoder) Pos() int { return d.pos }

// Rest returns the unconsumed remainder of the input, aliasing it, or
// nil after an error.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.data[d.pos:]
}

// take returns the next n input bytes without copying and steps over
// them and their padding to the 4-byte boundary. On short input it sets
// the error and returns nil.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	padded := n + xdrPad(n)
	if len(d.data)-d.pos < padded {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	p := d.data[d.pos : d.pos+n : d.pos+n]
	d.pos += padded
	return p
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.pos < 4 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.BigEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() int32 { return int32(d.Uint32()) }

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.pos < 8 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.BigEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Bool decodes a boolean.
func (d *Decoder) Bool() bool { return d.Uint32() != 0 }

// OpaqueRefMax decodes a variable-length opaque of at most max bytes —
// the bound its protocol gives the item, in place of the Decoder's own —
// without copying: the result aliases the input and is only valid while
// the input is. A longer item is ErrLimit. Callers must honor the input
// buffer's ownership rules — never retain a ref past the buffer's release.
func (d *Decoder) OpaqueRefMax(max uint32) []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > max {
		d.err = fmt.Errorf("%w: %d > %d", ErrLimit, n, max)
		return nil
	}
	return d.take(int(n))
}

// OpaqueRef is OpaqueRefMax with the Decoder's maximum.
func (d *Decoder) OpaqueRef() []byte { return d.OpaqueRefMax(d.max) }

// Opaque decodes a variable-length opaque into a fresh slice.
func (d *Decoder) Opaque() []byte {
	ref := d.OpaqueRef()
	if d.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(ref)), ref...)
}

// FixedOpaque decodes len(p) bytes plus padding into p.
func (d *Decoder) FixedOpaque(p []byte) { copy(p, d.take(len(p))) }

// String decodes an XDR string; the string's backing array is the one
// copy and the one allocation.
func (d *Decoder) String() string { return string(d.OpaqueRef()) }

// Builder appends XDR-encoded values to the byte slice B: plain
// appends, no internal state, no error (append cannot fail). A caller on
// a hot path brings a buffer (typically from bufpool) with enough
// capacity and the encode allocates nothing; the zero Builder grows a
// slice of its own.
type Builder struct{ B []byte }

// NewBuilder returns a Builder for a message off the hot path, over a
// fresh slice that holds most control messages whole (a LOOKUP reply with
// both attributes is 248 bytes): one allocation; a longer message grows it
// like any slice.
func NewBuilder() Builder { return Builder{B: make([]byte, 0, 256)} }

// Uint32 appends a 32-bit unsigned integer.
func (b *Builder) Uint32(v uint32) {
	b.B = append(b.B, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Int32 appends a 32-bit signed integer.
func (b *Builder) Int32(v int32) { b.Uint32(uint32(v)) }

// Uint64 appends a 64-bit unsigned integer.
func (b *Builder) Uint64(v uint64) {
	b.Uint32(uint32(v >> 32))
	b.Uint32(uint32(v))
}

// Int64 appends a 64-bit signed integer.
func (b *Builder) Int64(v int64) { b.Uint64(uint64(v)) }

// Bool appends a boolean as a 32-bit 0/1.
func (b *Builder) Bool(v bool) {
	if v {
		b.Uint32(1)
	} else {
		b.Uint32(0)
	}
}

// FixedOpaque appends bytes without a length prefix, padded to 4 bytes.
func (b *Builder) FixedOpaque(p []byte) {
	b.B = append(b.B, p...)
	if n := xdrPad(len(p)); n != 0 {
		b.B = append(b.B, pad[:n]...)
	}
}

// Opaque appends a variable-length opaque: length prefix, bytes, padding.
func (b *Builder) Opaque(p []byte) {
	b.Uint32(uint32(len(p)))
	b.FixedOpaque(p)
}

// String appends an XDR string (identical wire format to Opaque).
func (b *Builder) String(s string) {
	b.Uint32(uint32(len(s)))
	b.B = append(b.B, s...)
	if n := xdrPad(len(s)); n != 0 {
		b.B = append(b.B, pad[:n]...)
	}
}
