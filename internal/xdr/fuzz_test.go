package xdr

// The fuzz target for the one codec. Seeds live under testdata/fuzz/.

import (
	"bytes"
	"testing"
)

// FuzzXDR runs the Decoder primitives script names, in order, over in.
// Whatever the bytes: nothing panics; Pos never passes len(in); the first
// error is sticky — a zero value and no Rest with it, then the same error,
// zero values and an unmoved position from every later call; Opaque and
// String never return more than the maximum in force; OpaqueRef returns a
// piece of in itself, Opaque a copy; and what decoded cleanly, appended to
// a Builder as it went, is the consumed prefix of in again once padding is
// zeroed and booleans are 0 or 1.
func FuzzXDR(f *testing.F) {
	f.Fuzz(func(t *testing.T, script, in []byte) {
		var d Decoder
		d.ResetBytes(in)
		var b Builder
		canon := bytes.Clone(in) // in, as a Builder would have written it
		max := uint32(DefaultMaxSize)
		var failed error

		// opaque checks one variable-length item and re-encodes it.
		opaque := func(p []byte, limit uint32, aliases bool) {
			if d.Err() != nil {
				return
			}
			if uint32(len(p)) > limit {
				t.Fatalf("a %d-byte item passed a limit of %d", len(p), limit)
			}
			start := d.Pos() - len(p) - xdrPad(len(p))
			if len(p) > 0 && (&p[0] == &in[start]) != aliases {
				t.Fatalf("item at %d: aliases the input: %v, want %v", start, !aliases, aliases)
			}
			copy(canon[start+len(p):d.Pos()], pad[:])
			b.Opaque(p)
		}

		for i := 0; i < len(script); i++ {
			arg := uint32(0) // the script byte after an op that takes one
			if i+1 < len(script) {
				arg = uint32(script[i+1])
			}
			before := d.Pos()
			zero := true // whether the op returned its zero value
			switch script[i] % 11 {
			case 0:
				v := d.Uint32()
				zero = v == 0
				b.Uint32(v)
			case 1:
				v := d.Int32()
				zero = v == 0
				b.Int32(v)
			case 2:
				v := d.Uint64()
				zero = v == 0
				b.Uint64(v)
			case 3:
				v := d.Int64()
				zero = v == 0
				b.Int64(v)
			case 4:
				v := d.Bool()
				zero = !v
				if d.Err() == nil {
					copy(canon[before:], []byte{0, 0, 0, 0})
					if v {
						canon[before+3] = 1
					}
				}
				b.Bool(v)
			case 5:
				p := d.Opaque()
				zero = p == nil
				opaque(p, max, false)
			case 6:
				p := d.OpaqueRef()
				zero = p == nil
				opaque(p, max, true)
			case 7:
				s := d.String()
				zero = s == ""
				opaque([]byte(s), max, false)
			case 8:
				i++
				p := d.OpaqueRefMax(arg)
				zero = p == nil
				opaque(p, arg, true)
			case 9:
				i++
				p := bytes.Repeat([]byte{0xee}, int(arg%32))
				d.FixedOpaque(p)
				zero = true
				if d.Err() == nil {
					copy(canon[before+len(p):d.Pos()], pad[:])
					b.FixedOpaque(p)
				}
			case 10:
				i++
				max = arg * 4
				d.SetMaxSize(max)
				continue
			}

			if d.Pos() > len(in) || d.Pos()%4 != 0 {
				t.Fatalf("op %d: Pos %d of %d bytes", i, d.Pos(), len(in))
			}
			switch {
			case failed != nil:
				if d.Err() != failed || d.Pos() != before || !zero {
					t.Fatalf("op %d after %v: err %v, Pos %d -> %d, zero value: %v", i, failed, d.Err(), before, d.Pos(), zero)
				}
			case d.Err() != nil:
				if failed = d.Err(); !zero || d.Rest() != nil {
					t.Fatalf("op %d failed with %v: zero value: %v, Rest %v", i, failed, zero, d.Rest())
				}
				b.B = b.B[:before] // what the failed op appended is not input
			case !bytes.Equal(b.B, canon[:d.Pos()]):
				t.Fatalf("op %d: decoded\n%x\nre-encodes as\n%x", i, canon[:d.Pos()], b.B)
			}
		}
	})
}
