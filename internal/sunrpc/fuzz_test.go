package sunrpc

// Fuzz targets for the decoders of bytes this package did not write:
// record marking (the server's reader and the client's, which peeks at
// the XID to choose its allocator) and the CALL header. Seeds live under
// testdata/fuzz/.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"gvfs/internal/bufpool"
)

// reassemble is the reference for readRecord: the concatenation of the
// fragment bodies up to and including the first last-fragment, or
// ok=false where the stream is short or a record would pass maxRecord.
func reassemble(stream []byte) (rec []byte, ok bool) {
	for {
		if len(stream) < 4 {
			return nil, false
		}
		n := binary.BigEndian.Uint32(stream)
		last := n&0x80000000 != 0
		n &^= 0x80000000
		stream = stream[4:]
		if uint64(len(rec))+uint64(n) > maxRecord || uint64(len(stream)) < uint64(n) {
			return nil, false
		}
		rec = append(rec, stream[:n]...)
		stream = stream[n:]
		if last {
			return rec, true
		}
	}
}

func FuzzReadRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		want, ok := reassemble(stream)
		hdr := make([]byte, 4)
		for _, read := range []struct {
			name string
			fn   func() ([]byte, error)
		}{
			{"readRecord", func() ([]byte, error) { return readRecord(bytes.NewReader(stream)) }},
			{"readRecordPooled", func() ([]byte, error) { return readRecordPooled(bytes.NewReader(stream), hdr) }},
		} {
			got, err := read.fn()
			if cap(got) > maxRecord {
				t.Fatalf("%s buffered %d bytes, above maxRecord", read.name, cap(got))
			}
			if (err == nil) != ok {
				t.Fatalf("%s: err %v, reference accepts: %v", read.name, err, ok)
			}
			if err != nil && got != nil {
				t.Fatalf("%s returned %d bytes with error %v", read.name, len(got), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: record of %d bytes differs from the fragments' concatenation (%d bytes)", read.name, len(got), len(want))
			}
		}
	})
}

// The client's reply reader takes the record mark and the XID in one
// read, then allocates by who waits for that XID: against the same
// reference, whoever waits — a keeping caller, a pooled one, nobody —
// however the record is fragmented, a first fragment too short to hold
// the XID included. The one licensed difference: it needs eight bytes
// before it looks at anything, so a stream shorter than that is an error
// even where the reference finds a (useless, under-4-byte) record in it.
func FuzzReadReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		want, ok := reassemble(stream)
		ok = ok && len(stream) >= 8
		var xid uint32
		if len(want) >= 4 {
			xid = binary.BigEndian.Uint32(want)
		}
		for _, mode := range []struct {
			name    string
			pending map[uint32]waiter
			pooled  bool // the allocator a well-formed first fragment gets
		}{
			{"kept", map[uint32]waiter{xid: {}}, false},
			{"pooled", map[uint32]waiter{xid: {pooled: true}}, true},
			{"nobody waiting", nil, true},
		} {
			c := &Client{pending: mode.pending}
			got, pooled, err := c.readReply(bytes.NewReader(stream), make([]byte, 8))
			if cap(got) > maxRecord {
				t.Fatalf("%s: buffered %d bytes, above maxRecord", mode.name, cap(got))
			}
			if (err == nil) != ok {
				t.Fatalf("%s: err %v, reference accepts: %v", mode.name, err, ok)
			}
			if err != nil && (got != nil || pooled) {
				t.Fatalf("%s: returned %d bytes (pooled %v) with error %v", mode.name, len(got), pooled, err)
			}
			if !bytes.Equal(got, want[:len(got)]) || (ok && len(got) != len(want)) {
				t.Fatalf("%s: record of %d bytes differs from the fragments' concatenation (%d bytes)", mode.name, len(got), len(want))
			}
			// Pooled exactly when the first fragment showed the XID of a
			// waiter that releases (or of nobody); a short first fragment
			// falls back to a GC record whoever waits.
			firstLen := uint32(0)
			if len(stream) >= 4 {
				firstLen = binary.BigEndian.Uint32(stream) &^ 0x80000000
			}
			if err == nil && pooled != (mode.pooled && firstLen >= 4) {
				t.Fatalf("%s: pooled %v for a first fragment of %d bytes", mode.name, pooled, firstLen)
			}
			if pooled {
				bufpool.Put(got)
			}
		}
	})
}

// within reports whether sub, when non-empty, aliases rec[off:off+len(sub)].
func within(rec, sub []byte, off int) bool {
	if len(sub) == 0 {
		return true
	}
	return off >= 0 && off+len(sub) <= len(rec) && &sub[0] == &rec[off]
}

func FuzzParseCall(f *testing.F) {
	f.Fuzz(func(t *testing.T, rec []byte) {
		c, err := parseCall(rec)
		if err != nil {
			if c != nil {
				t.Fatal("parseCall returned a Call with an error")
			}
			return
		}
		// Bodies sit where the header's own length words put them, padded
		// to 4, each inside rec; the arguments are whatever follows.
		credOff := 8 * 4
		verfOff := credOff + len(c.Cred.Body) + padTo4(len(c.Cred.Body)) + 2*4
		argsOff := verfOff + len(c.Verf.Body) + padTo4(len(c.Verf.Body))
		if !within(rec, c.Cred.Body, credOff) || !within(rec, c.Verf.Body, verfOff) || !within(rec, c.Args, argsOff) {
			t.Fatalf("cred %d B at %d, verf %d B at %d, args %d B at %d: not all inside the %d B record",
				len(c.Cred.Body), credOff, len(c.Verf.Body), verfOff, len(c.Args), argsOff, len(rec))
		}
		if argsOff+len(c.Args) != len(rec) {
			t.Fatalf("arguments end at %d of a %d B record", argsOff+len(c.Args), len(rec))
		}
		again := marshalCallRecord(c.XID, c.Prog, c.Vers, c.Proc, c.Cred, c.Verf, c.Args)
		c2, err := parseCall(again[4:])
		if err != nil {
			t.Fatalf("re-marshalled call does not parse: %v", err)
		}
		if c2.XID != c.XID || c2.Prog != c.Prog || c2.Vers != c.Vers || c2.Proc != c.Proc ||
			c2.Cred.Flavor != c.Cred.Flavor || !bytes.Equal(c2.Cred.Body, c.Cred.Body) ||
			c2.Verf.Flavor != c.Verf.Flavor || !bytes.Equal(c2.Verf.Body, c.Verf.Body) ||
			!bytes.Equal(c2.Args, c.Args) {
			t.Fatalf("round trip changed the call: %+v, then %+v", c, c2)
		}
	})
}
