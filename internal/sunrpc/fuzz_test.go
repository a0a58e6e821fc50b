package sunrpc

// Fuzz targets for the decoders of bytes this package did not write:
// record marking (the server's reader and the client's, which peeks at
// the XID to choose its allocator) and the CALL header. Seeds live under
// testdata/fuzz/.

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"gvfs/internal/bufpool"
)

// reassemble is the reference for the record reader: the concatenation
// of the fragment bodies up to and including the first last-fragment, and
// the stream after it, or ok=false where the stream is short or a record
// would pass maxRecord.
func reassemble(stream []byte) (rec, rest []byte, ok bool) {
	for {
		if len(stream) < 4 {
			return nil, nil, false
		}
		n := binary.BigEndian.Uint32(stream)
		last := n&0x80000000 != 0
		n &^= 0x80000000
		stream = stream[4:]
		if uint64(len(rec))+uint64(n) > maxRecord || uint64(len(stream)) < uint64(n) {
			return nil, nil, false
		}
		rec = append(rec, stream[:n]...)
		stream = stream[n:]
		if last {
			return rec, stream, true
		}
	}
}

// readRecord reads one record from r into a record of its own size.
func readRecord(r io.Reader) ([]byte, error) { return newRecordReader(r).next(nil) }

// chunked delivers a stream as a transport might: at most chunk bytes a
// Read (one byte at a time at 1), or, at 0, everything in one Read — two
// records in a single Read when the stream holds two.
type chunked struct {
	b     []byte
	chunk int
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	if c.chunk > 0 && len(p) > c.chunk {
		p = p[:c.chunk]
	}
	n := copy(p, c.b)
	c.b = c.b[n:]
	return n, nil
}

// deliveries are the record reader's buffers over one delivery of stream:
// a frame transport's eight bytes; the smallest pooled buffer, which
// records larger than it pass; and a socket's.
func deliveries(stream []byte, chunk uint8) []struct {
	name string
	rr   *recordReader
} {
	src := func() io.Reader { return &chunked{b: stream, chunk: int(chunk)} }
	return []struct {
		name string
		rr   *recordReader
	}{
		{"frame transport", newRecordReader(src())},
		{"512 B buffer", &recordReader{rd: src(), buf: bufpool.Get(512)}},
		{"socket buffer", &recordReader{rd: src(), buf: bufpool.Get(recordBufSize)}},
	}
}

// checkRecord holds one read record to the reference.
func checkRecord(t *testing.T, name string, got []byte, err error, want []byte, ok bool) {
	t.Helper()
	if cap(got) > maxRecord {
		t.Fatalf("%s buffered %d bytes, above maxRecord", name, cap(got))
	}
	if (err == nil) != ok {
		t.Fatalf("%s: err %v, reference accepts: %v", name, err, ok)
	}
	if err != nil && got != nil {
		t.Fatalf("%s returned %d bytes with error %v", name, len(got), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: record of %d bytes differs from the fragments' concatenation (%d bytes)", name, len(got), len(want))
	}
}

// Every buffer, every allocator, however the bytes arrive: the record is
// the fragments' concatenation, and the record behind it — read back to
// back from what the first read left buffered — is too.
func FuzzReadRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		want, rest, ok := reassemble(stream)
		want2, _, ok2 := reassemble(rest)
		for _, alloc := range []struct {
			name string
			fn   func(int) []byte
		}{{"kept", nil}, {"pooled", bufpool.Get}} {
			for _, d := range deliveries(stream, chunk) {
				name := alloc.name + ", " + d.name
				got, err := d.rr.next(alloc.fn)
				checkRecord(t, name, got, err, want, ok)
				if ok {
					got, err = d.rr.next(alloc.fn)
					checkRecord(t, name+", second record", got, err, want2, ok2)
				}
				d.rr.release()
			}
		}
	})
}

// The client's reply reader peeks at the XID to allocate by who waits for
// it: against the same reference, whoever waits — a keeping caller, a
// pooled one, nobody — however the record is fragmented and delivered, a
// first fragment too short to hold the XID included, and for the record
// behind it too.
func FuzzReadReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		want, rest, ok := reassemble(stream)
		want2, _, ok2 := reassemble(rest)
		xid := func(rec []byte) uint32 {
			if len(rec) < 4 {
				return 0
			}
			return binary.BigEndian.Uint32(rec)
		}
		// firstLen is the length of a stream's first fragment.
		firstLen := func(s []byte) uint32 {
			if len(s) < 4 {
				return 0
			}
			return binary.BigEndian.Uint32(s) &^ 0x80000000
		}
		for _, mode := range []struct {
			name   string
			w      *waiter
			pooled bool // the allocator a well-formed first fragment gets
		}{
			{"kept", &waiter{}, false},
			{"pooled", &waiter{pooled: true}, true},
			{"nobody waiting", nil, true},
		} {
			c := &Client{}
			if mode.w != nil {
				c.pending = map[uint32]waiter{xid(want): *mode.w, xid(want2): *mode.w}
			}
			for _, d := range deliveries(stream, chunk) {
				for i, r := range []struct {
					want   []byte
					ok     bool
					stream []byte
				}{{want, ok, stream}, {want2, ok2, rest}} {
					name := mode.name + ", " + d.name
					if i == 1 {
						name += ", second record"
					}
					got, pooled, err := c.readReply(d.rr)
					if err != nil && pooled {
						t.Fatalf("%s: pooled record with error %v", name, err)
					}
					checkRecord(t, name, got, err, r.want, r.ok)
					// Pooled exactly when the first fragment showed the XID of
					// a waiter that releases (or of nobody); a short first
					// fragment falls back to a GC record whoever waits.
					if err == nil && pooled != (mode.pooled && firstLen(r.stream) >= 4) {
						t.Fatalf("%s: pooled %v for a first fragment of %d bytes", name, pooled, firstLen(r.stream))
					}
					if pooled {
						bufpool.Put(got)
					}
					if !r.ok {
						break
					}
				}
				d.rr.release()
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
