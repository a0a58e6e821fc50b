package nfs3

// Fuzz targets for the decoders the proxy runs on bytes it did not write:
// the argument decoders of READ, WRITE (the zero-copy parse), LOOKUP,
// SETATTR and COMMIT, on a client's bytes, and the READ, WRITE and
// READDIRPLUS reply decoders, on upstream's. Seeds live under
// testdata/fuzz/.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"gvfs/internal/xdr"
)

// argCodec is one decoder with the encoder that inverts it. handle is the
// file handle in what it decoded; lent, where set, is the one field the
// decoder lends from its input instead of copying.
type argCodec struct {
	name   string
	decode func(p []byte) (any, error)
	encode func(v any) []byte
	handle func(v any) FH
	lent   func(v any) *[]byte
}

var argCodecs = []argCodec{
	{"ReadArgs.DecodeInto",
		func(p []byte) (any, error) {
			a := &ReadArgs{}
			return a, a.DecodeInto(p)
		},
		func(v any) []byte { return v.(*ReadArgs).Encode() },
		func(v any) FH { return v.(*ReadArgs).FH }, nil},
	{"ReadArgs.DecodeRefInto",
		func(p []byte) (any, error) {
			a := &ReadArgs{}
			return a, a.DecodeRefInto(p)
		},
		func(v any) []byte { return v.(*ReadArgs).Encode() },
		func(v any) FH { return v.(*ReadArgs).FH },
		func(v any) *[]byte { return (*[]byte)(&v.(*ReadArgs).FH) }},
	{"WriteArgs.DecodeRefInto",
		func(p []byte) (any, error) {
			a := &WriteArgs{}
			return a, a.DecodeRefInto(p)
		},
		func(v any) []byte { return v.(*WriteArgs).Encode() },
		func(v any) FH { return v.(*WriteArgs).FH },
		func(v any) *[]byte { return &v.(*WriteArgs).Data }},
	{"DecodeLookupArgs",
		func(p []byte) (any, error) { return DecodeLookupArgs(p) },
		func(v any) []byte { return v.(*LookupArgs).Encode() },
		func(v any) FH { return v.(*LookupArgs).Dir }, nil},
	{"DecodeSetattrArgs",
		func(p []byte) (any, error) { return DecodeSetattrArgs(p) },
		func(v any) []byte { return v.(*SetattrArgs).Encode() },
		func(v any) FH { return v.(*SetattrArgs).FH }, nil},
	{"DecodeCommitArgs",
		func(p []byte) (any, error) { return DecodeCommitArgs(p) },
		func(v any) []byte { return v.(*CommitArgs).Encode() },
		func(v any) FH { return v.(*CommitArgs).FH }, nil},
}

// FuzzNFS3Args: no input makes a decoder panic; no decoder accepts a file
// handle longer than MaxFHSize; what a decoder returns holds no reference
// to the input (the WRITE payload and DecodeRefInto's READ handle
// excepted, which are lent from it); and on an input it accepts, encoding
// what it returned and decoding that gives the same arguments and the same
// bytes again.
func FuzzNFS3Args(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, c := range argCodecs {
			in := bytes.Clone(p)
			got, err := c.decode(in)
			if err != nil {
				continue
			}
			if fh := c.handle(got); len(fh) > MaxFHSize {
				t.Fatalf("%s: accepted a %d-byte file handle", c.name, len(fh))
			}
			for i := range in {
				in[i] ^= 0xff
			}
			again, err := c.decode(bytes.Clone(p))
			if err != nil {
				t.Fatalf("%s: accepted, then refused with %v", c.name, err)
			}
			if c.lent != nil {
				// The lent field changed with the input, every byte of it,
				// or it is not a piece of the input; from here on both
				// values own theirs.
				lent, kept := c.lent(got), c.lent(again)
				for i, b := range *lent {
					if b != (*kept)[i]^0xff {
						t.Fatalf("%s: byte %d of the lent field is not the input's", c.name, i)
					}
				}
				*kept = append([]byte{}, *kept...)
				*lent = *kept
			}
			if !reflect.DeepEqual(got, again) {
				t.Fatalf("%s: %+v became %+v when the input was overwritten", c.name, again, got)
			}
			enc := c.encode(got)
			back, err := c.decode(bytes.Clone(enc))
			if err == nil && c.lent != nil {
				kept := c.lent(back)
				*kept = append([]byte{}, *kept...)
			}
			if err != nil || !reflect.DeepEqual(got, back) {
				t.Fatalf("%s: %+v encodes to %x, which decodes to %+v (err=%v)", c.name, got, enc, back, err)
			}
			if enc2 := c.encode(back); !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: %x re-encodes as %x", c.name, enc, enc2)
			}
		}
	})
}

// readAttr and writeWcc are what the value-attribute reply decoders
// return: the reply, and the attributes they decoded beside it.
type readAttr struct {
	r    ReadRes
	attr Fattr
	has  bool
}

type writeWcc struct {
	r                   WriteRes
	before              WccAttr
	after               Fattr
	hasBefore, hasAfter bool
}

// resCodecs are the READ and WRITE reply decoders, each with the encoder
// that inverts it and the opaque it lends from its input (data).
var resCodecs = []struct {
	name   string
	decode func(p []byte) (any, error)
	encode func(v any) []byte
	data   func(v any) []byte
}{
	{"ReadRes.DecodeRefInto",
		func(p []byte) (any, error) {
			r := &ReadRes{}
			return r, r.DecodeRefInto(p)
		},
		func(v any) []byte { return v.(*ReadRes).Encode() },
		func(v any) []byte { return v.(*ReadRes).Data }},
	{"ReadRes.DecodeRefAttrInto",
		func(p []byte) (any, error) {
			v := &readAttr{}
			var err error
			v.has, err = v.r.DecodeRefAttrInto(p, &v.attr)
			return v, err
		},
		func(v any) []byte {
			ra := v.(*readAttr)
			r := ra.r
			if ra.has {
				r.Attr = &ra.attr
			}
			return r.Encode()
		},
		func(v any) []byte { return v.(*readAttr).r.Data }},
	{"WriteRes.DecodeInto",
		func(p []byte) (any, error) {
			r := &WriteRes{}
			return r, r.DecodeInto(p)
		},
		func(v any) []byte { return v.(*WriteRes).Encode() },
		func(any) []byte { return nil }},
	{"WriteRes.DecodeWccInto",
		func(p []byte) (any, error) {
			v := &writeWcc{}
			var err error
			v.hasBefore, v.hasAfter, err = v.r.DecodeWccInto(p, &v.before, &v.after)
			return v, err
		},
		func(v any) []byte {
			ww := v.(*writeWcc)
			r := ww.r
			if ww.hasBefore {
				r.Wcc.Before = &ww.before
			}
			if ww.hasAfter {
				r.Wcc.After = &ww.after
			}
			return r.Encode()
		},
		func(any) []byte { return nil }},
}

// FuzzNFS3Res: no input makes a READ or WRITE reply decoder panic; none
// lends an opaque longer than its input could hold; and on an input it
// accepts, encoding what it returned and decoding that gives the same
// value again — the pointer decoders and the value ones alike.
func FuzzNFS3Res(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, c := range resCodecs {
			got, err := c.decode(bytes.Clone(p))
			if err != nil {
				continue
			}
			if n := len(c.data(got)); n > len(p) {
				t.Fatalf("%s: a %d-byte opaque out of %d bytes", c.name, n, len(p))
			}
			enc := c.encode(got)
			back, err := c.decode(enc)
			if err != nil || !reflect.DeepEqual(got, back) {
				t.Fatalf("%s: %+v encodes to %x, which decodes to %+v (err=%v)", c.name, got, enc, back, err)
			}
		}
	})
}

// FuzzReaddirplusRes: no input makes the READDIRPLUS reply decoder panic;
// it returns no more entries than its input has room for (an entry is 32
// bytes at the least), no name longer than MaxNameLen and no handle longer
// than MaxFHSize; and a reply it accepts encodes back to the bytes it
// consumed, as an encoder writes them — booleans 0 or 1, padding zero
// (canonicalReaddirplusRes) — so that it skips, reorders and invents
// nothing.
func FuzzReaddirplusRes(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := DecodeReaddirplusRes(bytes.Clone(p))
		if err != nil {
			return
		}
		if len(r.Entries) > len(p)/32 {
			t.Fatalf("%d entries out of %d bytes", len(r.Entries), len(p))
		}
		for _, e := range r.Entries {
			if len(e.Name) > MaxNameLen || len(e.Handle) > MaxFHSize {
				t.Fatalf("accepted a %d-byte name or a %d-byte handle", len(e.Name), len(e.Handle))
			}
		}
		want, n := canonicalReaddirplusRes(p)
		if got := r.Encode(); !bytes.Equal(got, want[:n]) {
			t.Fatalf("%x decodes to %+v, which encodes as %x", want[:n], r, got)
		}
	})
}

// canonicalReaddirplusRes walks p as RFC 1813 §3.3.17 lays READDIRPLUS3res
// out, with the XDR primitives alone, and returns a copy of p with every
// boolean made 0 or 1 and every padding byte zeroed, and how many bytes of
// p the reply takes.
func canonicalReaddirplusRes(p []byte) ([]byte, int) {
	c := bytes.Clone(p)
	var d xdr.Decoder
	d.ResetBytes(p)
	flag := func() bool {
		at := d.Pos()
		v := d.Uint32() != 0
		if d.Err() == nil && v {
			binary.BigEndian.PutUint32(c[at:], 1)
		}
		return v
	}
	opaque := func(max uint32) {
		item := d.OpaqueRefMax(max)
		if d.Err() == nil {
			clear(c[d.Pos()-(4-len(item)%4)%4 : d.Pos()])
		}
	}
	attr := func() {
		if flag() {
			d.FixedOpaque(make([]byte, FattrSize))
		}
	}
	status := d.Uint32()
	attr() // dir_attributes
	if status == uint32(OK) {
		d.Uint64() // cookieverf
		for flag() {
			d.Uint64() // fileid
			opaque(MaxNameLen)
			d.Uint64() // cookie
			attr()
			if flag() {
				opaque(MaxFHSize)
			}
		}
		flag() // eof
	}
	return c, d.Pos()
}
