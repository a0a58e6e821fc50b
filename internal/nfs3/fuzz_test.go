package nfs3

// Fuzz target for the argument decoders the proxy runs on bytes a client
// wrote: READ, WRITE (the zero-copy parse), LOOKUP, SETATTR and COMMIT.
// Seeds live under testdata/fuzz/.

import (
	"bytes"
	"reflect"
	"testing"
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
