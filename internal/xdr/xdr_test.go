package xdr

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

// decoderOver returns a Decoder at the start of p.
func decoderOver(p []byte) *Decoder {
	d := &Decoder{}
	d.ResetBytes(p)
	return d
}

func TestUint32RoundTrip(t *testing.T) {
	var b Builder
	for _, v := range []uint32{0, 1, 0xffffffff, 0x12345678} {
		b.Uint32(v)
	}
	d := decoderOver(b.B)
	for _, want := range []uint32{0, 1, 0xffffffff, 0x12345678} {
		if got := d.Uint32(); got != want {
			t.Errorf("Uint32 = %#x, want %#x", got, want)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestUint32BigEndianWire(t *testing.T) {
	var b Builder
	b.Uint32(0x01020304)
	want := []byte{1, 2, 3, 4}
	if !bytes.Equal(b.B, want) {
		t.Errorf("wire = %v, want %v", b.B, want)
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		var b Builder
		p := bytes.Repeat([]byte{0xab}, n)
		b.Opaque(p)
		wantLen := 4 + n
		if rem := n % 4; rem != 0 {
			wantLen += 4 - rem
		}
		if len(b.B) != wantLen {
			t.Errorf("n=%d: wire length %d, want %d", n, len(b.B), wantLen)
		}
		d := decoderOver(b.B)
		got := d.Opaque()
		if d.Err() != nil {
			t.Fatalf("n=%d decode: %v", n, d.Err())
		}
		if !bytes.Equal(got, p) {
			t.Errorf("n=%d: got %v want %v", n, got, p)
		}
		if d.Pos() != wantLen {
			t.Errorf("n=%d: decoder consumed %d of %d bytes", n, d.Pos(), wantLen)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	var b Builder
	b.String("hello, 世界")
	b.String("")
	d := decoderOver(b.B)
	if got := d.String(); got != "hello, 世界" {
		t.Errorf("got %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("got %q, want empty", got)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestBoolRoundTrip(t *testing.T) {
	var b Builder
	b.Bool(true)
	b.Bool(false)
	d := decoderOver(b.B)
	if !d.Bool() {
		t.Error("want true")
	}
	if d.Bool() {
		t.Error("want false")
	}
}

func TestInt64RoundTrip(t *testing.T) {
	var b Builder
	b.Int64(-1)
	b.Int64(1 << 40)
	d := decoderOver(b.B)
	if got := d.Int64(); got != -1 {
		t.Errorf("got %d", got)
	}
	if got := d.Int64(); got != 1<<40 {
		t.Errorf("got %d", got)
	}
}

func TestDecoderLimit(t *testing.T) {
	var b Builder
	b.Opaque(make([]byte, 100))
	d := decoderOver(b.B)
	d.SetMaxSize(99)
	if got := d.Opaque(); got != nil {
		t.Errorf("expected nil, got %d bytes", len(got))
	}
	if d.Err() == nil {
		t.Error("expected error for oversized opaque")
	}
}

func TestDecoderShortInput(t *testing.T) {
	d := decoderOver([]byte{0, 0})
	d.Uint32()
	if d.Err() == nil {
		t.Error("expected error on short input")
	}
}

func TestErrorSticky(t *testing.T) {
	d := decoderOver(nil)
	d.Uint32()
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	d.Uint64()
	if d.Err() != first {
		t.Error("error should be sticky")
	}
	if first != io.EOF && first != io.ErrUnexpectedEOF {
		t.Errorf("unexpected error %v", first)
	}
}

func TestQuickOpaqueRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		var b Builder
		b.Opaque(p)
		d := decoderOver(b.B)
		got := d.Opaque()
		return d.Err() == nil && bytes.Equal(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	f := func(a uint32, b int64, c string, d bool) bool {
		var bld Builder
		bld.Uint32(a)
		bld.Int64(b)
		bld.String(c)
		bld.Bool(d)
		dec := decoderOver(bld.B)
		return dec.Uint32() == a && dec.Int64() == b && dec.String() == c &&
			dec.Bool() == d && dec.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixedOpaqueRoundTrip(t *testing.T) {
	var b Builder
	b.FixedOpaque([]byte{1, 2, 3, 4, 5})
	if len(b.B) != 8 {
		t.Errorf("padded length = %d, want 8", len(b.B))
	}
	d := decoderOver(b.B)
	p := make([]byte, 5)
	d.FixedOpaque(p)
	if d.Err() != nil || !bytes.Equal(p, []byte{1, 2, 3, 4, 5}) {
		t.Errorf("got %v err %v", p, d.Err())
	}
}
