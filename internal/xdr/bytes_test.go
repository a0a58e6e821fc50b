package xdr

import (
	"errors"
	"io"
	"testing"
)

func TestOpaqueRefAliasesInput(t *testing.T) {
	var b Builder
	b.Uint32(7)
	b.Opaque([]byte("payload"))
	wire := b.B

	d := decoderOver(wire)
	if got := d.Uint32(); got != 7 {
		t.Fatalf("Uint32 = %d", got)
	}
	ref := d.OpaqueRef()
	if string(ref) != "payload" {
		t.Fatalf("OpaqueRef = %q", ref)
	}
	// Mutating the input must show through the ref: proof of aliasing.
	wire[8] = 'P'
	if string(ref) != "Payload" {
		t.Errorf("ref does not alias input: %q", ref)
	}
	// The ref's capacity is clipped so appends cannot clobber the
	// bytes that follow in the record.
	if cap(ref) != len(ref) {
		t.Errorf("cap = %d, want %d", cap(ref), len(ref))
	}
	if rest := d.Rest(); len(rest) != 0 {
		t.Errorf("Rest = %v, want empty", rest)
	}
}

func TestDecoderBytesShortInput(t *testing.T) {
	var b Builder
	b.Opaque(make([]byte, 100))
	wire := b.B
	for cut := range wire {
		d := decoderOver(wire[:cut])
		d.Opaque()
		d.OpaqueRef()
		d.Uint64()
		if d.Err() != io.ErrUnexpectedEOF {
			t.Fatalf("cut=%d: err %v on truncated input", cut, d.Err())
		}
		if d.Rest() != nil {
			t.Fatalf("cut=%d: Rest after an error", cut)
		}
	}
}

func TestDecoderBytesLimit(t *testing.T) {
	var b Builder
	b.Opaque(make([]byte, 256))
	d := decoderOver(b.B)
	d.SetMaxSize(16)
	if d.OpaqueRef() != nil || d.Err() == nil {
		t.Fatal("limit not enforced on OpaqueRef")
	}
	// An item's own bound replaces the decoder's, tighter or looser.
	d = decoderOver(b.B)
	if d.OpaqueRefMax(255) != nil || !errors.Is(d.Err(), ErrLimit) {
		t.Fatalf("OpaqueRefMax(255) took a 256-byte item: err %v", d.Err())
	}
	d = decoderOver(b.B)
	d.SetMaxSize(16)
	if got := d.OpaqueRefMax(256); len(got) != 256 || d.Err() != nil {
		t.Fatalf("OpaqueRefMax(256) refused a 256-byte item: err %v", d.Err())
	}
}

func TestStringSingleCopyLongAndShort(t *testing.T) {
	long := string(make([]byte, 200))
	for _, s := range []string{"", "abc", "exactly-64-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", long} {
		var b Builder
		b.String(s)
		if got := decoderOver(b.B).String(); got != s {
			t.Errorf("String len %d mismatch", len(s))
		}
	}
}

func TestResetBytesReuses(t *testing.T) {
	var d Decoder
	for i := 0; i < 3; i++ {
		var b Builder
		b.Uint32(uint32(i))
		d.ResetBytes(b.B)
		if got := d.Uint32(); got != uint32(i) {
			t.Fatalf("round %d: got %d", i, got)
		}
	}
}

func TestDecodeAllocFree(t *testing.T) {
	var b Builder
	b.Uint32(1)
	b.Uint64(2)
	b.Opaque(make([]byte, 4096))
	wire := b.B
	allocs := testing.AllocsPerRun(100, func() {
		var d Decoder
		d.ResetBytes(wire)
		_ = d.Uint32()
		_ = d.Uint64()
		_ = d.OpaqueRef()
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("decode allocates %.1f/op, want 0", allocs)
	}
}
