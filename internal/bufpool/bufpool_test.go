package bufpool

import (
	"testing"
)

func TestClassSizes(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{1, 512}, {512, 512}, {513, 1024}, {4096, 4096},
		{4097, 8192}, {32768, 32768}, {1 << 20, 1 << 20},
	}
	for _, c := range cases {
		b := Get(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("Get(%d) = len %d cap %d, want len %d cap %d",
				c.n, len(b), cap(b), c.n, c.wantCap)
		}
		Put(b)
	}
}

func TestOversizeBypassesPool(t *testing.T) {
	before := Snapshot()
	b := Get(MaxPooled + 1)
	if len(b) != MaxPooled+1 {
		t.Fatalf("len = %d", len(b))
	}
	Put(b) // dropped: not a class size
	after := Snapshot()
	if after.Oversize != before.Oversize+1 {
		t.Errorf("oversize counter not bumped")
	}
	if after.Puts != before.Puts {
		t.Errorf("oversized buffer accepted back into pool")
	}
}

func TestPutForeignSliceIsDropped(t *testing.T) {
	before := Snapshot()
	Put(make([]byte, 100)) // cap 100 is not a class size
	Put(nil)
	if got := Snapshot().Puts; got != before.Puts {
		t.Errorf("foreign slice accepted: puts %d -> %d", before.Puts, got)
	}
}

func TestReuse(t *testing.T) {
	// Not guaranteed by sync.Pool in general, but single-goroutine
	// Get-after-Put reuses the per-P private slot in practice.
	b := Get(4096)
	b[0] = 42
	Put(b)
	c := Get(4096)
	defer Put(c)
	if cap(c) != 4096 {
		t.Fatalf("cap = %d", cap(c))
	}
}

// TestPoisonDetectsMutationAfterRelease releases a buffer, keeps the
// alias, writes through it, and verifies the next Get of that class
// panics: the exact bug class the debug mode exists to catch.
func TestPoisonDetectsMutationAfterRelease(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)

	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected poison panic, got none")
		}
		if Snapshot().PoisonHits == 0 {
			t.Error("poison hit not counted")
		}
	}()
	// Under the race detector sync.Pool drops a quarter of what it is
	// given, so one mutated buffer may never come back: mutate a few, and
	// let the Get that finds the first of them panic.
	for i := 0; i < 16; i++ {
		b := Get(2048)
		leaked := b // aliasing bug under test
		Put(b)
		leaked[7] = 0x01 // mutate after release
	}
	// Drain the class until a poisoned buffer comes back (the pool may
	// hand out other cached buffers first).
	for i := 0; i < 64; i++ {
		Get(2048)
	}
	t.Fatal("mutated buffer never resurfaced") // unreachable on success
}

func TestPoisonCleanRoundTrip(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	for i := 0; i < 16; i++ {
		b := Get(1024)
		for j := range b {
			b[j] = byte(j)
		}
		Put(b)
	}
}

func BenchmarkGetPut4K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Put(Get(4096))
	}
}

// A second Put of a buffer nobody has taken out again panics at once.
func TestDebugCatchesDoublePut(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	b := Get(2048)
	Put(b)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Put of the same buffer went through")
			}
		}()
		Put(b)
	}()
	// Out and back again is one release each time.
	for i := 0; i < 8; i++ {
		Put(Get(2048))
	}
}
