package bench

import "testing"

// Alloc regression gates: the measured steady state of the warm data
// path (3 allocs/op READ, 5 WRITE; the seed was 63 and 67) plus one: two
// new allocations per op fail the build, where a fifth of the seed let a
// doubling pass.
const (
	warmReadAllocGate  = 4.0
	warmWriteAllocGate = 6.0
)

// TestWarmPathAllocGate measures the warm-cache READ/WRITE paths over
// a real loopback deployment and fails if allocs/op exceeds the
// committed gate. Skipped under -race: the detector instruments
// allocations and the counts are not comparable.
func TestWarmPathAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs/op is not comparable under the race detector")
	}
	read, write, err := measureWarmAlloc(2000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm read: %.1f allocs/op (%.0f B/op); warm write: %.1f allocs/op (%.0f B/op)",
		read.AllocsPerOp, read.BytesPerOp, write.AllocsPerOp, write.BytesPerOp)
	if read.AllocsPerOp > warmReadAllocGate {
		t.Errorf("warm READ = %.1f allocs/op, gate %.1f (seed %.1f)",
			read.AllocsPerOp, warmReadAllocGate, seedWarmReadAllocsPerOp)
	}
	if write.AllocsPerOp > warmWriteAllocGate {
		t.Errorf("warm WRITE = %.1f allocs/op, gate %.1f (seed %.1f)",
			write.AllocsPerOp, warmWriteAllocGate, seedWarmWriteAllocsPerOp)
	}
}
