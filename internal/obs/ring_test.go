package obs

import (
	"slices"
	"sync"
	"testing"
)

func TestRingKeepsLastValuesOldestFirst(t *testing.T) {
	r := NewRing[int](3)
	if r.Capacity() != 3 || r.Values() == nil || len(r.Values()) != 0 {
		t.Fatalf("empty ring: capacity %d, values %v", r.Capacity(), r.Values())
	}
	for i := 1; i <= 7; i++ {
		r.Add(i)
		want := make([]int, 0, 3)
		for v := max(1, i-2); v <= i; v++ {
			want = append(want, v)
		}
		if got := r.Values(); !slices.Equal(got, want) {
			t.Fatalf("after %d adds: values %v, want %v", i, got, want)
		}
		if r.Total() != uint64(i) {
			t.Fatalf("after %d adds: total %d", i, r.Total())
		}
	}
}

func TestRingConcurrentAdds(t *testing.T) {
	r := NewRing[int](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(i)
				r.Values()
			}
		}()
	}
	wg.Wait()
	if r.Total() != 400 || len(r.Values()) != 16 {
		t.Fatalf("total %d, retained %d; want 400 and 16", r.Total(), len(r.Values()))
	}
}
