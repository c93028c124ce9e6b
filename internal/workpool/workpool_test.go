package workpool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRun checks that every index runs exactly once and that each of the
// min(workers, n) workers acquires and releases its state exactly once, at
// widths below, at and above the job count.
func TestRun(t *testing.T) {
	for _, n := range []int{0, 1, 5, 300} {
		for workers := -1; workers <= 8; workers++ {
			hits := make([]atomic.Int32, n)
			var acquired, released atomic.Int32
			Run(workers, n,
				func() *int { acquired.Add(1); return new(int) },
				func(*int) { released.Add(1) },
				func(_ *int, i int) { hits[i].Add(1) })
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
			want := workers
			if want <= 0 {
				want = runtime.GOMAXPROCS(0)
			}
			want = min(want, n)
			if a, r := acquired.Load(), released.Load(); int(a) != want || r != a {
				t.Fatalf("n=%d workers=%d: %d acquired, %d released, want %d", n, workers, a, r, want)
			}
		}
	}
	// nil acquire and release hand every job the zero state.
	var sum atomic.Int64
	Run(3, 10, nil, nil, func(s struct{}, i int) { sum.Add(int64(i)) })
	if sum.Load() != 45 {
		t.Fatalf("sum of indices %d, want 45", sum.Load())
	}
}
