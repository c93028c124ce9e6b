// Package workpool runs independent per-index jobs on a fixed-size pool of
// workers. It is the one fan-out mechanism of the per-function passes
// (instrumentation, lowering to threaded code, code-section encoding): every
// function body is independent and each result lands in a slot of its own,
// so the output does not depend on how the work was scheduled.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls do(s, i) exactly once for every i in [0, n). min(workers, n)
// workers pull indices from one shared atomic counter, so a few large jobs
// do not stall the rest. Each worker obtains its state s once from acquire
// and returns it to release when the indices run out; acquire and release
// may be nil, in which case s is the zero S. workers <= 0 means GOMAXPROCS.
// With a single worker Run calls do inline on the calling goroutine and
// starts none.
//
// Callers write results into slots indexed by i and combine them in index
// order after Run returns (for example, reporting the error of the lowest
// failing index), which makes the outcome independent of scheduling.
func Run[S any](workers, n int, acquire func() S, release func(S), do func(s S, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 0 {
		return
	}
	var next atomic.Int64
	work := func() {
		var s S
		if acquire != nil {
			s = acquire()
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			do(s, i)
		}
		if release != nil {
			release(s)
		}
	}
	if workers == 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}
