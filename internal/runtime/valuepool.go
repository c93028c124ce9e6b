package runtime

// Borrowed-buffer machinery for the slice-carrying hooks (call_pre args,
// call_post/return results, br_table's resolved-target table). Instead of
// allocating a fresh vector per hook call — the last per-call allocation the
// PR 3 trampolines left behind — the trampolines fill a pooled buffer, hand
// it to the analysis for the duration of the callback, and put it back. The
// explicit ownership contract (analysis.Values: borrowed, Clone to retain)
// is what makes the reuse sound.

import (
	"sync"

	"wasabi/internal/analysis"
	"wasabi/internal/failpoint"
)

// ValuePool is the engine-level pool of borrowed hook-value buffers. One pool
// is shared by every session of an engine: buffers are taken and returned
// strictly within one hook dispatch, so sessions on different goroutines
// never see each other's vectors. The zero value is ready to use.
type ValuePool struct {
	vals sync.Pool // *valueBuf
	brs  sync.Pool // *brTargetBuf
}

// valueBuf wraps the slice so pool Put/Get moves one pointer instead of
// boxing a slice header (which would itself allocate per call).
type valueBuf struct{ vs []analysis.Value }

type brTargetBuf struct{ ts []analysis.BranchTarget }

func (p *ValuePool) getValues(n int) *valueBuf {
	if failpoint.Enabled(failpoint.ValuePoolGet) {
		// This seam is inside hook dispatch, which has no error return: the
		// injected fault panics and is contained into a typed *RuntimeFault
		// by the invocation root (Instance.call), like any host-side panic.
		panic(&failpoint.InjectedError{Point: failpoint.ValuePoolGet})
	}
	b, _ := p.vals.Get().(*valueBuf)
	if b == nil {
		b = &valueBuf{}
	}
	if cap(b.vs) < n {
		b.vs = make([]analysis.Value, n)
	}
	b.vs = b.vs[:n]
	return b
}

func (p *ValuePool) putValues(b *valueBuf) { p.vals.Put(b) }

func (p *ValuePool) getTargets(n int) *brTargetBuf {
	b, _ := p.brs.Get().(*brTargetBuf)
	if b == nil {
		b = &brTargetBuf{}
	}
	if cap(b.ts) < n {
		b.ts = make([]analysis.BranchTarget, n)
	}
	b.ts = b.ts[:n]
	return b
}

func (p *ValuePool) putTargets(b *brTargetBuf) { p.brs.Put(b) }

// defaultPool backs runtimes constructed without an engine (direct New
// callers).
var defaultPool ValuePool
