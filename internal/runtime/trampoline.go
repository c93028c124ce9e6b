package runtime

// Per-spec compiled trampolines: the hot half of the runtime. Where the
// previous dispatcher re-discovered everything on every hook call — switching
// on HookSpec.Kind, re-decoding the lowered argument vector through an
// argReader, rebuilding the opcode name — compileTrampoline does all of that
// once, at Imports() time, and returns a closure that already knows its
// callback, its interned op name, its lowered argument layout (including the
// i64 lo/hi re-join offsets), and its exact arity. Trampolines stay
// hand-specialized per kind: decoding into a generic record first would
// double the per-hook cost. A new fixed-shape kind needs one case here, one
// recordFields row in encoder.go, and one case in the test-only reference
// dispatcher.
//
// Trampolines use the interpreter's zero-copy host-call convention
// (interp.HostFunc.Fast): args is a read-only window aliasing the caller's
// operand stack. Trampolines therefore never retain args; everything they
// hand to the analysis is either a scalar or a borrowed, engine-pooled
// vector (the call/return value vectors and br_table's resolved-target
// table) that is valid only for the duration of the callback — analyses use
// analysis.Values.Clone to retain one. Filling a pooled buffer instead of
// allocating keeps slice-carrying hook dispatch at 0 allocs/op.
//
// Hooks whose callbacks the analysis does not implement compile to a shared
// no-op and are reported as such, which lets the interpreter's compile pass
// elide the call and its argument lowering entirely (dead-hook elision).
// Which hooks are live is decided by live, one rule for trampolines and
// record encoders alike.

import (
	"fmt"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// hookFn is the compiled fast-path entry of one low-level hook; it matches
// interp.HostFunc.Fast.
type hookFn = func(inst *interp.Instance, args []interp.Value) error

// nopHook is the shared trampoline of every hook the analysis ignores.
func nopHook(*interp.Instance, []interp.Value) error { return nil }

// live reports whether a consumer with capability bits caps can observe the
// hook spec, on either dispatch path. call_pre and call_post are told apart
// by HookSpec.Post, and br_table is live for its own callback and for end:
// the runtime half of the dynamic block-nesting mechanism (paper §2.4.5)
// replays the end hooks of the blocks the taken branch leaves. Unknown
// kinds (newer metadata than this runtime) are never live.
func live(caps analysis.Cap, spec *core.HookSpec) bool {
	switch {
	case spec.Kind == analysis.KindCall && spec.Post:
		return caps.Has(analysis.CapCallPost)
	case spec.Kind == analysis.KindCall:
		return caps.Has(analysis.CapCallPre)
	case spec.Kind == analysis.KindBrTable:
		return caps.HasAny(analysis.CapBrTable | analysis.CapEnd)
	}
	return caps.HasAny(analysis.CapOfKind(spec.Kind))
}

// arityTrap reports a hook call whose lowered argument vector does not match
// the spec — possible only when an embedder corrupts or mixes up Metadata,
// or invokes a hook import directly with the wrong arguments. It surfaces as
// a trap (returned by trampolines, panicked by encoders, which have no error
// path), never as an index-out-of-range panic of the host process.
func arityTrap(name string, want, got int) *interp.Trap {
	return &interp.Trap{
		Code: TrapInvalidMetadata,
		Info: fmt.Sprintf("hook %s called with %d lowered args, want %d", name, got, want),
	}
}

// hookLoc decodes the two location words every hook call starts with.
func hookLoc(args []interp.Value) analysis.Location {
	return analysis.Location{Func: int(int32(uint32(args[0]))), Instr: int(int32(uint32(args[1])))}
}

// rawAt decodes the raw 64-bit representation of one logical value at its
// precomputed lowered offset, re-joining i64 (lo, hi) halves.
func rawAt(args []interp.Value, off int, t wasm.ValType) uint64 {
	if t == wasm.I64 {
		lo := uint64(uint32(args[off]))
		hi := uint64(uint32(args[off+1]))
		return hi<<32 | lo
	}
	return args[off]
}

// valueAt is rawAt with the value's type attached.
func valueAt(args []interp.Value, off int, t wasm.ValType) analysis.Value {
	return analysis.Value{Type: t, Bits: rawAt(args, off, t)}
}

// fillValues decodes a value vector with precomputed offsets into a borrowed
// buffer (len(vs) == len(ts)).
func fillValues(vs []analysis.Value, args []interp.Value, offs []int, ts []wasm.ValType) {
	for i, t := range ts {
		vs[i] = valueAt(args, offs[i], t)
	}
}

// resolveIndirect maps the runtime table index of a call_indirect to the
// actually called function in the original index space (paper §2.3), or -1
// when the slot is empty or out of range. The instance making the call is
// preferred over the explicitly bound one, so hooks that fire during the
// start function resolve correctly without BindInstance having run.
func (r *Runtime) resolveIndirect(inst *interp.Instance, tblIdx uint32) int {
	if inst == nil {
		inst = r.inst
	}
	if inst != nil {
		if fidx := inst.ResolveTable(tblIdx); fidx >= 0 {
			return r.meta.OriginalFuncIdx(int(fidx))
		}
	}
	return -1
}

// brTableTaken looks up the br_table metadata record a hook call names and
// the entry its runtime index selects (the default past the end of the
// table). An out-of-range metadata index traps with TrapInvalidMetadata.
func (r *Runtime) brTableTaken(loc analysis.Location, metaIdx int, idx uint32) (*core.BrTableInfo, *core.ResolvedTarget, *interp.Trap) {
	if metaIdx < 0 || metaIdx >= len(r.meta.BrTables) {
		return nil, nil, &interp.Trap{
			Code: TrapInvalidMetadata,
			Info: fmt.Sprintf("br_table metadata index %d out of range (have %d) at %v", metaIdx, len(r.meta.BrTables), loc),
		}
	}
	info := &r.meta.BrTables[metaIdx]
	if int(idx) < len(info.Targets) {
		return info, &info.Targets[idx], nil
	}
	return info, &info.Default, nil
}

// locOnly builds the trampoline shape shared by the hooks whose only
// payload is the location (nop, unreachable, start).
func locOnly(cb func(analysis.Location), name string, arity int) hookFn {
	return func(_ *interp.Instance, args []interp.Value) error {
		if len(args) != arity {
			return arityTrap(name, arity, len(args))
		}
		cb(hookLoc(args))
		return nil
	}
}

// compileTrampoline builds the specialized dispatch closure for one hook
// spec against its precomputed lowered-arg layout (shared across sessions).
// noop reports that the analysis implements no callback the hook could
// reach — decided from the capability bits computed in NewBound — so the
// interpreter may elide its call sites outright; the returned fn is still
// always callable (the shared no-op).
func (r *Runtime) compileTrampoline(spec *core.HookSpec, lay core.ArgLayout) (fn hookFn, noop bool) {
	if !live(r.caps, spec) {
		return nopHook, true
	}
	return r.trampoline(spec, lay), false
}

// trampoline builds the closure of one live hook.
func (r *Runtime) trampoline(spec *core.HookSpec, lay core.ArgLayout) hookFn {
	arity := lay.Arity
	name := spec.Name

	switch spec.Kind {
	case analysis.KindNop:
		return locOnly(r.nop, name, arity)

	case analysis.KindUnreachable:
		return locOnly(r.unreachable, name, arity)

	case analysis.KindStart:
		return locOnly(r.start, name, arity)

	case analysis.KindBlockProbe:
		cb := r.blockCov
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), int(int32(uint32(args[2]))))
			return nil
		}

	case analysis.KindIf:
		cb := r.ifHook
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), uint32(args[2]) != 0)
			return nil
		}

	case analysis.KindBr:
		cb := r.br
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			loc := hookLoc(args)
			cb(loc, analysis.BranchTarget{
				Label:    uint32(args[2]),
				Location: analysis.Location{Func: loc.Func, Instr: int(int32(uint32(args[3])))},
			})
			return nil
		}

	case analysis.KindBrIf:
		cb := r.brIf
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			loc := hookLoc(args)
			cb(loc, analysis.BranchTarget{
				Label:    uint32(args[2]),
				Location: analysis.Location{Func: loc.Func, Instr: int(int32(uint32(args[3])))},
			}, uint32(args[4]) != 0)
			return nil
		}

	case analysis.KindBrTable:
		return r.brTableTrampoline(name, arity)

	case analysis.KindBegin:
		cb := r.begin
		block := spec.Block
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), block)
			return nil
		}

	case analysis.KindEnd:
		cb := r.end
		block := spec.Block
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			loc := hookLoc(args)
			cb(loc, block, analysis.Location{Func: loc.Func, Instr: int(int32(uint32(args[2])))})
			return nil
		}

	case analysis.KindConst, analysis.KindDrop:
		cb := r.constHook
		if spec.Kind == analysis.KindDrop {
			cb = r.drop
		}
		t := spec.Types[0]
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), valueAt(args, 2, t))
			return nil
		}

	case analysis.KindSelect:
		cb := r.selectHook
		t := spec.Types[1]
		o1, o2 := lay.Offs[1], lay.Offs[2]
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), uint32(args[2]) != 0, valueAt(args, o1, t), valueAt(args, o2, t))
			return nil
		}

	case analysis.KindUnary:
		cb := r.unary
		op := spec.OpName()
		tIn, tOut := spec.Types[0], spec.Types[1]
		oOut := lay.Offs[1]
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), op, valueAt(args, 2, tIn), valueAt(args, oOut, tOut))
			return nil
		}

	case analysis.KindBinary:
		cb := r.binary
		op := spec.OpName()
		t0, t1, t2 := spec.Types[0], spec.Types[1], spec.Types[2]
		o1, o2 := lay.Offs[1], lay.Offs[2]
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), op, valueAt(args, 2, t0), valueAt(args, o1, t1), valueAt(args, o2, t2))
			return nil
		}

	case analysis.KindLocal, analysis.KindGlobal:
		cb := r.local
		if spec.Kind == analysis.KindGlobal {
			cb = r.global
		}
		op := spec.OpName()
		t := spec.Types[1]
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), op, uint32(args[2]), valueAt(args, 3, t))
			return nil
		}

	case analysis.KindLoad, analysis.KindStore:
		cb := r.load
		if spec.Kind == analysis.KindStore {
			cb = r.store
		}
		op := spec.OpName()
		t := spec.Types[2]
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), op,
				analysis.MemArg{Addr: uint32(args[3]), Offset: uint32(args[2])},
				valueAt(args, 4, t))
			return nil
		}

	case analysis.KindMemorySize:
		cb := r.memSize
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), uint32(args[2]))
			return nil
		}

	case analysis.KindMemoryGrow:
		cb := r.memGrow
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			cb(hookLoc(args), uint32(args[2]), uint32(args[3]))
			return nil
		}

	case analysis.KindCall:
		return r.callTrampoline(spec, lay)

	case analysis.KindReturn:
		return r.valuesTrampoline(name, arity, lay.Offs, spec.Types, r.returnHook)
	}
	// live rejected every kind not handled above.
	return nopHook
}

// borrowValues is the single implementation of the borrowed-buffer checkout
// protocol every slice-carrying trampoline goes through: decode the value
// vector into a pooled buffer, hand it to dispatch for the duration of the
// call, put it back. n == 0 dispatches nil without touching the pool. The
// dispatch closure must not escape (that would re-introduce a per-call
// allocation — the zero-alloc guard test watches this).
func borrowValues(pool *ValuePool, n int, args []interp.Value, offs []int, ts []wasm.ValType, dispatch func(vs []analysis.Value)) {
	if n == 0 {
		dispatch(nil)
		return
	}
	buf := pool.getValues(n)
	fillValues(buf.vs, args, offs, ts)
	dispatch(buf.vs)
	pool.putValues(buf)
}

// valuesTrampoline builds the shared shape of the two hooks whose payload is
// one borrowed value vector (return, call_post).
func (r *Runtime) valuesTrampoline(name string, arity int, offs []int, ts []wasm.ValType, cb func(analysis.Location, []analysis.Value)) hookFn {
	pool, n := r.shared.Pool, len(ts)
	return func(_ *interp.Instance, args []interp.Value) error {
		if len(args) != arity {
			return arityTrap(name, arity, len(args))
		}
		borrowValues(pool, n, args, offs, ts, func(vs []analysis.Value) {
			cb(hookLoc(args), vs)
		})
		return nil
	}
}

// callTrampoline specializes the three call-hook shapes: call_post, direct
// call_pre, and indirect call_pre (with table resolution, paper §2.3).
func (r *Runtime) callTrampoline(spec *core.HookSpec, lay core.ArgLayout) hookFn {
	arity := lay.Arity
	name := spec.Name
	if spec.Post {
		return r.valuesTrampoline(name, arity, lay.Offs, spec.Types, r.callPost)
	}
	cb := r.callPre
	// Types[0] is the i32 target (direct) or table index (indirect); the
	// actual callee arguments follow.
	offs, ts := lay.Offs[1:], spec.Types[1:]
	pool, n := r.shared.Pool, len(ts)
	if !spec.Indirect {
		return func(_ *interp.Instance, args []interp.Value) error {
			if len(args) != arity {
				return arityTrap(name, arity, len(args))
			}
			borrowValues(pool, n, args, offs, ts, func(vs []analysis.Value) {
				cb(hookLoc(args), int(int32(uint32(args[2]))), vs, -1)
			})
			return nil
		}
	}
	return func(inst *interp.Instance, args []interp.Value) error {
		if len(args) != arity {
			return arityTrap(name, arity, len(args))
		}
		tblIdx := uint32(args[2])
		target := r.resolveIndirect(inst, tblIdx)
		borrowValues(pool, n, args, offs, ts, func(vs []analysis.Value) {
			cb(hookLoc(args), target, vs, int64(tblIdx))
		})
		return nil
	}
}

// brTableTrampoline handles the one hook whose dispatch consults
// instrumentation metadata at run time: which blocks a br_table leaves is
// only known once the branch index is (paper §2.4.5).
func (r *Runtime) brTableTrampoline(name string, arity int) hookFn {
	endCb := r.end
	tableCb := r.brTable
	pool := r.shared.Pool
	return func(_ *interp.Instance, args []interp.Value) error {
		if len(args) != arity {
			return arityTrap(name, arity, len(args))
		}
		loc := hookLoc(args)
		idx := uint32(args[3])
		info, taken, trap := r.brTableTaken(loc, int(int32(uint32(args[2]))), idx)
		if trap != nil {
			return trap
		}
		// Fire the end hooks of all blocks left by the taken branch.
		if endCb != nil {
			for _, e := range taken.Ends {
				endCb(analysis.Location{Func: loc.Func, Instr: e.End}, e.Kind,
					analysis.Location{Func: loc.Func, Instr: e.Begin})
			}
		}
		if tableCb != nil {
			buf := pool.getTargets(len(info.Targets))
			for i, t := range info.Targets {
				buf.ts[i] = analysis.BranchTarget{Label: t.Label, Location: analysis.Location{Func: loc.Func, Instr: t.Instr}}
			}
			deflt := analysis.BranchTarget{Label: info.Default.Label, Location: analysis.Location{Func: loc.Func, Instr: info.Default.Instr}}
			tableCb(loc, buf.ts, deflt, idx)
			pool.putTargets(buf)
		}
		return nil
	}
}
