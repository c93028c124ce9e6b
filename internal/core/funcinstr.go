package core

import (
	"fmt"
	"sync"

	"wasabi/internal/analysis"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

// ctrlEntry is one frame of the instrumenter's abstract control stack
// (paper §2.4.4, Figure 6): the block kind and the locations of the block's
// begin and matching end instruction in the ORIGINAL body.
type ctrlEntry struct {
	kind  analysis.BlockKind
	begin int // original instruction index; -1 for the function frame
	end   int
	live  bool // whether the block entry itself is reachable
}

// scratchAlloc hands out per-function scratch locals for duplicating stack
// operands ("freshly generated locals" in Table 3). Locals are reused across
// instructions but never within one: release() must be called after each
// original instruction. The per-type state lives in small arrays indexed by
// the dense ValType index (vtIdx) so the hot take/release path touches no
// maps.
type scratchAlloc struct {
	base   int // first scratch index = params + original locals
	types  []wasm.ValType
	inUse  [numValTypes]int
	byType [numValTypes][]uint32
}

// numValTypes is the number of distinct wasm value types (i32, i64, f32, f64).
const numValTypes = 4

// vtIdx maps a ValType (0x7F..0x7C) to a dense index 0..3.
func vtIdx(t wasm.ValType) int { return int(wasm.I32 - t) }

// reset prepares the allocator for the next function, keeping the capacity
// of the per-type index pools.
func (a *scratchAlloc) reset(base int) {
	a.base = base
	a.types = a.types[:0]
	for i := range a.byType {
		a.inUse[i] = 0
		a.byType[i] = a.byType[i][:0]
	}
}

func (a *scratchAlloc) take(t wasm.ValType) uint32 {
	ti := vtIdx(t)
	n := a.inUse[ti]
	a.inUse[ti] = n + 1
	pool := a.byType[ti]
	if n < len(pool) {
		return pool[n]
	}
	idx := uint32(a.base + len(a.types))
	a.types = append(a.types, t)
	a.byType[ti] = append(pool, idx)
	return idx
}

func (a *scratchAlloc) release() {
	for i := range a.inUse {
		a.inUse[i] = 0
	}
}

// funcInstrumenter instruments function bodies. One instrumenter is reused
// for many functions of the same instrumentation run (and pooled across runs
// via instrPool): all its buffers — the output instruction buffer, the
// abstract control stack, the scratch-local allocator, the type tracker, and
// the control-match tables — reach a steady-state capacity after the first
// few functions, so the per-function hot path allocates only the exact-size
// copies that escape into the instrumented module.
type funcInstrumenter struct {
	mod     *wasm.Module
	ix      *wasm.IndexSpace // mod's index spaces, built once per Instrument run
	hooks   *hookRegistry
	set     analysis.HookSet
	funcIdx int    // original function index
	typeIdx uint32 // type index of the current function
	sig     wasm.FuncType
	body    []wasm.Instr
	brPool  []uint32 // current function's br_table target pool

	tr      *validate.Tracker
	ctrl    []ctrlEntry
	scratch scratchAlloc
	out     []wasm.Instr

	// Reusable scratch tables for controlMatches and saved-operand locals.
	matchEnd  []int32
	matchElse []int32
	ctrlPCs   []int
	savedBuf  []uint32

	// callSites records the output-body index of every emitted OpCall
	// instruction (original calls and hook calls alike), so the final
	// index-remap pass touches exactly those instructions instead of
	// rescanning every body.
	callSites []uint32

	// cache resolves hook indices by cheap integer keys so only the first
	// use of a hook per run constructs a HookSpec and hits the shared
	// (locked) registry. Valid for the lifetime of one Instrument run.
	cache hookIdxCache

	isStart     bool
	brTableBase int
	brTables    []BrTableInfo
	probeBlocks []BlockSpan // CFG blocks receiving one block_probe each (static plan)
}

// instrPool recycles instrumenters across Instrument runs, so repeated
// instrumentation (the Table 5 benchmarks, server-style workloads) reuses
// steady-state buffers instead of re-growing them from scratch.
var instrPool = sync.Pool{New: func() any { return new(funcInstrumenter) }}

// acquireInstrumenter prepares a pooled instrumenter for one run.
func acquireInstrumenter(mod *wasm.Module, ix *wasm.IndexSpace, set analysis.HookSet, hooks *hookRegistry) *funcInstrumenter {
	fi := instrPool.Get().(*funcInstrumenter)
	fi.mod = mod
	fi.ix = ix
	fi.hooks = hooks
	fi.set = set
	fi.cache.reset(len(mod.Types)) // hook indices are per-run; never leak across runs
	return fi
}

// releaseInstrumenter drops the per-run references — everything that could
// keep the instrumented module reachable, including the tracker's module
// pointer and the signature slices — and returns the instrumenter (with its
// grown buffers) to the pool.
func releaseInstrumenter(fi *funcInstrumenter) {
	fi.mod = nil
	fi.ix = nil
	fi.hooks = nil
	fi.sig = wasm.FuncType{}
	fi.body = nil
	fi.brPool = nil
	fi.brTables = nil
	if fi.tr != nil {
		fi.tr.Clear()
	}
	instrPool.Put(fi)
}

// instrumentFunc rewrites the body of the defined function at definedIdx.
// It returns the new body, the scratch locals to append, the br_table
// metadata records (whose indices start at brTableBase), and the indices of
// the emitted OpCall instructions (for the restricted remap pass). The
// returned slices are exact-size copies owned by the caller; the
// instrumenter's internal buffers are reused for the next function.
func (fi *funcInstrumenter) instrumentFunc(definedIdx int, isStart bool, brTableBase int, plan *Plan) (body []wasm.Instr, extraLocals []wasm.ValType, brTables []BrTableInfo, callSites []uint32, err error) {
	f := &fi.mod.Funcs[definedIdx]
	if plan.skip(definedIdx) {
		return copyUninstrumented(f.Body)
	}
	fi.funcIdx = fi.ix.NumImportedFuncs + definedIdx
	fi.typeIdx = f.TypeIdx
	fi.sig = fi.mod.Types[f.TypeIdx]
	fi.body = f.Body
	fi.brPool = f.BrTargets
	if fi.tr == nil {
		fi.tr = validate.NewTracker(fi.ix, fi.sig, f.Locals, f.BrTargets)
	} else {
		fi.tr.Reset(fi.ix, fi.sig, f.Locals, f.BrTargets)
	}
	fi.scratch.reset(len(fi.sig.Params) + len(f.Locals))
	if fi.out == nil {
		// First use: size for the typical full-instrumentation expansion so
		// the very first function needs at most a couple of regrows; after
		// that the buffer is reused at its steady-state capacity.
		fi.out = make([]wasm.Instr, 0, len(f.Body)*expansionFactor(fi.set))
	} else {
		fi.out = fi.out[:0]
	}
	fi.ctrl = fi.ctrl[:0]
	fi.isStart = isStart
	fi.brTableBase = brTableBase
	fi.brTables = nil
	fi.callSites = fi.callSites[:0]
	fi.probeBlocks = nil
	if fi.set.Has(analysis.KindBlockProbe) {
		fi.probeBlocks = plan.blocks(definedIdx)
	}

	if err := fi.run(); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: func %d: %w", fi.funcIdx, err)
	}
	body = make([]wasm.Instr, len(fi.out))
	copy(body, fi.out)
	if n := len(fi.scratch.types); n > 0 {
		extraLocals = make([]wasm.ValType, n)
		copy(extraLocals, fi.scratch.types)
	}
	if n := len(fi.callSites); n > 0 {
		callSites = make([]uint32, n)
		copy(callSites, fi.callSites)
	}
	return body, extraLocals, fi.brTables, callSites, nil
}

// expansionFactor estimates how many output instructions one input
// instruction expands to under the given hook set. It is derived from the
// emit sequences in instr(): the dominating expanders are the operand
// save/restore sequences of call (~26 including i64 lowering), binary (~14),
// and load/store (~11) hooks. The estimate only sizes the very first output
// buffer of a pooled instrumenter, so a coarse per-set bound is enough.
func expansionFactor(set analysis.HookSet) int {
	f := 1
	if set.Has(analysis.KindCall) {
		f = 12
	}
	for _, k := range [...]analysis.HookKind{analysis.KindBinary, analysis.KindLoad, analysis.KindStore} {
		if set.Has(k) {
			f += 4
		}
	}
	for _, k := range [...]analysis.HookKind{analysis.KindLocal, analysis.KindConst, analysis.KindBegin, analysis.KindEnd} {
		if set.Has(k) {
			f += 2
		}
	}
	return f
}

// savedScratch returns a reusable []uint32 of length n for saved-operand
// local indices. Only one savedScratch slice is live at a time.
func (fi *funcInstrumenter) savedScratch(n int) []uint32 {
	if cap(fi.savedBuf) < n {
		fi.savedBuf = make([]uint32, n, n*2+8)
	}
	return fi.savedBuf[:n]
}

func (fi *funcInstrumenter) has(k analysis.HookKind) bool { return fi.set.Has(k) }

func (fi *funcInstrumenter) emit(ins ...wasm.Instr) { fi.out = append(fi.out, ins...) }

// emitCall appends one OpCall instruction, recording its body index so the
// final remap pass visits only actual call sites.
func (fi *funcInstrumenter) emitCall(in wasm.Instr) {
	fi.callSites = append(fi.callSites, uint32(len(fi.out)))
	fi.out = append(fi.out, in)
}

// emitLoc pushes the two i32 location arguments every hook receives.
func (fi *funcInstrumenter) emitLoc(instrIdx int) {
	fi.emit(wasm.I32Const(int32(fi.funcIdx)), wasm.I32Const(int32(instrIdx)))
}

// emitLowerLocal pushes the value held in a local in the host-boundary
// representation: i64 is split into (lo, hi) i32 halves (paper §2.4.6,
// Table 3 row 6).
func (fi *funcInstrumenter) emitLowerLocal(t wasm.ValType, local uint32) {
	if t != wasm.I64 {
		fi.emit(wasm.LocalGet(local))
		return
	}
	fi.emit(
		wasm.LocalGet(local),
		wasm.Op1(wasm.OpI32WrapI64), // lo
		wasm.LocalGet(local),
		wasm.I64ConstInstr(32),
		wasm.Op1(wasm.OpI64ShrU),
		wasm.Op1(wasm.OpI32WrapI64), // hi
	)
}

// emitLowerGlobal is emitLowerLocal for a global variable.
func (fi *funcInstrumenter) emitLowerGlobal(t wasm.ValType, global uint32) {
	if t != wasm.I64 {
		fi.emit(wasm.GlobalGet(global))
		return
	}
	fi.emit(
		wasm.GlobalGet(global),
		wasm.Op1(wasm.OpI32WrapI64),
		wasm.GlobalGet(global),
		wasm.I64ConstInstr(32),
		wasm.Op1(wasm.OpI64ShrU),
		wasm.Op1(wasm.OpI32WrapI64),
	)
}

// emitLowerConst pushes the value of a constant instruction in lowered form;
// for i64 constants the two halves are emitted directly as i32 constants.
func (fi *funcInstrumenter) emitLowerConst(in wasm.Instr) {
	if in.Op == wasm.OpI64Const {
		v := in.Bits
		fi.emit(wasm.I32Const(int32(uint32(v))), wasm.I32Const(int32(uint32(v>>32))))
		return
	}
	fi.emit(in)
}

// frame returns the control frame n levels from the top (0 = innermost).
func (fi *funcInstrumenter) frame(n int) *ctrlEntry { return &fi.ctrl[len(fi.ctrl)-1-n] }

// resolveTarget computes the absolute instruction index a branch with the
// given relative label jumps to (paper §2.4.4): for loops the first
// instruction of the loop body (a backward jump), otherwise the instruction
// after the block's matching end (a forward jump).
func (fi *funcInstrumenter) resolveTarget(label uint32) (int, error) {
	if int(label) >= len(fi.ctrl) {
		return 0, fmt.Errorf("branch label %d exceeds control depth %d", label, len(fi.ctrl))
	}
	fr := fi.frame(int(label))
	switch fr.kind {
	case analysis.BlockLoop:
		return fr.begin + 1, nil
	case analysis.BlockFunction:
		return fr.end, nil // the implicit function end (i.e. return)
	default:
		return fr.end + 1, nil
	}
}

// endInfos collects the EndInfo records for the blocks traversed by a
// branch with the given label: every frame from the innermost through the
// target, both inclusive (paper §2.4.5). The returned slice escapes into
// br_table metadata, so it is allocated exactly.
func (fi *funcInstrumenter) endInfos(label uint32) []EndInfo {
	infos := make([]EndInfo, 0, label+1)
	for k := 0; k <= int(label); k++ {
		fr := fi.frame(k)
		infos = append(infos, EndInfo{Kind: fr.kind, End: fr.end, Begin: fr.begin})
	}
	return infos
}

// emitEndHooksFor emits inline calls to the end hooks of all traversed
// blocks for a branch with the given label, walking the control stack
// directly (no intermediate slice).
func (fi *funcInstrumenter) emitEndHooksFor(label uint32) {
	for k := 0; k <= int(label); k++ {
		fr := fi.frame(k)
		fi.emitEndHook(EndInfo{Kind: fr.kind, End: fr.end, Begin: fr.begin})
	}
}

func (fi *funcInstrumenter) emitEndHook(info EndInfo) {
	fi.emitLoc(info.End)
	fi.emit(wasm.I32Const(int32(info.Begin)))
	fi.emitEndHookCall(info.Kind)
}

func (fi *funcInstrumenter) run() error {
	matchEnd, matchElse, ctrlPCs, err := controlMatchesInto(fi.body, fi.matchEnd, fi.matchElse, fi.ctrlPCs)
	if err != nil {
		return err
	}
	fi.matchEnd, fi.matchElse, fi.ctrlPCs = matchEnd, matchElse, ctrlPCs
	fi.ctrl = append(fi.ctrl, ctrlEntry{
		kind: analysis.BlockFunction, begin: -1, end: len(fi.body) - 1, live: true,
	})

	// Module start function: the start hook fires before anything else.
	if fi.isStart && fi.has(analysis.KindStart) {
		fi.emitLoc(-1)
		fi.emitFixedHook(fhStart)
	}
	if fi.has(analysis.KindBegin) {
		fi.emitLoc(-1)
		fi.emitBeginHook(analysis.BlockFunction)
	}

	nb := 0
	for i, in := range fi.body {
		reachable := !fi.tr.UnreachableNow()
		// A block_probe sits immediately before its block's first original
		// instruction: structured control flow guarantees branches only land
		// at block leaders, so the probe fires exactly when the block is
		// entered (including loop backedges). Statically dead leaders are
		// skipped — they can never execute.
		for nb < len(fi.probeBlocks) && fi.probeBlocks[nb].Start == i {
			if reachable {
				fi.emitLoc(i)
				fi.emit(wasm.I32Const(int32(fi.probeBlocks[nb].End)))
				fi.emitFixedHook(fhBlockProbe)
			}
			nb++
		}
		if err := fi.instr(i, in, reachable, matchEnd, matchElse); err != nil {
			return fmt.Errorf("instr %d (%s): %w", i, in.Op, err)
		}
		if err := fi.tr.Step(in); err != nil {
			return fmt.Errorf("instr %d (%s): type tracking: %w", i, in.Op, err)
		}
		fi.scratch.release()
	}
	if !fi.tr.Done() {
		return fmt.Errorf("body ended with %d open blocks", fi.tr.Depth())
	}
	return nil
}

// instr emits the instrumented sequence for the original instruction at
// index i. The original instruction is always preserved; hook calls and
// operand duplication are interleaved around it (Table 3 in the paper).
func (fi *funcInstrumenter) instr(i int, in wasm.Instr, reachable bool, matchEnd, matchElse []int32) error {
	op := in.Op
	switch op {
	case wasm.OpNop:
		fi.emit(in)
		if reachable && fi.has(analysis.KindNop) {
			fi.emitLoc(i)
			fi.emitFixedHook(fhNop)
		}

	case wasm.OpUnreachable:
		// The hook must run before the trap.
		if reachable && fi.has(analysis.KindUnreachable) {
			fi.emitLoc(i)
			fi.emitFixedHook(fhUnreachable)
		}
		fi.emit(in)

	case wasm.OpBlock, wasm.OpLoop:
		kind := analysis.BlockBlock
		if op == wasm.OpLoop {
			kind = analysis.BlockLoop
		}
		fi.ctrl = append(fi.ctrl, ctrlEntry{kind: kind, begin: i, end: int(matchEnd[i]), live: reachable})
		fi.emit(in)
		if reachable && fi.has(analysis.KindBegin) {
			// For loops this call sits at the loop header and therefore
			// fires once per iteration, as the paper specifies.
			fi.emitLoc(i)
			fi.emitBeginHook(kind)
		}

	case wasm.OpIf:
		if reachable && fi.has(analysis.KindIf) {
			c := fi.scratch.take(wasm.I32)
			fi.emit(wasm.LocalTee(c))
			fi.emitLoc(i)
			fi.emit(wasm.LocalGet(c))
			fi.emitFixedHook(fhIf)
		}
		fi.ctrl = append(fi.ctrl, ctrlEntry{kind: analysis.BlockIf, begin: i, end: int(matchEnd[i]), live: reachable})
		fi.emit(in)
		if reachable && fi.has(analysis.KindBegin) {
			fi.emitLoc(i)
			fi.emitBeginHook(analysis.BlockIf)
		}

	case wasm.OpElse:
		fr := fi.frame(0)
		// The end hook of the then-branch: reached only by falling through
		// to the else, so guard on reachability at this point.
		if reachable && fi.has(analysis.KindEnd) {
			fi.emitEndHook(EndInfo{Kind: analysis.BlockIf, End: i, Begin: fr.begin})
		}
		live := fr.live
		*fr = ctrlEntry{kind: analysis.BlockElse, begin: i, end: fr.end, live: live}
		fi.emit(in)
		if live && fi.has(analysis.KindBegin) {
			fi.emitLoc(i)
			fi.emitBeginHook(analysis.BlockElse)
		}

	case wasm.OpEnd:
		fr := fi.frame(0)
		if len(fi.ctrl) == 1 {
			// Function-level end: implicit return, then the function end hook.
			if reachable && fi.has(analysis.KindReturn) {
				fi.emitReturnHook(i, true)
			}
			if reachable && fi.has(analysis.KindEnd) {
				fi.emitEndHook(EndInfo{Kind: analysis.BlockFunction, End: i, Begin: -1})
			}
		} else if reachable && fi.has(analysis.KindEnd) {
			fi.emitEndHook(EndInfo{Kind: fr.kind, End: i, Begin: fr.begin})
		}
		fi.ctrl = fi.ctrl[:len(fi.ctrl)-1]
		fi.emit(in)

	case wasm.OpBr:
		if reachable {
			if fi.has(analysis.KindBr) {
				target, err := fi.resolveTarget(in.Idx)
				if err != nil {
					return err
				}
				fi.emitLoc(i)
				fi.emit(wasm.I32Const(int32(in.Idx)), wasm.I32Const(int32(target)))
				fi.emitFixedHook(fhBr)
			}
			if fi.has(analysis.KindEnd) {
				fi.emitEndHooksFor(in.Idx)
			}
		}
		fi.emit(in)

	case wasm.OpBrIf:
		if reachable && (fi.has(analysis.KindBrIf) || fi.has(analysis.KindEnd)) {
			target, err := fi.resolveTarget(in.Idx)
			if err != nil {
				return err
			}
			c := fi.scratch.take(wasm.I32)
			fi.emit(wasm.LocalSet(c))
			if fi.has(analysis.KindBrIf) {
				fi.emitLoc(i)
				fi.emit(wasm.I32Const(int32(in.Idx)), wasm.I32Const(int32(target)), wasm.LocalGet(c))
				fi.emitFixedHook(fhBrIf)
			}
			if fi.has(analysis.KindEnd) {
				// End hooks fire only if the branch is taken (paper §2.4.5).
				fi.emit(wasm.LocalGet(c), wasm.IfInstr(wasm.BlockEmpty))
				fi.emitEndHooksFor(in.Idx)
				fi.emit(wasm.End())
			}
			fi.emit(wasm.LocalGet(c))
		}
		fi.emit(in)

	case wasm.OpBrTable:
		if reachable && (fi.has(analysis.KindBrTable) || fi.has(analysis.KindEnd)) {
			info := BrTableInfo{Loc: analysis.Location{Func: fi.funcIdx, Instr: i}}
			// Bound-check the pool span here: with SkipValidation the
			// tracker's own guard runs only after this instruction is
			// emitted, and a malformed span must surface as an error, not a
			// panic inside a worker.
			if off, cnt := in.BrTableSpan(); off+cnt > len(fi.brPool) {
				return fmt.Errorf("br_table target span [%d:%d] exceeds pool (%d)", off, off+cnt, len(fi.brPool))
			}
			for _, label := range in.BrTargets(fi.brPool) {
				target, err := fi.resolveTarget(label)
				if err != nil {
					return err
				}
				info.Targets = append(info.Targets, ResolvedTarget{Label: label, Instr: target, Ends: fi.endInfos(label)})
			}
			target, err := fi.resolveTarget(in.Idx)
			if err != nil {
				return err
			}
			info.Default = ResolvedTarget{Label: in.Idx, Instr: target, Ends: fi.endInfos(in.Idx)}
			metaIdx := fi.brTableBase + len(fi.brTables)
			fi.brTables = append(fi.brTables, info)

			idx := fi.scratch.take(wasm.I32)
			fi.emit(wasm.LocalSet(idx))
			fi.emitLoc(i)
			fi.emit(wasm.I32Const(int32(metaIdx)), wasm.LocalGet(idx))
			fi.emitFixedHook(fhBrTable)
			fi.emit(wasm.LocalGet(idx))
		}
		fi.emit(in)

	case wasm.OpReturn:
		if reachable {
			if fi.has(analysis.KindReturn) {
				fi.emitReturnHook(i, false)
			}
			if fi.has(analysis.KindEnd) {
				fi.emitEndHooksFor(uint32(len(fi.ctrl) - 1))
			}
		}
		fi.emit(in)

	case wasm.OpCall:
		if !reachable || !fi.has(analysis.KindCall) {
			fi.emitCall(in)
			return nil
		}
		typeIdx, err := fi.ix.FuncTypeIdx(in.Idx)
		if err != nil {
			return err
		}
		fi.emitCallHooks(i, in, typeIdx, false)

	case wasm.OpCallIndirect:
		if !reachable || !fi.has(analysis.KindCall) {
			fi.emit(in)
			return nil
		}
		if int(in.Idx) >= len(fi.mod.Types) {
			return fmt.Errorf("call_indirect type index %d out of range", in.Idx)
		}
		fi.emitCallHooks(i, in, in.Idx, true)

	case wasm.OpDrop:
		t := fi.tr.Top(0)
		if !reachable || !fi.has(analysis.KindDrop) || t == validate.Unknown {
			fi.emit(in)
			return nil
		}
		// The monomorphic drop hook consumes the value in place of the drop
		// (Table 3 row 4); the original drop is replaced by a local.set.
		v := fi.scratch.take(t)
		fi.emit(wasm.LocalSet(v))
		fi.emitLoc(i)
		fi.emitLowerLocal(t, v)
		fi.emitDropHook(t)

	case wasm.OpSelect:
		t := fi.tr.Top(1)
		if t == validate.Unknown {
			t = fi.tr.Top(2)
		}
		if !reachable || !fi.has(analysis.KindSelect) || t == validate.Unknown {
			fi.emit(in)
			return nil
		}
		c := fi.scratch.take(wasm.I32)
		second := fi.scratch.take(t)
		first := fi.scratch.take(t)
		fi.emit(wasm.LocalSet(c), wasm.LocalSet(second), wasm.LocalSet(first))
		fi.emitLoc(i)
		fi.emit(wasm.LocalGet(c))
		fi.emitLowerLocal(t, first)
		fi.emitLowerLocal(t, second)
		fi.emitSelectHook(t)
		fi.emit(wasm.LocalGet(first), wasm.LocalGet(second), wasm.LocalGet(c), in)

	case wasm.OpLocalGet, wasm.OpLocalSet, wasm.OpLocalTee:
		if !reachable || !fi.has(analysis.KindLocal) {
			fi.emit(in)
			return nil
		}
		t, err := fi.tr.LocalType(in.Idx)
		if err != nil {
			return err
		}
		// After the instruction executes, the local itself holds the value
		// (for get trivially; for set/tee it was just written), so the hook
		// argument is re-read from the local, with no stack juggling.
		fi.emit(in)
		fi.emitLoc(i)
		fi.emit(wasm.I32Const(int32(in.Idx)))
		fi.emitLowerLocal(t, in.Idx)
		fi.emitLocalHook(op, t)

	case wasm.OpGlobalGet, wasm.OpGlobalSet:
		if !reachable || !fi.has(analysis.KindGlobal) {
			fi.emit(in)
			return nil
		}
		gt, err := fi.ix.GlobalType(in.Idx)
		if err != nil {
			return err
		}
		fi.emit(in)
		fi.emitLoc(i)
		fi.emit(wasm.I32Const(int32(in.Idx)))
		fi.emitLowerGlobal(gt.Type, in.Idx)
		fi.emitGlobalHook(op, gt.Type)

	case wasm.OpMemorySize:
		fi.emit(in)
		if reachable && fi.has(analysis.KindMemorySize) {
			r := fi.scratch.take(wasm.I32)
			fi.emit(wasm.LocalTee(r))
			fi.emitLoc(i)
			fi.emit(wasm.LocalGet(r))
			fi.emitFixedHook(fhMemorySize)
		}

	case wasm.OpMemoryGrow:
		if !reachable || !fi.has(analysis.KindMemoryGrow) {
			fi.emit(in)
			return nil
		}
		d := fi.scratch.take(wasm.I32)
		r := fi.scratch.take(wasm.I32)
		fi.emit(wasm.LocalTee(d), in, wasm.LocalTee(r))
		fi.emitLoc(i)
		fi.emit(wasm.LocalGet(d), wasm.LocalGet(r))
		fi.emitFixedHook(fhMemoryGrow)

	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		fi.emit(in)
		if reachable && fi.has(analysis.KindConst) {
			fi.emitLoc(i)
			fi.emitLowerConst(in)
			t, _, _ := constTypeOf(in.Op)
			fi.emitConstHook(t)
		}

	default:
		switch {
		case op.IsLoad():
			if !reachable || !fi.has(analysis.KindLoad) {
				fi.emit(in)
				return nil
			}
			t, _ := op.LoadStoreType()
			addr := fi.scratch.take(wasm.I32)
			val := fi.scratch.take(t)
			fi.emit(wasm.LocalTee(addr), in, wasm.LocalTee(val))
			fi.emitLoc(i)
			fi.emit(wasm.I32Const(int32(in.MemOffset())), wasm.LocalGet(addr))
			fi.emitLowerLocal(t, val)
			fi.emitOpHook(op)

		case op.IsStore():
			if !reachable || !fi.has(analysis.KindStore) {
				fi.emit(in)
				return nil
			}
			t, _ := op.LoadStoreType()
			val := fi.scratch.take(t)
			addr := fi.scratch.take(wasm.I32)
			fi.emit(wasm.LocalSet(val), wasm.LocalTee(addr), wasm.LocalGet(val), in)
			fi.emitLoc(i)
			fi.emit(wasm.I32Const(int32(in.MemOffset())), wasm.LocalGet(addr))
			fi.emitLowerLocal(t, val)
			fi.emitOpHook(op)

		case op.IsUnary():
			if !reachable || !fi.has(analysis.KindUnary) {
				fi.emit(in)
				return nil
			}
			ins, outs, _ := wasm.NumericSig(op)
			input := fi.scratch.take(ins[0])
			result := fi.scratch.take(outs[0])
			fi.emit(wasm.LocalTee(input), in, wasm.LocalTee(result))
			fi.emitLoc(i)
			fi.emitLowerLocal(ins[0], input)
			fi.emitLowerLocal(outs[0], result)
			fi.emitOpHook(op)

		case op.IsBinary():
			if !reachable || !fi.has(analysis.KindBinary) {
				fi.emit(in)
				return nil
			}
			ins, outs, _ := wasm.NumericSig(op)
			b := fi.scratch.take(ins[1])
			a := fi.scratch.take(ins[0])
			r := fi.scratch.take(outs[0])
			fi.emit(wasm.LocalSet(b), wasm.LocalTee(a), wasm.LocalGet(b), in, wasm.LocalTee(r))
			fi.emitLoc(i)
			fi.emitLowerLocal(ins[0], a)
			fi.emitLowerLocal(ins[1], b)
			fi.emitLowerLocal(outs[0], r)
			fi.emitOpHook(op)

		case op == wasm.OpMiscPrefix:
			// 0xFC instructions (saturating truncation, memory.copy/fill)
			// pass through unhooked: the low-level hook namespace is keyed
			// by single-byte opcode, and hooks never alter execution, so an
			// unhooked instruction preserves faithfulness — the differential
			// oracle pins the instrumented and plain semantics as equal.
			fi.emit(in)

		default:
			return fmt.Errorf("unhandled opcode %s", op)
		}
	}
	return nil
}

// emitReturnHook saves the function results into scratch locals, calls the
// (monomorphized) return hook, and restores the results. When implicit is
// true the hook fires for the implicit return at the function's final end.
func (fi *funcInstrumenter) emitReturnHook(i int, implicit bool) {
	results := fi.sig.Results
	saved := fi.savedScratch(len(results))
	for k := len(results) - 1; k >= 0; k-- {
		saved[k] = fi.scratch.take(results[k])
		fi.emit(wasm.LocalSet(saved[k]))
	}
	fi.emitLoc(i)
	for k, t := range results {
		fi.emitLowerLocal(t, saved[k])
	}
	fi.emitReturnHookCall()
	for k := range results {
		fi.emit(wasm.LocalGet(saved[k]))
	}
}

// emitCallHooks implements Table 3 row 3: save the arguments, call the
// monomorphized call_pre hook, restore the arguments, perform the call, then
// save/pass/restore the results through the call_post hook.
func (fi *funcInstrumenter) emitCallHooks(i int, in wasm.Instr, typeIdx uint32, indirect bool) {
	sig := fi.mod.Types[typeIdx]
	params := sig.Params

	var tblIdx uint32
	if indirect {
		tblIdx = fi.scratch.take(wasm.I32)
		fi.emit(wasm.LocalSet(tblIdx))
	}
	saved := fi.savedScratch(len(params))
	for k := len(params) - 1; k >= 0; k-- {
		saved[k] = fi.scratch.take(params[k])
		fi.emit(wasm.LocalSet(saved[k]))
	}

	// call_pre hook: (loc, target-or-tableIdx, args...).
	fi.emitLoc(i)
	if indirect {
		fi.emit(wasm.LocalGet(tblIdx))
	} else {
		fi.emit(wasm.I32Const(int32(in.Idx))) // original function index
	}
	for k, t := range params {
		fi.emitLowerLocal(t, saved[k])
	}
	fi.emitCallPreHook(typeIdx, sig, indirect)

	// Restore arguments and perform the original call.
	for k := range params {
		fi.emit(wasm.LocalGet(saved[k]))
	}
	if indirect {
		fi.emit(wasm.LocalGet(tblIdx))
		fi.emit(in) // call_indirect carries a type index, not a function index
	} else {
		fi.emitCall(in)
	}

	// call_post hook: (loc, results...). The arguments' saved slice is dead
	// by now (last use was the restore before the call), so the scratch
	// buffer can be reused for the results.
	results := sig.Results
	savedR := fi.savedScratch(len(results))
	for k := len(results) - 1; k >= 0; k-- {
		savedR[k] = fi.scratch.take(results[k])
		fi.emit(wasm.LocalSet(savedR[k]))
	}
	fi.emitLoc(i)
	for k, t := range results {
		fi.emitLowerLocal(t, savedR[k])
	}
	fi.emitCallPostHook(typeIdx, results)
	for k := range results {
		fi.emit(wasm.LocalGet(savedR[k]))
	}
}

func constTypeOf(op wasm.Opcode) (wasm.ValType, []wasm.ValType, bool) {
	_, outs, ok := wasm.NumericSig(op)
	if !ok || len(outs) != 1 {
		return 0, nil, false
	}
	return outs[0], outs, true
}

// copyUninstrumented passes a function body through without hooks (the
// static plan proved the function unreachable from exports/start). The body
// must still be copied — the remap pass rewrites call indices in place — and
// its direct calls recorded as call sites so that remapping happens.
func copyUninstrumented(orig []wasm.Instr) (body []wasm.Instr, extraLocals []wasm.ValType, brTables []BrTableInfo, callSites []uint32, err error) {
	body = make([]wasm.Instr, len(orig))
	copy(body, orig)
	for i := range body {
		if body[i].Op == wasm.OpCall {
			callSites = append(callSites, uint32(i))
		}
	}
	return body, nil, nil, callSites, nil
}

// controlMatches computes, for every block/loop/if instruction, the index of
// its matching end (and else, for ifs). It mirrors the interpreter's
// compile-time pass but lives here so the instrumenter has no dependency on
// the interpreter.
func controlMatches(body []wasm.Instr) (matchEnd, matchElse []int32, err error) {
	matchEnd, matchElse, _, err = controlMatchesInto(body, nil, nil, nil)
	return matchEnd, matchElse, err
}

// controlMatchesInto is controlMatches writing into caller-provided buffers
// (grown as needed), so a reused instrumenter computes the tables without
// allocating. stackBuf is scratch for the opener stack; its (possibly grown)
// backing array is returned for reuse.
func controlMatchesInto(body []wasm.Instr, endBuf, elseBuf []int32, stackBuf []int) (matchEnd, matchElse []int32, stackOut []int, err error) {
	if cap(endBuf) < len(body) {
		endBuf = make([]int32, len(body))
	}
	if cap(elseBuf) < len(body) {
		elseBuf = make([]int32, len(body))
	}
	matchEnd = endBuf[:len(body)]
	matchElse = elseBuf[:len(body)]
	for i := range body {
		matchEnd[i] = -1
		matchElse[i] = -1
	}
	stack := stackBuf[:0]
	sawFuncEnd := false
	for pc, in := range body {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			stack = append(stack, pc)
		case wasm.OpElse:
			if len(stack) == 0 {
				return nil, nil, nil, fmt.Errorf("core: else without if at instr %d", pc)
			}
			entry := stack[len(stack)-1]
			opener := entry & 0xFFFFFFFF
			if entry>>32 != 0 || body[opener].Op != wasm.OpIf {
				return nil, nil, nil, fmt.Errorf("core: else without if at instr %d", pc)
			}
			matchElse[opener] = int32(pc)
			stack[len(stack)-1] = opener | (pc << 32)
		case wasm.OpEnd:
			if len(stack) == 0 {
				if pc != len(body)-1 {
					return nil, nil, nil, fmt.Errorf("core: function-level end at instr %d is not final", pc)
				}
				sawFuncEnd = true
				continue
			}
			entry := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			opener := entry & 0xFFFFFFFF
			matchEnd[opener] = int32(pc)
			if elsePC := entry >> 32; elsePC != 0 {
				matchEnd[elsePC] = int32(pc)
			}
		}
	}
	if len(stack) != 0 {
		return nil, nil, nil, fmt.Errorf("core: %d unclosed blocks", len(stack))
	}
	if !sawFuncEnd {
		return nil, nil, nil, fmt.Errorf("core: missing function-level end")
	}
	return matchEnd, matchElse, stack, nil
}
