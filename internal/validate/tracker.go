// Package validate implements WebAssembly validation: a full module
// validator and, at its heart, Tracker, an incremental implementation of the
// spec's abstract type-checking algorithm (value stack + control-frame
// stack). Tracker is shared with the Wasabi instrumenter, which needs to know
// stack-top types to monomorphize hooks for polymorphic instructions such as
// drop and select (paper §2.4.3), and block nesting to resolve branch labels
// (paper §2.4.4).
package validate

import (
	"fmt"

	"wasabi/internal/wasm"
)

// Unknown is the bottom type that appears on the abstract stack in
// unreachable code, where any value type can be conjured.
const Unknown wasm.ValType = 0

// ControlFrame describes one entry of the abstract control stack: a
// function, block, loop, if, or else construct currently open at this point
// of the instruction stream.
type ControlFrame struct {
	Op          wasm.Opcode // OpCall marks the implicit function-body frame
	StartTypes  []wasm.ValType
	EndTypes    []wasm.ValType
	Height      int  // value-stack height at frame entry
	Unreachable bool // set after br/return/unreachable inside this frame
}

// LabelTypes returns the types a branch to this frame must provide: the
// start types for loops (branch = backward jump to the loop header), the end
// types for everything else.
func (f *ControlFrame) LabelTypes() []wasm.ValType {
	if f.Op == wasm.OpLoop {
		return f.StartTypes
	}
	return f.EndTypes
}

// Tracker type-checks one function body instruction by instruction.
type Tracker struct {
	ix        *wasm.IndexSpace
	locals    []wasm.ValType // params followed by declared locals
	brTargets []uint32       // the function's br_table target pool
	vals      []wasm.ValType
	ctrl      []ControlFrame
}

// NewTracker prepares type checking of a function with the given signature
// and declared locals. The implicit function frame is pushed immediately.
// ix is the index space of the module the function belongs to (built once
// per module, see wasm.Module.IndexSpace). The brTargets pool is the
// function's br_table target pool (Func.BrTargets), needed to type-check
// br_table instructions.
func NewTracker(ix *wasm.IndexSpace, sig wasm.FuncType, locals []wasm.ValType, brTargets []uint32) *Tracker {
	t := &Tracker{}
	t.Reset(ix, sig, locals, brTargets)
	return t
}

// Reset reinitializes the tracker for another function body, reusing the
// locals, value-stack, and control-stack buffers. This keeps per-function
// type tracking allocation-free when a tracker is reused across the many
// functions of one instrumentation run.
func (t *Tracker) Reset(ix *wasm.IndexSpace, sig wasm.FuncType, locals []wasm.ValType, brTargets []uint32) {
	t.ix = ix
	t.locals = append(t.locals[:0], sig.Params...)
	t.locals = append(t.locals, locals...)
	t.brTargets = brTargets
	t.vals = t.vals[:0]
	t.ctrl = t.ctrl[:0]
	t.pushCtrl(wasm.OpCall, nil, sig.Results)
}

// Clear drops every module-derived reference (index space, locals, br_table
// pool, control-frame type slices) while keeping buffer capacity, so a
// pooled tracker does not keep a finished module reachable. Reset must be
// called before the tracker is used again.
func (t *Tracker) Clear() {
	t.ix = nil
	t.brTargets = nil
	t.locals = t.locals[:0]
	t.vals = t.vals[:0]
	clear(t.ctrl[:cap(t.ctrl)])
	t.ctrl = t.ctrl[:0]
}

// Done reports whether the body is complete (the implicit function frame has
// been popped by its final end instruction).
func (t *Tracker) Done() bool { return len(t.ctrl) == 0 }

// Depth returns the current control-stack depth (number of open frames).
func (t *Tracker) Depth() int { return len(t.ctrl) }

// Frame returns the control frame n levels from the top (0 = innermost).
func (t *Tracker) Frame(n int) (*ControlFrame, error) {
	if n >= len(t.ctrl) {
		return nil, fmt.Errorf("validate: branch label %d exceeds control depth %d", n, len(t.ctrl))
	}
	return &t.ctrl[len(t.ctrl)-1-n], nil
}

// UnreachableNow reports whether the current position is statically
// unreachable (dead code after br/return/unreachable within the innermost
// frame). The instrumenter skips hook insertion in unreachable code.
func (t *Tracker) UnreachableNow() bool {
	if len(t.ctrl) == 0 {
		return true
	}
	return t.ctrl[len(t.ctrl)-1].Unreachable
}

// Top returns the type of the value n entries from the top of the abstract
// stack (0 = top of stack). In unreachable code it returns Unknown.
func (t *Tracker) Top(n int) wasm.ValType {
	frame := &t.ctrl[len(t.ctrl)-1]
	if len(t.vals)-1-n < frame.Height {
		if frame.Unreachable {
			return Unknown
		}
		return Unknown // caller detects underflow via Step's error
	}
	return t.vals[len(t.vals)-1-n]
}

// LocalType returns the type of the local at idx (params included).
func (t *Tracker) LocalType(idx uint32) (wasm.ValType, error) {
	if int(idx) >= len(t.locals) {
		return 0, fmt.Errorf("validate: local index %d out of range (have %d)", idx, len(t.locals))
	}
	return t.locals[idx], nil
}

func (t *Tracker) pushVal(v wasm.ValType) { t.vals = append(t.vals, v) }

func (t *Tracker) popVal() (wasm.ValType, error) {
	frame := &t.ctrl[len(t.ctrl)-1]
	if len(t.vals) == frame.Height {
		if frame.Unreachable {
			return Unknown, nil
		}
		return 0, fmt.Errorf("validate: value stack underflow")
	}
	v := t.vals[len(t.vals)-1]
	t.vals = t.vals[:len(t.vals)-1]
	return v, nil
}

func (t *Tracker) popExpect(expect wasm.ValType) (wasm.ValType, error) {
	got, err := t.popVal()
	if err != nil {
		return 0, err
	}
	if got != expect && got != Unknown && expect != Unknown {
		return 0, fmt.Errorf("validate: type mismatch: expected %s, got %s", expect, got)
	}
	return got, nil
}

func (t *Tracker) popMany(expect []wasm.ValType) error {
	for i := len(expect) - 1; i >= 0; i-- {
		if _, err := t.popExpect(expect[i]); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tracker) pushMany(ts []wasm.ValType) {
	for _, v := range ts {
		t.pushVal(v)
	}
}

func (t *Tracker) pushCtrl(op wasm.Opcode, start, end []wasm.ValType) {
	t.ctrl = append(t.ctrl, ControlFrame{
		Op:         op,
		StartTypes: start,
		EndTypes:   end,
		Height:     len(t.vals),
	})
	t.pushMany(start)
}

func (t *Tracker) popCtrl() (ControlFrame, error) {
	if len(t.ctrl) == 0 {
		return ControlFrame{}, fmt.Errorf("validate: control stack underflow")
	}
	frame := t.ctrl[len(t.ctrl)-1]
	if err := t.popMany(frame.EndTypes); err != nil {
		return ControlFrame{}, err
	}
	if len(t.vals) != frame.Height {
		return ControlFrame{}, fmt.Errorf("validate: %d superfluous values at end of block", len(t.vals)-frame.Height)
	}
	t.ctrl = t.ctrl[:len(t.ctrl)-1]
	return frame, nil
}

func (t *Tracker) markUnreachable() {
	frame := &t.ctrl[len(t.ctrl)-1]
	t.vals = t.vals[:frame.Height]
	frame.Unreachable = true
}

// Step type-checks a single instruction and advances the abstract state.
func (t *Tracker) Step(in wasm.Instr) error {
	if len(t.ctrl) == 0 {
		return fmt.Errorf("validate: instruction %s after end of function body", in.Op)
	}
	op := in.Op

	// Fixed-signature numeric instructions (consts, comparisons, arithmetic,
	// conversions) are handled uniformly via the signature table.
	if ins, outs, ok := wasm.NumericSig(op); ok {
		if err := t.popMany(ins); err != nil {
			return fmt.Errorf("validate: %s: %w", op, err)
		}
		t.pushMany(outs)
		return nil
	}

	switch op {
	case wasm.OpNop:
	case wasm.OpUnreachable:
		t.markUnreachable()

	case wasm.OpBlock, wasm.OpLoop:
		t.pushCtrl(op, nil, in.Block.Results())
	case wasm.OpIf:
		if _, err := t.popExpect(wasm.I32); err != nil {
			return fmt.Errorf("validate: if condition: %w", err)
		}
		t.pushCtrl(op, nil, in.Block.Results())
	case wasm.OpElse:
		frame, err := t.popCtrl()
		if err != nil {
			return fmt.Errorf("validate: else: %w", err)
		}
		if frame.Op != wasm.OpIf {
			return fmt.Errorf("validate: else without matching if")
		}
		t.pushCtrl(wasm.OpElse, frame.StartTypes, frame.EndTypes)
	case wasm.OpEnd:
		frame, err := t.popCtrl()
		if err != nil {
			return fmt.Errorf("validate: end: %w", err)
		}
		if frame.Op == wasm.OpIf && len(frame.EndTypes) > 0 {
			return fmt.Errorf("validate: if with result type %v lacks an else arm", frame.EndTypes)
		}
		t.pushMany(frame.EndTypes)

	case wasm.OpBr:
		frame, err := t.Frame(int(in.Idx))
		if err != nil {
			return err
		}
		if err := t.popMany(frame.LabelTypes()); err != nil {
			return fmt.Errorf("validate: br: %w", err)
		}
		t.markUnreachable()
	case wasm.OpBrIf:
		if _, err := t.popExpect(wasm.I32); err != nil {
			return fmt.Errorf("validate: br_if condition: %w", err)
		}
		frame, err := t.Frame(int(in.Idx))
		if err != nil {
			return err
		}
		lt := frame.LabelTypes()
		if err := t.popMany(lt); err != nil {
			return fmt.Errorf("validate: br_if: %w", err)
		}
		t.pushMany(lt)
	case wasm.OpBrTable:
		if _, err := t.popExpect(wasm.I32); err != nil {
			return fmt.Errorf("validate: br_table index: %w", err)
		}
		dflt, err := t.Frame(int(in.Idx))
		if err != nil {
			return err
		}
		off, cnt := in.BrTableSpan()
		if off+cnt > len(t.brTargets) {
			return fmt.Errorf("validate: br_table target span exceeds pool (%d+%d > %d)", off, cnt, len(t.brTargets))
		}
		arity := len(dflt.LabelTypes())
		for _, target := range in.BrTargets(t.brTargets) {
			f, err := t.Frame(int(target))
			if err != nil {
				return err
			}
			if len(f.LabelTypes()) != arity {
				return fmt.Errorf("validate: br_table targets have inconsistent arity")
			}
		}
		if err := t.popMany(dflt.LabelTypes()); err != nil {
			return fmt.Errorf("validate: br_table: %w", err)
		}
		t.markUnreachable()
	case wasm.OpReturn:
		// Branch to the outermost (function) frame.
		frame := &t.ctrl[0]
		if err := t.popMany(frame.EndTypes); err != nil {
			return fmt.Errorf("validate: return: %w", err)
		}
		t.markUnreachable()

	case wasm.OpCall:
		ft, err := t.ix.FuncType(in.Idx)
		if err != nil {
			return err
		}
		if err := t.popMany(ft.Params); err != nil {
			return fmt.Errorf("validate: call %d: %w", in.Idx, err)
		}
		t.pushMany(ft.Results)
	case wasm.OpCallIndirect:
		if !t.ix.HasTable {
			return fmt.Errorf("validate: call_indirect requires a table")
		}
		if int(in.Idx) >= len(t.ix.Types) {
			return fmt.Errorf("validate: call_indirect type index %d out of range", in.Idx)
		}
		if _, err := t.popExpect(wasm.I32); err != nil {
			return fmt.Errorf("validate: call_indirect table index: %w", err)
		}
		ft := t.ix.Types[in.Idx]
		if err := t.popMany(ft.Params); err != nil {
			return fmt.Errorf("validate: call_indirect: %w", err)
		}
		t.pushMany(ft.Results)

	case wasm.OpDrop:
		if _, err := t.popVal(); err != nil {
			return fmt.Errorf("validate: drop: %w", err)
		}
	case wasm.OpSelect:
		if _, err := t.popExpect(wasm.I32); err != nil {
			return fmt.Errorf("validate: select condition: %w", err)
		}
		a, err := t.popVal()
		if err != nil {
			return fmt.Errorf("validate: select: %w", err)
		}
		b, err := t.popVal()
		if err != nil {
			return fmt.Errorf("validate: select: %w", err)
		}
		if a != b && a != Unknown && b != Unknown {
			return fmt.Errorf("validate: select operands differ: %s vs %s", a, b)
		}
		if a == Unknown {
			t.pushVal(b)
		} else {
			t.pushVal(a)
		}

	case wasm.OpLocalGet:
		lt, err := t.LocalType(in.Idx)
		if err != nil {
			return err
		}
		t.pushVal(lt)
	case wasm.OpLocalSet:
		lt, err := t.LocalType(in.Idx)
		if err != nil {
			return err
		}
		if _, err := t.popExpect(lt); err != nil {
			return fmt.Errorf("validate: local.set %d: %w", in.Idx, err)
		}
	case wasm.OpLocalTee:
		lt, err := t.LocalType(in.Idx)
		if err != nil {
			return err
		}
		if _, err := t.popExpect(lt); err != nil {
			return fmt.Errorf("validate: local.tee %d: %w", in.Idx, err)
		}
		t.pushVal(lt)
	case wasm.OpGlobalGet:
		gt, err := t.ix.GlobalType(in.Idx)
		if err != nil {
			return err
		}
		t.pushVal(gt.Type)
	case wasm.OpGlobalSet:
		gt, err := t.ix.GlobalType(in.Idx)
		if err != nil {
			return err
		}
		if !gt.Mutable {
			return fmt.Errorf("validate: global.set on immutable global %d", in.Idx)
		}
		if _, err := t.popExpect(gt.Type); err != nil {
			return fmt.Errorf("validate: global.set %d: %w", in.Idx, err)
		}

	case wasm.OpMemorySize:
		if err := t.requireMemory(); err != nil {
			return err
		}
		t.pushVal(wasm.I32)
	case wasm.OpMemoryGrow:
		if err := t.requireMemory(); err != nil {
			return err
		}
		if _, err := t.popExpect(wasm.I32); err != nil {
			return fmt.Errorf("validate: memory.grow: %w", err)
		}
		t.pushVal(wasm.I32)

	case wasm.OpMiscPrefix:
		// Only implemented subopcodes reach here: checkFunc rejects the
		// recognized-but-unimplemented ones with a typed, positioned
		// unsupported error before stepping the tracker.
		if from, to, ok := wasm.MiscTruncSatSig(in.Idx); ok {
			if _, err := t.popExpect(from); err != nil {
				return fmt.Errorf("validate: %s: %w", wasm.MiscName(in.Idx), err)
			}
			t.pushVal(to)
			return nil
		}
		switch in.Idx {
		case wasm.MiscMemoryCopy, wasm.MiscMemoryFill:
			// memory.copy: dst, src, len; memory.fill: dst, val, len — all i32.
			if err := t.requireMemory(); err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				if _, err := t.popExpect(wasm.I32); err != nil {
					return fmt.Errorf("validate: %s: %w", wasm.MiscName(in.Idx), err)
				}
			}
		default:
			return fmt.Errorf("validate: unhandled 0xfc subopcode %d", in.Idx)
		}

	default:
		switch {
		case op.IsLoad():
			if err := t.requireMemory(); err != nil {
				return err
			}
			vt, size := op.LoadStoreType()
			if err := checkAlign(in.MemAlign(), size, op); err != nil {
				return err
			}
			if _, err := t.popExpect(wasm.I32); err != nil {
				return fmt.Errorf("validate: %s address: %w", op, err)
			}
			t.pushVal(vt)
		case op.IsStore():
			if err := t.requireMemory(); err != nil {
				return err
			}
			vt, size := op.LoadStoreType()
			if err := checkAlign(in.MemAlign(), size, op); err != nil {
				return err
			}
			if _, err := t.popExpect(vt); err != nil {
				return fmt.Errorf("validate: %s value: %w", op, err)
			}
			if _, err := t.popExpect(wasm.I32); err != nil {
				return fmt.Errorf("validate: %s address: %w", op, err)
			}
		default:
			return fmt.Errorf("validate: unhandled opcode %s", op)
		}
	}
	return nil
}

func (t *Tracker) requireMemory() error {
	if t.ix.HasMemory {
		return nil
	}
	return fmt.Errorf("validate: memory instruction without a memory")
}

func checkAlign(align, size uint32, op wasm.Opcode) error {
	// align is log2 of the alignment and must not exceed the natural one.
	natural := uint32(0)
	for s := size; s > 1; s >>= 1 {
		natural++
	}
	if align > natural {
		return fmt.Errorf("validate: %s alignment 2^%d exceeds natural alignment %d", op, align, size)
	}
	return nil
}
