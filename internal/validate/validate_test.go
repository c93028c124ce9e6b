package validate

import (
	"strings"
	"testing"

	"wasabi/internal/wasm"
)

// testBrPool is the shared br_table target pool of test bodies: entries
// [0:2] = {0, 1} and [2:3] = {1}.
var (
	testBrPool  []uint32
	brTable01   = wasm.AppendBrTable(&testBrPool, []uint32{0, 1}, 0)
	brTable1of2 = wasm.AppendBrTable(&testBrPool, []uint32{1}, 0)
)

// mod wraps a single function body (type [i32] -> [i32], one extra f64
// local) into a minimal module with memory, table, and a global.
func mod(body ...wasm.Instr) *wasm.Module {
	return &wasm.Module{
		Types: []wasm.FuncType{
			{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}},
			{}, // [] -> []
		},
		Funcs: []wasm.Func{
			{TypeIdx: 0, Locals: []wasm.ValType{wasm.F64}, Body: body, BrTargets: testBrPool},
			{TypeIdx: 1, Body: []wasm.Instr{wasm.End()}},
		},
		Tables:   []wasm.Limits{{Min: 1}},
		Memories: []wasm.Limits{{Min: 1}},
		Globals: []wasm.Global{
			{Type: wasm.GlobalType{Type: wasm.I64, Mutable: true}, Init: []wasm.Instr{wasm.I64ConstInstr(0), wasm.End()}},
			{Type: wasm.GlobalType{Type: wasm.F32}, Init: []wasm.Instr{wasm.F32ConstInstr(1), wasm.End()}},
		},
	}
}

func TestValidBodies(t *testing.T) {
	cases := map[string][]wasm.Instr{
		"identity": {wasm.LocalGet(0), wasm.End()},
		"arith": {
			wasm.LocalGet(0), wasm.I32Const(1), wasm.Op1(wasm.OpI32Add), wasm.End(),
		},
		"block result": {
			wasm.BlockInstr(wasm.BlockType(wasm.I32)),
			wasm.LocalGet(0),
			wasm.End(),
			wasm.End(),
		},
		"if else": {
			wasm.LocalGet(0),
			wasm.IfInstr(wasm.BlockType(wasm.I32)),
			wasm.I32Const(1),
			{Op: wasm.OpElse},
			wasm.I32Const(2),
			wasm.End(),
			wasm.End(),
		},
		"loop with br_if": {
			wasm.BlockInstr(wasm.BlockEmpty),
			wasm.LoopInstr(wasm.BlockEmpty),
			wasm.LocalGet(0),
			wasm.BrIf(1),
			wasm.Br(0),
			wasm.End(),
			wasm.End(),
			wasm.LocalGet(0),
			wasm.End(),
		},
		"dead code after br is polymorphic": {
			wasm.BlockInstr(wasm.BlockEmpty),
			wasm.Br(0),
			// Unreachable: drop of a conjured value is fine.
			wasm.Op1(wasm.OpDrop),
			wasm.Op1(wasm.OpI32Add),
			wasm.Op1(wasm.OpDrop),
			wasm.End(),
			wasm.LocalGet(0),
			wasm.End(),
		},
		"return then junk": {
			wasm.LocalGet(0), wasm.Op1(wasm.OpReturn),
			wasm.Op1(wasm.OpF64Add), wasm.Op1(wasm.OpDrop),
			wasm.End(),
		},
		"unreachable satisfies any result": {
			wasm.Op1(wasm.OpUnreachable),
			wasm.End(),
		},
		"select same types": {
			wasm.LocalGet(0), wasm.LocalGet(0), wasm.LocalGet(0),
			wasm.Op1(wasm.OpSelect),
			wasm.End(),
		},
		"globals": {
			wasm.GlobalGet(0), wasm.I64ConstInstr(1), wasm.Op1(wasm.OpI64Add), wasm.GlobalSet(0),
			wasm.LocalGet(0), wasm.End(),
		},
		"memory": {
			wasm.I32Const(0), wasm.MemInstr(wasm.OpI32Load, 2, 0),
			wasm.End(),
		},
		"br_table": {
			wasm.BlockInstr(wasm.BlockEmpty),
			wasm.BlockInstr(wasm.BlockEmpty),
			wasm.LocalGet(0),
			brTable01,
			wasm.End(),
			wasm.End(),
			wasm.LocalGet(0),
			wasm.End(),
		},
		"call and call_indirect": {
			wasm.Call(1),
			wasm.I32Const(0),
			{Op: wasm.OpCallIndirect, Idx: 1},
			wasm.LocalGet(0),
			wasm.End(),
		},
	}
	for name, body := range cases {
		if err := Module(mod(body...)); err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
}

func TestInvalidBodies(t *testing.T) {
	cases := map[string]struct {
		body []wasm.Instr
		want string
	}{
		"missing result":    {[]wasm.Instr{wasm.End()}, "underflow"},
		"wrong result type": {[]wasm.Instr{wasm.F64ConstInstr(1), wasm.End()}, "type mismatch"},
		"stack underflow":   {[]wasm.Instr{wasm.Op1(wasm.OpI32Add), wasm.End()}, "underflow"},
		"operand type": {
			[]wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.Op1(wasm.OpI32Add), wasm.End()},
			"type mismatch",
		},
		"bad label": {
			[]wasm.Instr{wasm.Br(2), wasm.End()},
			"label",
		},
		"superfluous value": {
			[]wasm.Instr{wasm.I32Const(1), wasm.I32Const(2), wasm.I32Const(3),
				wasm.Op1(wasm.OpDrop), wasm.Op1(wasm.OpDrop), wasm.I32Const(4), wasm.End()},
			"superfluous",
		},
		"select mixed types": {
			[]wasm.Instr{wasm.LocalGet(0), wasm.LocalGet(1), wasm.LocalGet(0),
				wasm.Op1(wasm.OpSelect), wasm.End()},
			"select",
		},
		"set immutable global": {
			[]wasm.Instr{wasm.F32ConstInstr(0), wasm.GlobalSet(1), wasm.LocalGet(0), wasm.End()},
			"immutable",
		},
		"bad local index": {
			[]wasm.Instr{wasm.LocalGet(9), wasm.End()},
			"local index",
		},
		"if without else needing result": {
			[]wasm.Instr{wasm.LocalGet(0), wasm.IfInstr(wasm.BlockType(wasm.I32)),
				wasm.I32Const(1), wasm.End(), wasm.End()},
			"else",
		},
		"else without if": {
			[]wasm.Instr{wasm.BlockInstr(wasm.BlockEmpty), {Op: wasm.OpElse}, wasm.End(),
				wasm.LocalGet(0), wasm.End()},
			"else",
		},
		"unclosed block": {
			[]wasm.Instr{wasm.BlockInstr(wasm.BlockEmpty), wasm.LocalGet(0), wasm.Op1(wasm.OpDrop)},
			"unclosed",
		},
		"br_table arity mismatch": {
			[]wasm.Instr{
				wasm.BlockInstr(wasm.BlockType(wasm.I32)),
				wasm.BlockInstr(wasm.BlockEmpty),
				wasm.LocalGet(0),
				brTable1of2,
				wasm.End(),
				wasm.LocalGet(0),
				wasm.End(),
				wasm.End(),
			},
			"arity",
		},
		"over-aligned load": {
			[]wasm.Instr{wasm.I32Const(0), wasm.MemInstr(wasm.OpI32Load, 5, 0),
				wasm.End()},
			"alignment",
		},
	}
	for name, c := range cases {
		err := Module(mod(c.body...))
		if err == nil {
			t.Errorf("%s: expected error", name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
}

func TestModuleLevelChecks(t *testing.T) {
	base := func() *wasm.Module { return mod(wasm.LocalGet(0), wasm.End()) }

	t.Run("duplicate export", func(t *testing.T) {
		m := base()
		m.Exports = []wasm.Export{
			{Name: "x", Kind: wasm.ExternFunc, Idx: 0},
			{Name: "x", Kind: wasm.ExternFunc, Idx: 1},
		}
		if err := Module(m); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("two memories", func(t *testing.T) {
		m := base()
		m.Memories = append(m.Memories, wasm.Limits{Min: 1})
		if err := Module(m); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("start with params", func(t *testing.T) {
		m := base()
		s := uint32(0) // type [i32]->[i32]
		m.Start = &s
		if err := Module(m); err == nil || !strings.Contains(err.Error(), "start") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("global init type mismatch", func(t *testing.T) {
		m := base()
		m.Globals[0].Init = []wasm.Instr{wasm.I32Const(1), wasm.End()}
		if err := Module(m); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("global init referencing defined global", func(t *testing.T) {
		m := base()
		m.Globals[1].Init = []wasm.Instr{wasm.GlobalGet(0), wasm.End()}
		if err := Module(m); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("elem function out of range", func(t *testing.T) {
		m := base()
		m.Elems = []wasm.ElemSegment{{Offset: []wasm.Instr{wasm.I32Const(0), wasm.End()}, Funcs: []uint32{99}}}
		if err := Module(m); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("multi-result type", func(t *testing.T) {
		m := base()
		m.Types = append(m.Types, wasm.FuncType{Results: []wasm.ValType{wasm.I32, wasm.I32}})
		if err := Module(m); err == nil || !strings.Contains(err.Error(), "results") {
			t.Errorf("got %v", err)
		}
	})
}

// TestTrackerTopAndUnreachable covers the introspection the instrumenter
// depends on.
func TestTrackerTopAndUnreachable(t *testing.T) {
	m := mod(wasm.LocalGet(0), wasm.End())
	tr := NewTracker(m.IndexSpace(), m.Types[0], m.Funcs[0].Locals, m.Funcs[0].BrTargets)
	step := func(in wasm.Instr) {
		t.Helper()
		if err := tr.Step(in); err != nil {
			t.Fatalf("step %s: %v", in, err)
		}
	}
	step(wasm.I32Const(1))
	step(wasm.F64ConstInstr(2))
	if got := tr.Top(0); got != wasm.F64 {
		t.Errorf("Top(0) = %s", got)
	}
	if got := tr.Top(1); got != wasm.I32 {
		t.Errorf("Top(1) = %s", got)
	}
	if tr.UnreachableNow() {
		t.Error("should be reachable")
	}
	step(wasm.Op1(wasm.OpDrop))
	step(wasm.Op1(wasm.OpReturn))
	if !tr.UnreachableNow() {
		t.Error("should be unreachable after return")
	}
	if got := tr.Top(0); got != Unknown {
		t.Errorf("Top in dead code = %s, want Unknown", got)
	}
	step(wasm.End())
	if !tr.Done() {
		t.Error("tracker should be done")
	}
}
