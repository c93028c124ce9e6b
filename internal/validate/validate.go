package validate

import (
	"fmt"

	"wasabi/internal/wasm"
)

// Module validates a whole module: section consistency, index ranges,
// constant expressions, and the type-correctness of every function body.
// It plays the role wasm-validate plays in the paper's RQ2 evaluation.
func Module(m *wasm.Module) error {
	ix := m.IndexSpace()
	if err := checkTypes(m); err != nil {
		return err
	}
	if err := checkImports(m); err != nil {
		return err
	}
	if err := checkTablesAndMemories(m); err != nil {
		return err
	}
	if err := checkGlobals(m, ix); err != nil {
		return err
	}
	if err := checkExports(m, ix); err != nil {
		return err
	}
	if err := checkStart(m, ix); err != nil {
		return err
	}
	if err := checkElems(m, ix); err != nil {
		return err
	}
	if err := checkDatas(m, ix); err != nil {
		return err
	}
	for i := range m.Funcs {
		if err := checkFunc(m, ix, i); err != nil {
			idx := ix.NumImportedFuncs + i
			return annotateFunc(err, idx, m.FuncName(uint32(idx)))
		}
	}
	return nil
}

// Func validates a single defined function body.
func Func(m *wasm.Module, definedIdx int) error {
	return checkFunc(m, m.IndexSpace(), definedIdx)
}

func checkTypes(m *wasm.Module) error {
	for i, ft := range m.Types {
		if len(ft.Results) > 1 {
			return fmt.Errorf("validate: type %d has %d results; MVP allows at most one", i, len(ft.Results))
		}
		for _, p := range ft.Params {
			if !p.Valid() {
				return fmt.Errorf("validate: type %d has invalid param type", i)
			}
		}
		for _, r := range ft.Results {
			if !r.Valid() {
				return fmt.Errorf("validate: type %d has invalid result type", i)
			}
		}
	}
	return nil
}

func checkImports(m *wasm.Module) error {
	for i, imp := range m.Imports {
		switch imp.Kind {
		case wasm.ExternFunc:
			if int(imp.TypeIdx) >= len(m.Types) {
				return fmt.Errorf("validate: import %d: type index %d out of range", i, imp.TypeIdx)
			}
		case wasm.ExternTable, wasm.ExternMemory, wasm.ExternGlobal:
		default:
			return fmt.Errorf("validate: import %d: unknown kind", i)
		}
	}
	return nil
}

func checkTablesAndMemories(m *wasm.Module) error {
	nt := len(m.Tables)
	nm := len(m.Memories)
	for _, imp := range m.Imports {
		switch imp.Kind {
		case wasm.ExternTable:
			nt++
		case wasm.ExternMemory:
			nm++
		}
	}
	if nt > 1 {
		return fmt.Errorf("validate: at most one table is allowed, have %d", nt)
	}
	if nm > 1 {
		return fmt.Errorf("validate: at most one memory is allowed, have %d", nm)
	}
	for _, l := range append(append([]wasm.Limits{}, m.Tables...), m.Memories...) {
		if l.HasMax && l.Max < l.Min {
			return fmt.Errorf("validate: limits max %d below min %d", l.Max, l.Min)
		}
	}
	return nil
}

func checkGlobals(m *wasm.Module, ix *wasm.IndexSpace) error {
	for i, g := range m.Globals {
		t, err := constExprType(ix, g.Init, true)
		if err != nil {
			return fmt.Errorf("validate: global %d init: %w", i, err)
		}
		if t != g.Type.Type {
			return fmt.Errorf("validate: global %d init type %s does not match declared %s", i, t, g.Type.Type)
		}
	}
	return nil
}

func checkExports(m *wasm.Module, ix *wasm.IndexSpace) error {
	seen := make(map[string]bool, len(m.Exports))
	for _, e := range m.Exports {
		if seen[e.Name] {
			return fmt.Errorf("validate: duplicate export name %q", e.Name)
		}
		seen[e.Name] = true
		switch e.Kind {
		case wasm.ExternFunc:
			if int(e.Idx) >= ix.NumFuncs() {
				return fmt.Errorf("validate: export %q: function index %d out of range", e.Name, e.Idx)
			}
		case wasm.ExternGlobal:
			if _, err := ix.GlobalType(e.Idx); err != nil {
				return fmt.Errorf("validate: export %q: %w", e.Name, err)
			}
		case wasm.ExternTable, wasm.ExternMemory:
			// With at most one of each, index 0 is the only valid value.
			if e.Idx != 0 {
				return fmt.Errorf("validate: export %q: index %d out of range", e.Name, e.Idx)
			}
		}
	}
	return nil
}

func checkStart(m *wasm.Module, ix *wasm.IndexSpace) error {
	if m.Start == nil {
		return nil
	}
	ft, err := ix.FuncType(*m.Start)
	if err != nil {
		return fmt.Errorf("validate: start: %w", err)
	}
	if len(ft.Params) != 0 || len(ft.Results) != 0 {
		return fmt.Errorf("validate: start function must have type []->[], has %s", ft)
	}
	return nil
}

func checkElems(m *wasm.Module, ix *wasm.IndexSpace) error {
	for i, e := range m.Elems {
		if e.TableIdx != 0 {
			return fmt.Errorf("validate: elem %d: table index %d out of range", i, e.TableIdx)
		}
		t, err := constExprType(ix, e.Offset, true)
		if err != nil {
			return fmt.Errorf("validate: elem %d offset: %w", i, err)
		}
		if t != wasm.I32 {
			return fmt.Errorf("validate: elem %d offset must be i32, is %s", i, t)
		}
		for _, f := range e.Funcs {
			if int(f) >= ix.NumFuncs() {
				return fmt.Errorf("validate: elem %d references function %d out of range", i, f)
			}
		}
	}
	return nil
}

func checkDatas(m *wasm.Module, ix *wasm.IndexSpace) error {
	for i, d := range m.Datas {
		if d.MemIdx != 0 {
			return fmt.Errorf("validate: data %d: memory index %d out of range", i, d.MemIdx)
		}
		t, err := constExprType(ix, d.Offset, true)
		if err != nil {
			return fmt.Errorf("validate: data %d offset: %w", i, err)
		}
		if t != wasm.I32 {
			return fmt.Errorf("validate: data %d offset must be i32, is %s", i, t)
		}
	}
	return nil
}

// constExprType checks a constant expression and returns its result type.
// Constant expressions are a single const or global.get of an (imported,
// immutable) global, terminated by end.
func constExprType(ix *wasm.IndexSpace, expr []wasm.Instr, importedOnly bool) (wasm.ValType, error) {
	if len(expr) != 2 || expr[1].Op != wasm.OpEnd {
		return 0, fmt.Errorf("must be a single constant instruction followed by end")
	}
	in := expr[0]
	switch in.Op {
	case wasm.OpI32Const:
		return wasm.I32, nil
	case wasm.OpI64Const:
		return wasm.I64, nil
	case wasm.OpF32Const:
		return wasm.F32, nil
	case wasm.OpF64Const:
		return wasm.F64, nil
	case wasm.OpGlobalGet:
		if importedOnly && int(in.Idx) >= ix.NumImportedGlobals {
			return 0, fmt.Errorf("global.get in constant expression may only reference imported globals")
		}
		gt, err := ix.GlobalType(in.Idx)
		if err != nil {
			return 0, err
		}
		if gt.Mutable {
			return 0, fmt.Errorf("global.get in constant expression must reference an immutable global")
		}
		return gt.Type, nil
	}
	return 0, fmt.Errorf("non-constant instruction %s", in.Op)
}

func checkFunc(m *wasm.Module, ix *wasm.IndexSpace, defined int) error {
	f := &m.Funcs[defined]
	if int(f.TypeIdx) >= len(m.Types) {
		return fmt.Errorf("validate: type index %d out of range", f.TypeIdx)
	}
	sig := m.Types[f.TypeIdx]
	tr := NewTracker(ix, sig, f.Locals, f.BrTargets)
	for i := range f.Body {
		if name, proposal, ok := wasm.UnsupportedInfo(f.Body[i]); ok {
			return &Error{FuncIdx: -1, Instr: i, Op: f.Body[i].Op,
				Err: &UnsupportedError{Name: name, Proposal: proposal}}
		}
		if err := tr.Step(f.Body[i]); err != nil {
			return &Error{FuncIdx: -1, Instr: i, Op: f.Body[i].Op, Err: err}
		}
	}
	if !tr.Done() {
		return fmt.Errorf("validate: function body has %d unclosed blocks", tr.Depth())
	}
	return nil
}
