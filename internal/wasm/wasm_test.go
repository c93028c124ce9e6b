package wasm

import (
	"fmt"
	"testing"
)

func TestOpcodeClassification(t *testing.T) {
	// Every known opcode must fall into exactly one instrumentation class
	// (the partition the instrumenter relies on).
	classes := func(op Opcode) []string {
		var cs []string
		if op.IsLoad() {
			cs = append(cs, "load")
		}
		if op.IsStore() {
			cs = append(cs, "store")
		}
		if op.IsConst() {
			cs = append(cs, "const")
		}
		if op.IsUnary() {
			cs = append(cs, "unary")
		}
		if op.IsBinary() {
			cs = append(cs, "binary")
		}
		return cs
	}
	for op := Opcode(0); op < 0xC0; op++ {
		if !op.Known() {
			continue
		}
		if cs := classes(op); len(cs) > 1 {
			t.Errorf("%s is in multiple classes: %v", op, cs)
		}
	}
	// Spot checks.
	if !OpI32Load8S.IsLoad() || OpI32Store.IsLoad() {
		t.Error("load classification wrong")
	}
	if !OpI64Store32.IsStore() || OpI64Load32S.IsStore() {
		t.Error("store classification wrong")
	}
	if !OpI32Eqz.IsUnary() || !OpF64PromoteF32.IsUnary() || OpI32Eq.IsUnary() {
		t.Error("unary classification wrong")
	}
	if !OpI32Add.IsBinary() || !OpF64Ge.IsBinary() || OpI32Clz.IsBinary() {
		t.Error("binary classification wrong")
	}
}

func TestNumericSigCoversAllNumerics(t *testing.T) {
	count := 0
	for op := Opcode(0x41); op <= Opcode(0xBF); op++ {
		if !op.Known() {
			t.Errorf("gap in numeric opcode space at 0x%02x", byte(op))
			continue
		}
		in, out, ok := NumericSig(op)
		if !ok {
			t.Errorf("NumericSig missing for %s", op)
			continue
		}
		count++
		if len(out) != 1 {
			t.Errorf("%s should produce exactly one value, got %d", op, len(out))
		}
		if op.IsConst() && len(in) != 0 {
			t.Errorf("%s should take no operands", op)
		}
		if op.IsUnary() && len(in) != 1 {
			t.Errorf("%s should take one operand", op)
		}
		if op.IsBinary() && len(in) != 2 {
			t.Errorf("%s should take two operands", op)
		}
	}
	// 4 consts + 123 numeric instructions (the paper's count: "123 numeric
	// instructions alone").
	if count != 127 {
		t.Errorf("expected 127 fixed-signature opcodes (4 const + 123 numeric), got %d", count)
	}
}

func TestLoadStoreTypes(t *testing.T) {
	cases := []struct {
		op   Opcode
		t    ValType
		size uint32
	}{
		{OpI32Load, I32, 4}, {OpI64Load, I64, 8}, {OpF32Load, F32, 4}, {OpF64Load, F64, 8},
		{OpI32Load8S, I32, 1}, {OpI32Load16U, I32, 2},
		{OpI64Load8U, I64, 1}, {OpI64Load16S, I64, 2}, {OpI64Load32U, I64, 4},
		{OpI32Store8, I32, 1}, {OpI64Store32, I64, 4}, {OpF64Store, F64, 8},
	}
	for _, c := range cases {
		vt, size := c.op.LoadStoreType()
		if vt != c.t || size != c.size {
			t.Errorf("%s: got (%s, %d), want (%s, %d)", c.op, vt, size, c.t, c.size)
		}
	}
}

func TestFuncTypeEqualAndKey(t *testing.T) {
	a := FuncType{Params: []ValType{I32, F64}, Results: []ValType{I64}}
	b := FuncType{Params: []ValType{I32, F64}, Results: []ValType{I64}}
	c := FuncType{Params: []ValType{I32}, Results: []ValType{I64}}
	if !a.Equal(b) || a.Equal(c) {
		t.Error("FuncType.Equal wrong")
	}
	if a.Key() == c.Key() {
		t.Error("distinct types must have distinct keys")
	}
	if a.String() != "[i32 f64] -> [i64]" {
		t.Errorf("String: %s", a.String())
	}
}

func TestModuleIndexSpaces(t *testing.T) {
	m := &Module{
		Types: []FuncType{
			{Results: []ValType{I32}},
			{Params: []ValType{F64}},
		},
		Imports: []Import{
			{Module: "env", Name: "f", Kind: ExternFunc, TypeIdx: 0},
			{Module: "env", Name: "g", Kind: ExternGlobal, Global: GlobalType{Type: I64}},
			{Module: "env", Name: "h", Kind: ExternFunc, TypeIdx: 1},
		},
		Funcs:   []Func{{TypeIdx: 1}},
		Globals: []Global{{Type: GlobalType{Type: F32, Mutable: true}}},
	}
	if got := m.NumImportedFuncs(); got != 2 {
		t.Errorf("NumImportedFuncs = %d", got)
	}
	if got := m.NumFuncs(); got != 3 {
		t.Errorf("NumFuncs = %d", got)
	}
	ix := m.IndexSpace()
	if ix.NumImportedFuncs != 2 || ix.NumFuncs() != 3 || ix.NumImportedGlobals != 1 || ix.NumGlobals() != 2 {
		t.Errorf("IndexSpace counts = %d/%d funcs, %d/%d globals", ix.NumImportedFuncs, ix.NumFuncs(), ix.NumImportedGlobals, ix.NumGlobals())
	}
	ft, err := ix.FuncType(2) // the defined function
	if err != nil || len(ft.Params) != 1 || ft.Params[0] != F64 {
		t.Errorf("FuncType(2) = %v, %v", ft, err)
	}
	if _, err := ix.FuncType(3); err == nil {
		t.Error("FuncType(3) should fail")
	}
	gt, err := ix.GlobalType(0) // imported
	if err != nil || gt.Type != I64 {
		t.Errorf("GlobalType(0) = %v, %v", gt, err)
	}
	gt, err = ix.GlobalType(1) // defined
	if err != nil || gt.Type != F32 || !gt.Mutable {
		t.Errorf("GlobalType(1) = %v, %v", gt, err)
	}
	if name := m.FuncName(0); name != "env.f" {
		t.Errorf("FuncName(0) = %q", name)
	}
	if name := m.FuncName(2); name != "func2" {
		t.Errorf("FuncName(2) = %q", name)
	}
}

func TestAddTypeInterning(t *testing.T) {
	m := &Module{}
	a := m.AddType(FuncType{Params: []ValType{I32}})
	b := m.AddType(FuncType{Params: []ValType{I64}})
	c := m.AddType(FuncType{Params: []ValType{I32}})
	if a == b || a != c {
		t.Errorf("interning broken: a=%d b=%d c=%d", a, b, c)
	}
	if len(m.Types) != 2 {
		t.Errorf("expected 2 interned types, got %d", len(m.Types))
	}
}

func TestConstValue(t *testing.T) {
	if v := I32Const(-1).ConstValue(); v != 0xFFFFFFFF {
		t.Errorf("i32.const -1 bits = %#x", v)
	}
	if v := I64ConstInstr(-1).ConstValue(); v != 0xFFFFFFFFFFFFFFFF {
		t.Errorf("i64.const -1 bits = %#x", v)
	}
	if v := F32ConstInstr(1.0).ConstValue(); v != 0x3F800000 {
		t.Errorf("f32.const 1.0 bits = %#x", v)
	}
	if v := F64ConstInstr(1.0).ConstValue(); v != 0x3FF0000000000000 {
		t.Errorf("f64.const 1.0 bits = %#x", v)
	}
}

func TestBlockType(t *testing.T) {
	if got := BlockEmpty.Results(); len(got) != 0 {
		t.Errorf("empty block has results %v", got)
	}
	if got := BlockType(I32).Results(); len(got) != 1 || got[0] != I32 {
		t.Errorf("i32 block results %v", got)
	}
}

func TestInstrString(t *testing.T) {
	cases := map[string]Instr{
		"i32.const 42":              I32Const(42),
		"local.tee 5":               LocalTee(5),
		"local.get 3":               LocalGet(3),
		"i32.load offset=8 align=2": MemInstr(OpI32Load, 2, 8),
		"call 7":                    Call(7),
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}

	var pool []uint32
	bt := AppendBrTable(&pool, []uint32{1, 2}, 0)
	if got := bt.StringWithPool(pool); got != "br_table 1 2 0" {
		t.Errorf("br_table StringWithPool = %q", got)
	}
	if got := bt.String(); got != "br_table [2 targets] 0" {
		t.Errorf("br_table String = %q", got)
	}
}

// scanFuncTypeIdx and scanGlobalType are the linear scans of the import
// vector that IndexSpace replaces, kept here as the reference it must agree
// with.
func scanFuncTypeIdx(m *Module, funcIdx uint32) (uint32, bool) {
	i := funcIdx
	for _, imp := range m.Imports {
		if imp.Kind != ExternFunc {
			continue
		}
		if i == 0 {
			return imp.TypeIdx, true
		}
		i--
	}
	if int(i) < len(m.Funcs) {
		return m.Funcs[i].TypeIdx, true
	}
	return 0, false
}

func scanGlobalType(m *Module, globalIdx uint32) (GlobalType, bool) {
	i := globalIdx
	for _, imp := range m.Imports {
		if imp.Kind != ExternGlobal {
			continue
		}
		if i == 0 {
			return imp.Global, true
		}
		i--
	}
	if int(i) < len(m.Globals) {
		return m.Globals[i].Type, true
	}
	return GlobalType{}, false
}

// TestIndexSpaceInterleavedImports resolves every function and global index
// of a module whose imports interleave all four kinds, against the linear
// scan, and checks that out-of-range indices (including one whose type index
// is itself out of range) fail.
func TestIndexSpaceInterleavedImports(t *testing.T) {
	m := &Module{
		Types: []FuncType{
			{Params: []ValType{I32}},
			{Results: []ValType{F64}},
			{Params: []ValType{I64, I64}, Results: []ValType{I64}},
		},
		Imports: []Import{
			{Module: "env", Name: "f0", Kind: ExternFunc, TypeIdx: 2},
			{Module: "env", Name: "g0", Kind: ExternGlobal, Global: GlobalType{Type: I32}},
			{Module: "env", Name: "mem", Kind: ExternMemory, Mem: Limits{Min: 1}},
			{Module: "env", Name: "f1", Kind: ExternFunc, TypeIdx: 0},
			{Module: "env", Name: "tbl", Kind: ExternTable, Table: Limits{Min: 4}},
			{Module: "env", Name: "g1", Kind: ExternGlobal, Global: GlobalType{Type: F64, Mutable: true}},
		},
		Funcs: []Func{{TypeIdx: 1}, {TypeIdx: 2}, {TypeIdx: 7}}, // the last has a bad type index
		Globals: []Global{
			{Type: GlobalType{Type: I64}},
			{Type: GlobalType{Type: F32, Mutable: true}},
		},
	}
	ix := m.IndexSpace()
	if ix.NumImportedFuncs != 2 || ix.NumImportedGlobals != 2 || !ix.HasTable || !ix.HasMemory {
		t.Fatalf("IndexSpace = %d imported funcs, %d imported globals, table %v, memory %v",
			ix.NumImportedFuncs, ix.NumImportedGlobals, ix.HasTable, ix.HasMemory)
	}
	if ix.NumFuncs() != m.NumFuncs() || ix.NumGlobals() != m.NumImportedGlobals()+len(m.Globals) {
		t.Fatalf("IndexSpace sizes %d funcs, %d globals", ix.NumFuncs(), ix.NumGlobals())
	}
	for idx := uint32(0); idx < 8; idx++ {
		want, ok := scanFuncTypeIdx(m, idx)
		got, err := ix.FuncTypeIdx(idx)
		if ok != (err == nil) || got != want {
			t.Errorf("FuncTypeIdx(%d) = %d, %v; scan gives %d, %v", idx, got, err, want, ok)
		}
		ft, err := ix.FuncType(idx)
		switch {
		case !ok:
			if want := fmt.Sprintf("wasm: function index %d out of range (have 5)", idx); err == nil || err.Error() != want {
				t.Errorf("FuncType(%d) error = %v, want %q", idx, err, want)
			}
		case int(want) >= len(m.Types):
			if want := fmt.Sprintf("wasm: type index %d out of range (have 3)", want); err == nil || err.Error() != want {
				t.Errorf("FuncType(%d) error = %v, want %q", idx, err, want)
			}
		case err != nil || !ft.Equal(m.Types[want]):
			t.Errorf("FuncType(%d) = %v, %v; want %v", idx, ft, err, m.Types[want])
		}
	}
	for idx := uint32(0); idx < 8; idx++ {
		want, ok := scanGlobalType(m, idx)
		got, err := ix.GlobalType(idx)
		if ok != (err == nil) || got != want {
			t.Errorf("GlobalType(%d) = %v, %v; scan gives %v, %v", idx, got, err, want, ok)
		}
		if !ok && (err == nil || err.Error() != fmt.Sprintf("wasm: global index %d out of range", idx)) {
			t.Errorf("GlobalType(%d) error = %v", idx, err)
		}
	}
	if _, err := ix.FuncTypeIdx(^uint32(0)); err == nil {
		t.Error("FuncTypeIdx(MaxUint32) should fail")
	}
	if _, err := ix.GlobalType(^uint32(0)); err == nil {
		t.Error("GlobalType(MaxUint32) should fail")
	}
}

// TestOpcodeTablesMatchMaps pins the dense lookup tables to the maps they
// are built from, for every opcode byte and every subopcode up to 255.
func TestOpcodeTablesMatchMaps(t *testing.T) {
	for b := 0; b < 256; b++ {
		op := Opcode(b)
		_, named := opNames[op]
		if op.Known() != named {
			t.Errorf("Opcode(0x%02x).Known() = %v, opNames has it: %v", b, op.Known(), named)
		}
		mi, known := miscInstrs[uint32(b)]
		if MiscKnown(uint32(b)) != known {
			t.Errorf("MiscKnown(%d) = %v, miscInstrs has it: %v", b, MiscKnown(uint32(b)), known)
		}
		if MiscSupported(uint32(b)) != mi.supported {
			t.Errorf("MiscSupported(%d) = %v, want %v", b, MiscSupported(uint32(b)), mi.supported)
		}
	}
	if OpMiscPrefix.Known() {
		t.Error("the 0xFC prefix must not be Known")
	}
	if MiscKnown(^uint32(0)) || MiscSupported(^uint32(0)) {
		t.Error("subopcode MaxUint32 must be neither known nor supported")
	}
}

// TestFuncNameList pins the one-pass name list to FuncName for every index:
// name-section entries win over import names, unnamed defined functions get
// the numeric placeholder, and a name for an index outside the space is
// ignored.
func TestFuncNameList(t *testing.T) {
	m := &Module{
		Imports: []Import{
			{Module: "env", Name: "f0", Kind: ExternFunc},
			{Module: "env", Name: "mem", Kind: ExternMemory, Mem: Limits{Min: 1}},
			{Module: "env", Name: "f1", Kind: ExternFunc},
		},
		Funcs:     []Func{{}, {}, {}},
		FuncNames: map[uint32]string{1: "renamed", 3: "main", 9: "stale"},
	}
	names := m.FuncNameList()
	if len(names) != m.NumFuncs() {
		t.Fatalf("FuncNameList has %d names, want %d", len(names), m.NumFuncs())
	}
	for i, got := range names {
		if want := m.FuncName(uint32(i)); got != want {
			t.Errorf("name %d = %q, FuncName gives %q", i, got, want)
		}
	}
	if want := []string{"env.f0", "renamed", "func2", "main", "func4"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("FuncNameList = %q, want %q", names, want)
	}
}
