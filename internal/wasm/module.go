package wasm

import "fmt"

// Module is the AST of a WebAssembly module (one binary file): types,
// imports, functions, at most one table and memory, globals, exports, an
// optional start function, element and data segments, and custom sections.
type Module struct {
	Types    []FuncType
	Imports  []Import
	Funcs    []Func // functions defined in this module (after imported ones in the index space)
	Tables   []Limits
	Memories []Limits
	Globals  []Global
	Exports  []Export
	Start    *uint32
	Elems    []ElemSegment
	Datas    []DataSegment

	// FuncNames holds the contents of the "name" custom section's function
	// name subsection, keyed by function index. Optional.
	FuncNames map[uint32]string

	// Customs preserves custom sections other than "name" byte-for-byte.
	Customs []CustomSection
}

// Import declares an external dependency. Exactly one of the typed
// descriptor fields is meaningful, selected by Kind.
type Import struct {
	Module string
	Name   string
	Kind   ExternKind

	TypeIdx uint32     // Kind == ExternFunc: index into Types
	Table   Limits     // Kind == ExternTable
	Mem     Limits     // Kind == ExternMemory
	Global  GlobalType // Kind == ExternGlobal
}

// Func is a function defined inside the module.
type Func struct {
	TypeIdx uint32
	Locals  []ValType // declared locals, excluding parameters
	Body    []Instr   // terminated by an explicit end instruction

	// BrTargets is the pool of br_table (non-default) target labels for this
	// function's body: each br_table instruction stores a span into it (see
	// Instr.BrTableSpan). Keeping the lists out of Instr makes instructions
	// pointer-free, which the instrumenter's throughput depends on. The pool
	// is append-only and may be shared between functions with identical
	// bodies (e.g. a function and its instrumented copy).
	BrTargets []uint32
}

// Global is a global variable with a constant initializer expression.
type Global struct {
	Type GlobalType
	Init []Instr // constant expression, terminated by end
}

// Export makes a function, table, memory, or global visible to the host.
type Export struct {
	Name string
	Kind ExternKind
	Idx  uint32
}

// ElemSegment initializes a range of the table with function indices.
type ElemSegment struct {
	TableIdx uint32
	Offset   []Instr // constant expression
	Funcs    []uint32
}

// DataSegment initializes a range of linear memory.
type DataSegment struct {
	MemIdx uint32
	Offset []Instr // constant expression
	Data   []byte
}

// CustomSection is an uninterpreted custom section.
type CustomSection struct {
	Name string
	Data []byte
}

// NumImportedFuncs returns the number of imported functions, i.e. the index
// of the first defined function in the function index space.
func (m *Module) NumImportedFuncs() int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == ExternFunc {
			n++
		}
	}
	return n
}

// NumImportedGlobals returns the number of imported globals.
func (m *Module) NumImportedGlobals() int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == ExternGlobal {
			n++
		}
	}
	return n
}

// NumFuncs returns the total size of the function index space.
func (m *Module) NumFuncs() int { return m.NumImportedFuncs() + len(m.Funcs) }

// IndexSpace is a module's function and global index spaces (imports first,
// then definitions) resolved in one pass over the imports, so that resolving
// an index is a bounds check and a slice load instead of a scan of the
// import vector. Passes that resolve indices per instruction (validation,
// instrumentation, static analysis, the interpreter's compile pass) build it
// once at their start.
//
// It is a snapshot: it reflects the module's types, imports, functions and
// globals when IndexSpace was called, and must not be used on a module that
// has been mutated since.
type IndexSpace struct {
	Types              []FuncType // the type section at build time
	NumImportedFuncs   int
	NumImportedGlobals int
	HasTable           bool // a table is imported or defined
	HasMemory          bool // a memory is imported or defined

	funcTypes []uint32     // type index per function index
	globals   []GlobalType // type per global index
}

// IndexSpace resolves m's function and global index spaces.
func (m *Module) IndexSpace() *IndexSpace {
	ix := &IndexSpace{
		Types:     m.Types,
		HasTable:  len(m.Tables) > 0,
		HasMemory: len(m.Memories) > 0,
		funcTypes: make([]uint32, 0, len(m.Imports)+len(m.Funcs)),
		globals:   make([]GlobalType, 0, len(m.Globals)),
	}
	for i := range m.Imports {
		imp := &m.Imports[i]
		switch imp.Kind {
		case ExternFunc:
			ix.funcTypes = append(ix.funcTypes, imp.TypeIdx)
		case ExternGlobal:
			ix.globals = append(ix.globals, imp.Global)
		case ExternTable:
			ix.HasTable = true
		case ExternMemory:
			ix.HasMemory = true
		}
	}
	ix.NumImportedFuncs = len(ix.funcTypes)
	ix.NumImportedGlobals = len(ix.globals)
	for i := range m.Funcs {
		ix.funcTypes = append(ix.funcTypes, m.Funcs[i].TypeIdx)
	}
	for i := range m.Globals {
		ix.globals = append(ix.globals, m.Globals[i].Type)
	}
	return ix
}

// NumFuncs returns the size of the function index space.
func (ix *IndexSpace) NumFuncs() int { return len(ix.funcTypes) }

// NumGlobals returns the size of the global index space.
func (ix *IndexSpace) NumGlobals() int { return len(ix.globals) }

// FuncTypeIdx returns the type index of the function at funcIdx.
func (ix *IndexSpace) FuncTypeIdx(funcIdx uint32) (uint32, error) {
	if uint64(funcIdx) >= uint64(len(ix.funcTypes)) {
		return 0, fmt.Errorf("wasm: function index %d out of range (have %d)", funcIdx, len(ix.funcTypes))
	}
	return ix.funcTypes[funcIdx], nil
}

// FuncType returns the signature of the function at funcIdx.
func (ix *IndexSpace) FuncType(funcIdx uint32) (FuncType, error) {
	ti, err := ix.FuncTypeIdx(funcIdx)
	if err != nil {
		return FuncType{}, err
	}
	if uint64(ti) >= uint64(len(ix.Types)) {
		return FuncType{}, fmt.Errorf("wasm: type index %d out of range (have %d)", ti, len(ix.Types))
	}
	return ix.Types[ti], nil
}

// GlobalType returns the type of the global at globalIdx.
func (ix *IndexSpace) GlobalType(globalIdx uint32) (GlobalType, error) {
	if uint64(globalIdx) >= uint64(len(ix.globals)) {
		return GlobalType{}, fmt.Errorf("wasm: global index %d out of range", globalIdx)
	}
	return ix.globals[globalIdx], nil
}

// AddType returns the index of ft in the type section, appending it if not
// yet present. It is the standard way to intern signatures.
func (m *Module) AddType(ft FuncType) uint32 {
	for i, t := range m.Types {
		if t.Equal(ft) {
			return uint32(i)
		}
	}
	m.Types = append(m.Types, ft)
	return uint32(len(m.Types) - 1)
}

// FuncName returns the debug name of a function if the module carries one,
// falling back to the import name or a numeric placeholder. It scans the
// imports on every call; to name many functions use FuncNameList.
func (m *Module) FuncName(funcIdx uint32) string {
	if name, ok := m.FuncNames[funcIdx]; ok {
		return name
	}
	i := funcIdx
	for _, imp := range m.Imports {
		if imp.Kind != ExternFunc {
			continue
		}
		if i == 0 {
			return imp.Module + "." + imp.Name
		}
		i--
	}
	return fmt.Sprintf("func%d", funcIdx)
}

// FuncNameList returns FuncName of every index of the function index
// space, resolved in one pass over the imports.
func (m *Module) FuncNameList() []string {
	var names []string
	for _, imp := range m.Imports {
		if imp.Kind == ExternFunc {
			names = append(names, imp.Module+"."+imp.Name)
		}
	}
	numImported := len(names)
	names = append(names, make([]string, len(m.Funcs))...)
	for i := range names {
		if name, ok := m.FuncNames[uint32(i)]; ok {
			names[i] = name
		} else if i >= numImported {
			names[i] = fmt.Sprintf("func%d", i)
		}
	}
	return names
}

// ExportedFunc returns the function index exported under name, if any.
func (m *Module) ExportedFunc(name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Kind == ExternFunc && e.Name == name {
			return e.Idx, true
		}
	}
	return 0, false
}

// CountInstrs returns the total static instruction count across all defined
// function bodies. Used for reporting and throughput metrics.
func (m *Module) CountInstrs() int {
	n := 0
	for i := range m.Funcs {
		n += len(m.Funcs[i].Body)
	}
	return n
}
