// Package polybench re-creates the PolyBench/C benchmark suite — the 30
// numeric kernels the paper's evaluation runs — as WebAssembly modules.
//
// The paper compiles PolyBench with emscripten; our substitute is a small
// kernel IR with two backends: one emits a WebAssembly module through the
// builder DSL, the other evaluates the kernel directly in Go and serves as
// the reference for faithfulness checks (RQ2). Both backends walk the same
// AST, so the wasm module and the reference compute identical results
// (IEEE-754 double arithmetic, identical evaluation order).
//
// All kernel data is f64, stored in linear memory; every kernel finishes by
// summing its output arrays into a checksum, printing it through the
// imported env.print_f64 host function (the paper's "output intermediate
// results" faithfulness device), and returning it.
package polybench

import (
	"math"

	"wasabi/internal/builder"
	"wasabi/internal/wasm"
)

// IExpr is an integer (i32) expression.
type IExpr interface {
	emit(g *gen)
	eval(e *env) int32
}

// FExpr is a float (f64) expression.
type FExpr interface {
	emitF(g *gen)
	evalF(e *env) float64
}

// Stmt is a statement.
type Stmt interface {
	emitS(g *gen)
	exec(e *env)
}

// Arr is a handle to an f64 array in linear memory.
type Arr struct {
	name string
	size int32
	out  bool
	id   int
}

// IVar is a handle to an i32 scalar variable (a wasm local / Go int32).
type IVar struct{ id int }

// FVar is a handle to an f64 scalar variable.
type FVar struct{ id int }

// Ctx accumulates the kernel program: array declarations, variables, and a
// statement list. Kernel definitions drive it through the helper methods.
type Ctx struct {
	arrays []*Arr
	nIVars int
	nFVars int
	stmts  []Stmt
	frames [][]Stmt
}

// Array declares an f64 array with the given element count.
func (c *Ctx) Array(name string, size int32) *Arr {
	a := &Arr{name: name, size: size, id: len(c.arrays)}
	c.arrays = append(c.arrays, a)
	return a
}

// OutArray declares an array that contributes to the kernel checksum.
func (c *Ctx) OutArray(name string, size int32) *Arr {
	a := c.Array(name, size)
	a.out = true
	return a
}

// IVarNew allocates an integer scalar.
func (c *Ctx) IVarNew() *IVar {
	c.nIVars++
	return &IVar{id: c.nIVars - 1}
}

// FVarNew allocates a float scalar.
func (c *Ctx) FVarNew() *FVar {
	c.nFVars++
	return &FVar{id: c.nFVars - 1}
}

func (c *Ctx) add(s Stmt) { c.stmts = append(c.stmts, s) }

// For appends a counted loop: for v := lo; v < hi; v++ { body }.
func (c *Ctx) For(v *IVar, lo, hi IExpr, body func()) {
	c.frames = append(c.frames, c.stmts)
	c.stmts = nil
	body()
	inner := c.stmts
	c.stmts = c.frames[len(c.frames)-1]
	c.frames = c.frames[:len(c.frames)-1]
	c.add(&sFor{v: v, lo: lo, hi: hi, body: inner})
}

// Store appends arr[idx] = val.
func (c *Ctx) Store(arr *Arr, idx IExpr, val FExpr) {
	c.add(&sStore{arr: arr, idx: idx, val: val})
}

// SetF appends v = val.
func (c *Ctx) SetF(v *FVar, val FExpr) { c.add(&sSetF{v: v, val: val}) }

// Integer expression constructors.

type iConst struct{ v int32 }
type iVar struct{ v *IVar }
type iBin struct {
	op   byte // + - * %
	a, b IExpr
}

// CI is an i32 constant.
func CI(v int32) IExpr { return &iConst{v} }

// VI reads an integer variable (including loop counters).
func VI(v *IVar) IExpr { return &iVar{v} }

// AddI, SubI, MulI, ModI build integer arithmetic.
func AddI(a, b IExpr) IExpr { return &iBin{'+', a, b} }
func SubI(a, b IExpr) IExpr { return &iBin{'-', a, b} }
func MulI(a, b IExpr) IExpr { return &iBin{'*', a, b} }
func ModI(a, b IExpr) IExpr { return &iBin{'%', a, b} }

// Idx2 computes the linear index i*cols + j.
func Idx2(i, j IExpr, cols int32) IExpr { return AddI(MulI(i, CI(cols)), j) }

// Float expression constructors.

type fConst struct{ v float64 }
type fVar struct{ v *FVar }
type fLoad struct {
	arr *Arr
	idx IExpr
}
type fBin struct {
	op   byte // + - * / m(min) M(max)
	a, b FExpr
}
type fSqrt struct{ a FExpr }
type fAbs struct{ a FExpr }
type fFromI struct{ a IExpr }

// CF is an f64 constant.
func CF(v float64) FExpr { return &fConst{v} }

// VF reads a float variable.
func VF(v *FVar) FExpr { return &fVar{v} }

// At reads arr[idx].
func At(arr *Arr, idx IExpr) FExpr { return &fLoad{arr, idx} }

// At2 reads arr[i*cols+j].
func At2(arr *Arr, i, j IExpr, cols int32) FExpr { return &fLoad{arr, Idx2(i, j, cols)} }

// Add, Sub, Mul, Div, Min, Max build float arithmetic.
func Add(a, b FExpr) FExpr { return &fBin{'+', a, b} }
func Sub(a, b FExpr) FExpr { return &fBin{'-', a, b} }
func Mul(a, b FExpr) FExpr { return &fBin{'*', a, b} }
func Div(a, b FExpr) FExpr { return &fBin{'/', a, b} }
func Min(a, b FExpr) FExpr { return &fBin{'m', a, b} }
func Max(a, b FExpr) FExpr { return &fBin{'M', a, b} }

// Sqrt and Abs are the unary float operations kernels need.
func Sqrt(a FExpr) FExpr { return &fSqrt{a} }
func Abs(a FExpr) FExpr  { return &fAbs{a} }

// ToF converts an integer expression to f64 (signed).
func ToF(a IExpr) FExpr { return &fFromI{a} }

// Statements.

type sFor struct {
	v      *IVar
	lo, hi IExpr
	body   []Stmt
}
type sStore struct {
	arr *Arr
	idx IExpr
	val FExpr
}
type sSetF struct {
	v   *FVar
	val FExpr
}

// --- wasm backend ---

type gen struct {
	fb    *builder.FuncBuilder
	ivars []uint32 // IVar id → local index
	fvars []uint32 // FVar id → local index
	bases []int32  // array id → byte offset in memory
}

func (x *iConst) emit(g *gen) { g.fb.I32(x.v) }
func (x *iVar) emit(g *gen)   { g.fb.Get(g.ivars[x.v.id]) }
func (x *iBin) emit(g *gen) {
	x.a.emit(g)
	x.b.emit(g)
	switch x.op {
	case '+':
		g.fb.Op(wasm.OpI32Add)
	case '-':
		g.fb.Op(wasm.OpI32Sub)
	case '*':
		g.fb.Op(wasm.OpI32Mul)
	case '%':
		g.fb.Op(wasm.OpI32RemS)
	}
}

func (x *fConst) emit(g *gen) { g.fb.F64(x.v) }
func (x *fVar) emit(g *gen)   { g.fb.Get(g.fvars[x.v.id]) }
func (x *fLoad) emit(g *gen) {
	g.emitAddr(x.arr, x.idx)
	g.fb.Load(wasm.OpF64Load, 0)
}
func (x *fBin) emit(g *gen) {
	x.a.emitF(g)
	x.b.emitF(g)
	switch x.op {
	case '+':
		g.fb.Op(wasm.OpF64Add)
	case '-':
		g.fb.Op(wasm.OpF64Sub)
	case '*':
		g.fb.Op(wasm.OpF64Mul)
	case '/':
		g.fb.Op(wasm.OpF64Div)
	case 'm':
		g.fb.Op(wasm.OpF64Min)
	case 'M':
		g.fb.Op(wasm.OpF64Max)
	}
}
func (x *fSqrt) emit(g *gen) {
	x.a.emitF(g)
	g.fb.Op(wasm.OpF64Sqrt)
}
func (x *fAbs) emit(g *gen) {
	x.a.emitF(g)
	g.fb.Op(wasm.OpF64Abs)
}
func (x *fFromI) emit(g *gen) {
	x.a.emit(g)
	g.fb.Op(wasm.OpF64ConvertI32S)
}

// The FExpr interface methods delegate to emit; declared separately so both
// expression families can share the gen type.
func (x *fConst) emitF(g *gen) { x.emit(g) }
func (x *fVar) emitF(g *gen)   { x.emit(g) }
func (x *fLoad) emitF(g *gen)  { x.emit(g) }
func (x *fBin) emitF(g *gen)   { x.emit(g) }
func (x *fSqrt) emitF(g *gen)  { x.emit(g) }
func (x *fAbs) emitF(g *gen)   { x.emit(g) }
func (x *fFromI) emitF(g *gen) { x.emit(g) }

// emitAddr pushes the byte address of arr[idx].
func (g *gen) emitAddr(arr *Arr, idx IExpr) {
	idx.emit(g)
	g.fb.I32(8)
	g.fb.Op(wasm.OpI32Mul)
	if base := g.bases[arr.id]; base != 0 {
		g.fb.I32(base)
		g.fb.Op(wasm.OpI32Add)
	}
}

func (s *sFor) emitS(g *gen) {
	fb := g.fb
	v := g.ivars[s.v.id]
	s.lo.emit(g)
	fb.Set(v)
	fb.Block().Loop()
	fb.Get(v)
	s.hi.emit(g)
	fb.Op(wasm.OpI32GeS).BrIf(1)
	for _, st := range s.body {
		st.emitS(g)
	}
	fb.Get(v).I32(1).Op(wasm.OpI32Add).Set(v)
	fb.Br(0)
	fb.End().End()
}

func (s *sStore) emitS(g *gen) {
	g.emitAddr(s.arr, s.idx)
	s.val.emitF(g)
	g.fb.Store(wasm.OpF64Store, 0)
}

func (s *sSetF) emitS(g *gen) {
	s.val.emitF(g)
	g.fb.Set(g.fvars[s.v.id])
}

// --- evaluation backend (the Go reference) ---

type env struct {
	ivals  []int32
	fvals  []float64
	arrays [][]float64
}

func (x *iConst) eval(e *env) int32 { return x.v }
func (x *iVar) eval(e *env) int32   { return e.ivals[x.v.id] }
func (x *iBin) eval(e *env) int32 {
	a, b := x.a.eval(e), x.b.eval(e)
	switch x.op {
	case '+':
		return a + b
	case '-':
		return a - b
	case '*':
		return a * b
	default:
		return a % b
	}
}

func (x *fConst) evalF(e *env) float64 { return x.v }
func (x *fVar) evalF(e *env) float64   { return e.fvals[x.v.id] }
func (x *fLoad) evalF(e *env) float64  { return e.arrays[x.arr.id][x.idx.eval(e)] }
func (x *fBin) evalF(e *env) float64 {
	a, b := x.a.evalF(e), x.b.evalF(e)
	switch x.op {
	case '+':
		return a + b
	case '-':
		return a - b
	case '*':
		return a * b
	case '/':
		return a / b
	case 'm':
		return wasmMin(a, b)
	default:
		return wasmMax(a, b)
	}
}
func (x *fSqrt) evalF(e *env) float64  { return math.Sqrt(x.a.evalF(e)) }
func (x *fAbs) evalF(e *env) float64   { return math.Abs(x.a.evalF(e)) }
func (x *fFromI) evalF(e *env) float64 { return float64(x.a.eval(e)) }

func (s *sFor) exec(e *env) {
	for v := s.lo.eval(e); v < s.hi.eval(e); v++ {
		e.ivals[s.v.id] = v
		for _, st := range s.body {
			st.exec(e)
		}
	}
}

func (s *sStore) exec(e *env) { e.arrays[s.arr.id][s.idx.eval(e)] = s.val.evalF(e) }
func (s *sSetF) exec(e *env)  { e.fvals[s.v.id] = s.val.evalF(e) }

// wasmMin/wasmMax match the interpreter's f64.min/f64.max semantics so both
// backends agree bit-for-bit.
func wasmMin(a, b float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.NaN()
	case a == 0 && b == 0 && math.Signbit(a):
		return a
	case a < b:
		return a
	default:
		return b
	}
}

func wasmMax(a, b float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.NaN()
	case a == 0 && b == 0 && !math.Signbit(a):
		return a
	case a > b:
		return a
	default:
		return b
	}
}
