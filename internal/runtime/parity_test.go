package runtime

// Golden parity suite: every generated HookSpec is dispatched through both
// the old generic Kind-switch dispatcher (kept below as a test-only
// reference implementation) and the production trampolines, on identical
// lowered argument vectors, and the resulting high-level hook invocations
// must match event for event — including i64 lo/hi re-joins, br_table
// end-replay, and indirect-call table resolution.

import (
	"fmt"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/static"
	"wasabi/internal/wasm"
)

// recorder implements every hook interface and records each invocation as a
// formatted event string.
type recorder struct{ events []string }

func (r *recorder) log(format string, args ...any) {
	r.events = append(r.events, fmt.Sprintf(format, args...))
}

func (r *recorder) Nop(l analysis.Location)         { r.log("nop %v", l) }
func (r *recorder) Unreachable(l analysis.Location) { r.log("unreachable %v", l) }
func (r *recorder) If(l analysis.Location, c bool)  { r.log("if %v %v", l, c) }
func (r *recorder) Br(l analysis.Location, t analysis.BranchTarget) {
	r.log("br %v %v", l, t)
}
func (r *recorder) BrIf(l analysis.Location, t analysis.BranchTarget, c bool) {
	r.log("br_if %v %v %v", l, t, c)
}
func (r *recorder) BrTable(l analysis.Location, tbl []analysis.BranchTarget, d analysis.BranchTarget, i uint32) {
	r.log("br_table %v %v %v %d", l, tbl, d, i)
}
func (r *recorder) Begin(l analysis.Location, k analysis.BlockKind) { r.log("begin %v %v", l, k) }
func (r *recorder) End(l analysis.Location, k analysis.BlockKind, b analysis.Location) {
	r.log("end %v %v %v", l, k, b)
}
func (r *recorder) Const(l analysis.Location, v analysis.Value) { r.log("const %v %v", l, v) }
func (r *recorder) Drop(l analysis.Location, v analysis.Value)  { r.log("drop %v %v", l, v) }
func (r *recorder) Select(l analysis.Location, c bool, a, b analysis.Value) {
	r.log("select %v %v %v %v", l, c, a, b)
}
func (r *recorder) Unary(l analysis.Location, op string, in, out analysis.Value) {
	r.log("unary %v %s %v %v", l, op, in, out)
}
func (r *recorder) Binary(l analysis.Location, op string, a, b, res analysis.Value) {
	r.log("binary %v %s %v %v %v", l, op, a, b, res)
}
func (r *recorder) Local(l analysis.Location, op string, i uint32, v analysis.Value) {
	r.log("local %v %s %d %v", l, op, i, v)
}
func (r *recorder) Global(l analysis.Location, op string, i uint32, v analysis.Value) {
	r.log("global %v %s %d %v", l, op, i, v)
}
func (r *recorder) Load(l analysis.Location, op string, m analysis.MemArg, v analysis.Value) {
	r.log("load %v %s %v %v", l, op, m, v)
}
func (r *recorder) Store(l analysis.Location, op string, m analysis.MemArg, v analysis.Value) {
	r.log("store %v %s %v %v", l, op, m, v)
}
func (r *recorder) MemorySize(l analysis.Location, p uint32) { r.log("memory_size %v %d", l, p) }
func (r *recorder) MemoryGrow(l analysis.Location, d, p uint32) {
	r.log("memory_grow %v %d %d", l, d, p)
}
func (r *recorder) CallPre(l analysis.Location, t int, args []analysis.Value, ti int64) {
	r.log("call_pre %v %d %v %d", l, t, args, ti)
}
func (r *recorder) CallPost(l analysis.Location, res []analysis.Value) {
	r.log("call_post %v %v", l, res)
}
func (r *recorder) Return(l analysis.Location, res []analysis.Value) {
	r.log("return %v %v", l, res)
}
func (r *recorder) Start(l analysis.Location) { r.log("start %v", l) }
func (r *recorder) BlockCovered(l analysis.Location, end int) {
	r.log("block_probe %v %d", l, end)
}

// parityModule generates hooks covering every kind and every lowered layout
// shape, including i64 monomorphizations, a br_table (for metadata), an
// indirect call through a table, and an i64-heavy call signature.
func parityModule() *wasm.Module {
	b := builder.New()
	b.Memory(1)
	b.Table(4)
	g64 := b.GlobalI64(true, 5)

	callee := b.Func("callee", builder.V(wasm.I64, wasm.F64, wasm.I32), builder.V(wasm.I64))
	callee.Get(0)
	callee.Done()

	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	l64 := f.Local(wasm.I64)
	f.Op(wasm.OpNop)
	f.I64(1 << 40).Set(l64)                      // i64 const + local
	f.Get(l64).I64(3).Op(wasm.OpI64Add).Set(l64) // i64 binary
	f.Get(l64).Op(wasm.OpI64Eqz).Drop()          // i64 unary, i32 drop
	f.Get(l64).Drop()                            // i64 drop
	f.GGet(g64).GSet(g64)                        // i64 global
	f.I32(8).Get(l64).Store(wasm.OpI64Store, 0)  // i64 store
	f.I32(8).Load(wasm.OpI64Load, 0).Drop()      // i64 load
	f.Get(l64).Get(l64).Get(0).Select()          // i64 select
	f.Drop()                                     //
	f.Op(wasm.OpMemorySize).Drop()               // memory_size
	f.I32(1).Op(wasm.OpMemoryGrow).Drop()        // memory_grow
	f.I64(7).F64(2.5).Get(0).Call(callee.Index)  // direct call, i64 sig
	f.Op(wasm.OpI32WrapI64).Drop()               //
	f.I64(9).F64(1.5).Get(0).I32(0)              // args + table idx
	f.CallIndirect(builder.V(wasm.I64, wasm.F64, wasm.I32), builder.V(wasm.I64))
	f.Op(wasm.OpI32WrapI64).Drop()
	f.Block().Get(0).BrIf(0).Op(wasm.OpUnreachable).End() // unreachable (branched over)
	f.Block().Block()
	f.Get(0).BrTable([]uint32{0}, 1) // br_table with metadata
	f.End().End()
	f.Block().Get(0).BrIf(0).Br(0).End() // br_if + br
	f.Get(0)
	f.If().Op(wasm.OpNop).Else().Op(wasm.OpNop).End()
	f.Loop().End()
	f.Get(0)
	f.Done()
	b.Elem(0, callee.Index)
	start := b.Func("", nil, nil) // start function: generates the start hook
	start.Op(wasm.OpNop)
	start.Done()
	b.Start(start.Index)
	return b.Build()
}

// instrumentAllKinds instruments the parity module for every hook kind:
// AllHooks plus one block probe per reachable CFG block from a static plan.
// It fails the test unless the metadata holds at least one spec of each of
// the analysis.NumKinds kinds, so the per-spec suites built on it cover
// every row of the dispatch and record-field tables.
func instrumentAllKinds(t testing.TB) (*wasm.Module, *core.Metadata) {
	t.Helper()
	m := parityModule()
	hooks := analysis.AllHooks.With(analysis.KindBlockProbe)
	plan, err := static.PlanFor(m, hooks)
	if err != nil {
		t.Fatal(err)
	}
	instrumented, md, err := core.Instrument(m, core.Options{Hooks: hooks, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[analysis.HookKind]bool{}
	for i := range md.Hooks {
		seen[md.Hooks[i].Kind] = true
	}
	for k := analysis.HookKind(0); k < analysis.HookKind(analysis.NumKinds); k++ {
		if !seen[k] {
			t.Fatalf("fixture generated no %v hook", k)
		}
	}
	return instrumented, md
}

// synthArgs builds a deterministic lowered argument vector for a spec: every
// word gets a distinctive pattern so wrong offsets or a missed i64 re-join
// change the observed events.
func synthArgs(spec *core.HookSpec, n int) []interp.Value {
	args := make([]interp.Value, n)
	for p := range args {
		args[p] = uint64(uint32(0x9E3779B9*uint32(p+1) + uint32(spec.Kind)))
	}
	// Location words: small positive indices.
	if n > 0 {
		args[0] = 3
	}
	if n > 1 {
		args[1] = 17
	}
	// Metadata-indexing and table-indexing words must be in range.
	if spec.Kind == analysis.KindBrTable && n > 3 {
		args[2] = 0 // metadata index
		args[3] = 1 // runtime branch index
	}
	if spec.Kind == analysis.KindCall && !spec.Post && n > 2 {
		args[2] = 0 // table slot 0 / function index 0
	}
	return args
}

func TestTrampolineParityWithGenericDispatch(t *testing.T) {
	m := parityModule()
	instrumented, md, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}

	// One runtime per dispatcher, each with its own recorder.
	recT, recG := &recorder{}, &recorder{}
	rtT, rtG := New(md, recT), New(md, recG)

	inst, err := interp.Instantiate(instrumented, rtT.Imports())
	if err != nil {
		t.Fatal(err)
	}
	rtG.BindInstance(inst) // reference resolves indirect calls via the bound instance

	seenKinds := map[analysis.HookKind]bool{}
	for i := range md.Hooks {
		spec := &md.Hooks[i]
		seenKinds[spec.Kind] = true
		lay := spec.Layout()
		tramp, noop := rtT.compileTrampoline(spec, lay)
		if noop {
			t.Errorf("hook %s: bound no-op although the analysis implements everything", spec.Name)
			continue
		}
		vectors := [][]interp.Value{synthArgs(spec, lay.Arity)}
		if spec.Kind == analysis.KindBrTable {
			// Also exercise the default entry (index past the table).
			v := synthArgs(spec, lay.Arity)
			v[3] = 99
			vectors = append(vectors, v)
		}
		if spec.Kind == analysis.KindCall && !spec.Post && spec.Indirect {
			// Also exercise an unresolvable table index.
			v := synthArgs(spec, lay.Arity)
			v[2] = 1000
			vectors = append(vectors, v)
		}
		for vi, args := range vectors {
			recT.events, recG.events = nil, nil
			errT := tramp(inst, args)
			errG := rtG.referenceDispatch(spec, args)
			if (errT == nil) != (errG == nil) {
				t.Errorf("hook %s vector %d: trampoline err %v, reference err %v", spec.Name, vi, errT, errG)
				continue
			}
			if len(recT.events) != len(recG.events) {
				t.Errorf("hook %s vector %d: %d trampoline events vs %d reference events\n%v\n%v",
					spec.Name, vi, len(recT.events), len(recG.events), recT.events, recG.events)
				continue
			}
			for j := range recT.events {
				if recT.events[j] != recG.events[j] {
					t.Errorf("hook %s vector %d event %d:\n  trampoline: %s\n  reference:  %s",
						spec.Name, vi, j, recT.events[j], recG.events[j])
				}
			}
		}
	}

	// The module must have monomorphized every hook kind, or the suite is
	// weaker than it claims.
	for k := analysis.HookKind(0); k < analysis.HookKind(analysis.NumKinds); k++ {
		if k == analysis.KindStart {
			continue // start requires a start function; covered end-to-end elsewhere
		}
		if k == analysis.KindBlockProbe {
			// Probes are placed by a static plan, not by AllHooks
			// instrumentation; covered by the engine-level elision tests.
			continue
		}
		if !seenKinds[k] {
			t.Errorf("parity module generated no %v hook", k)
		}
	}

	// End-to-end: the full instrumented run through the trampolines must see
	// the exact event stream of a reference-dispatched run.
	runEvents := func(rec *recorder, viaReference bool) []string {
		rec2 := &recorder{}
		rt := New(md, rec2)
		var imports interp.Imports
		if viaReference {
			imports = rt.referenceImports()
		} else {
			imports = rt.Imports()
		}
		in2, err := interp.Instantiate(instrumented, imports)
		if err != nil {
			t.Fatal(err)
		}
		rt.BindInstance(in2)
		if _, err := in2.Invoke("f", interp.I32(1)); err != nil {
			t.Fatal(err)
		}
		return rec2.events
	}
	gotT := runEvents(recT, false)
	gotG := runEvents(recG, true)
	if len(gotT) == 0 {
		t.Fatal("end-to-end run produced no events")
	}
	if len(gotT) != len(gotG) {
		t.Fatalf("end-to-end: %d trampoline events vs %d reference events", len(gotT), len(gotG))
	}
	for i := range gotT {
		if gotT[i] != gotG[i] {
			t.Errorf("end-to-end event %d:\n  trampoline: %s\n  reference:  %s", i, gotT[i], gotG[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Reference implementation: the pre-trampoline generic dispatcher, verbatim.
// Production code no longer uses it; it exists to pin down trampoline
// behavior.
// ---------------------------------------------------------------------------

// referenceImports exposes the reference dispatcher as hook imports, for the
// end-to-end leg of the parity suite.
func (r *Runtime) referenceImports() interp.Imports {
	fields := make(map[string]any, len(r.meta.Hooks))
	for i := range r.meta.Hooks {
		spec := r.meta.Hooks[i] // copy: closures must not share the loop var's address
		fields[spec.Name] = &interp.HostFunc{
			Type: spec.WasmType(),
			Fn: func(inst *interp.Instance, args []interp.Value) ([]interp.Value, error) {
				if r.inst == nil {
					r.inst = inst
				}
				return nil, r.referenceDispatch(&spec, args)
			},
		}
	}
	return interp.Imports{core.HookModule: fields}
}

// argReader decodes the raw lowered argument vector of a hook call.
type argReader struct {
	args []interp.Value
	pos  int
}

func (ar *argReader) i32() int32 { v := int32(uint32(ar.args[ar.pos])); ar.pos++; return v }

func (ar *argReader) u32() uint32 { v := uint32(ar.args[ar.pos]); ar.pos++; return v }

func (ar *argReader) value(t wasm.ValType) analysis.Value {
	if t == wasm.I64 {
		lo := uint64(uint32(ar.args[ar.pos]))
		hi := uint64(uint32(ar.args[ar.pos+1]))
		ar.pos += 2
		return analysis.Value{Type: wasm.I64, Bits: hi<<32 | lo}
	}
	v := analysis.Value{Type: t, Bits: ar.args[ar.pos]}
	ar.pos++
	return v
}

func (ar *argReader) values(ts []wasm.ValType) []analysis.Value {
	if len(ts) == 0 {
		return nil
	}
	vs := make([]analysis.Value, len(ts))
	for i, t := range ts {
		vs[i] = ar.value(t)
	}
	return vs
}

func (r *Runtime) referenceDispatch(spec *core.HookSpec, args []interp.Value) error {
	ar := &argReader{args: args}
	loc := analysis.Location{Func: int(ar.i32()), Instr: int(ar.i32())}

	switch spec.Kind {
	case analysis.KindNop:
		if r.nop != nil {
			r.nop(loc)
		}
	case analysis.KindUnreachable:
		if r.unreachable != nil {
			r.unreachable(loc)
		}
	case analysis.KindIf:
		if r.ifHook != nil {
			r.ifHook(loc, ar.u32() != 0)
		}
	case analysis.KindBr:
		if r.br != nil {
			label := ar.u32()
			instr := int(ar.i32())
			r.br(loc, analysis.BranchTarget{Label: label, Location: analysis.Location{Func: loc.Func, Instr: instr}})
		}
	case analysis.KindBrIf:
		if r.brIf != nil {
			label := ar.u32()
			instr := int(ar.i32())
			cond := ar.u32() != 0
			r.brIf(loc, analysis.BranchTarget{Label: label, Location: analysis.Location{Func: loc.Func, Instr: instr}}, cond)
		}
	case analysis.KindBrTable:
		return r.referenceDispatchBrTable(loc, ar)
	case analysis.KindBegin:
		if r.begin != nil {
			r.begin(loc, spec.Block)
		}
	case analysis.KindEnd:
		if r.end != nil {
			begin := int(ar.i32())
			r.end(loc, spec.Block, analysis.Location{Func: loc.Func, Instr: begin})
		}
	case analysis.KindConst:
		if r.constHook != nil {
			r.constHook(loc, ar.value(spec.Types[0]))
		}
	case analysis.KindDrop:
		if r.drop != nil {
			r.drop(loc, ar.value(spec.Types[0]))
		}
	case analysis.KindSelect:
		if r.selectHook != nil {
			cond := ar.u32() != 0
			first := ar.value(spec.Types[1])
			second := ar.value(spec.Types[2])
			r.selectHook(loc, cond, first, second)
		}
	case analysis.KindUnary:
		if r.unary != nil {
			in := ar.value(spec.Types[0])
			out := ar.value(spec.Types[1])
			r.unary(loc, spec.Op.String(), in, out)
		}
	case analysis.KindBinary:
		if r.binary != nil {
			a := ar.value(spec.Types[0])
			b := ar.value(spec.Types[1])
			res := ar.value(spec.Types[2])
			r.binary(loc, spec.Op.String(), a, b, res)
		}
	case analysis.KindLocal:
		if r.local != nil {
			idx := ar.u32()
			r.local(loc, spec.Op.String(), idx, ar.value(spec.Types[1]))
		}
	case analysis.KindGlobal:
		if r.global != nil {
			idx := ar.u32()
			r.global(loc, spec.Op.String(), idx, ar.value(spec.Types[1]))
		}
	case analysis.KindLoad:
		if r.load != nil {
			offset := ar.u32()
			addr := ar.u32()
			r.load(loc, spec.Op.String(), analysis.MemArg{Addr: addr, Offset: offset}, ar.value(spec.Types[2]))
		}
	case analysis.KindStore:
		if r.store != nil {
			offset := ar.u32()
			addr := ar.u32()
			r.store(loc, spec.Op.String(), analysis.MemArg{Addr: addr, Offset: offset}, ar.value(spec.Types[2]))
		}
	case analysis.KindMemorySize:
		if r.memSize != nil {
			r.memSize(loc, ar.u32())
		}
	case analysis.KindMemoryGrow:
		if r.memGrow != nil {
			delta := ar.u32()
			r.memGrow(loc, delta, ar.u32())
		}
	case analysis.KindCall:
		r.referenceDispatchCall(loc, spec, ar)
	case analysis.KindReturn:
		if r.returnHook != nil {
			r.returnHook(loc, ar.values(spec.Types))
		}
	case analysis.KindStart:
		if r.start != nil {
			r.start(loc)
		}
	}
	return nil
}

func (r *Runtime) referenceDispatchCall(loc analysis.Location, spec *core.HookSpec, ar *argReader) {
	if spec.Post {
		if r.callPost != nil {
			r.callPost(loc, ar.values(spec.Types))
		}
		return
	}
	if r.callPre == nil {
		return
	}
	first := ar.u32()
	args := ar.values(spec.Types[1:])
	if !spec.Indirect {
		r.callPre(loc, int(first), args, -1)
		return
	}
	target := -1
	if r.inst != nil {
		if fidx := r.inst.ResolveTable(first); fidx >= 0 {
			target = r.meta.OriginalFuncIdx(int(fidx))
		}
	}
	r.callPre(loc, target, args, int64(first))
}

func (r *Runtime) referenceDispatchBrTable(loc analysis.Location, ar *argReader) error {
	metaIdx := int(ar.i32())
	idx := ar.u32()
	if metaIdx < 0 || metaIdx >= len(r.meta.BrTables) {
		return &interp.Trap{
			Code: TrapInvalidMetadata,
			Info: fmt.Sprintf("br_table metadata index %d out of range (have %d) at %v", metaIdx, len(r.meta.BrTables), loc),
		}
	}
	info := &r.meta.BrTables[metaIdx]

	taken := info.Default
	if int(idx) < len(info.Targets) {
		taken = info.Targets[idx]
	}
	if r.end != nil {
		for _, e := range taken.Ends {
			r.end(analysis.Location{Func: loc.Func, Instr: e.End}, e.Kind,
				analysis.Location{Func: loc.Func, Instr: e.Begin})
		}
	}
	if r.brTable != nil {
		table := make([]analysis.BranchTarget, len(info.Targets))
		for i, t := range info.Targets {
			table[i] = analysis.BranchTarget{Label: t.Label, Location: analysis.Location{Func: loc.Func, Instr: t.Instr}}
		}
		deflt := analysis.BranchTarget{Label: info.Default.Label, Location: analysis.Location{Func: loc.Func, Instr: info.Default.Instr}}
		r.brTable(loc, table, deflt, idx)
	}
	return nil
}
