package wasabi_test

import (
	"testing"

	"wasabi"
	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

// buildTestModule constructs a module exercising every hook class: consts,
// arithmetic, locals, globals, memory, control flow with br_table, direct
// and indirect calls, select, drop, and i64 values.
func buildTestModule() *wasm.Module {
	b := builder.New()
	b.Memory(1)
	b.Table(4)
	g := b.GlobalI32(true, 7)
	g64 := b.GlobalI64(true, 1)

	// twice(x) = 2*x (also an indirect-call target)
	twice := b.Func("twice", builder.V(wasm.I32), builder.V(wasm.I32))
	twice.Get(0).I32(2).Op(wasm.OpI32Mul)
	twice.Done()

	// big(x i64) -> i64: exercises i64 splitting in hooks
	big := b.Func("big", builder.V(wasm.I64), builder.V(wasm.I64))
	big.Get(0).I64(0x1_0000_0001).Op(wasm.OpI64Mul)
	big.Done()

	b.Elem(0, twice.Index, big.Index)

	// main(n) -> i32: loop with branches, memory traffic, calls.
	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I32))
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.I32)
	f.ForI32(i, func(fb *builder.FuncBuilder) { fb.Get(0) }, func(fb *builder.FuncBuilder) {
		// acc += twice(i) via direct call
		fb.Get(acc).Get(i).Call(twice.Index).Op(wasm.OpI32Add).Set(acc)
		// acc += twice(i) via indirect call through table slot 0
		fb.Get(acc).Get(i).I32(0).CallIndirect(builder.V(wasm.I32), builder.V(wasm.I32)).Op(wasm.OpI32Add).Set(acc)
		// memory: mem[4*i] = acc; acc = mem[4*i]
		fb.Get(i).I32(4).Op(wasm.OpI32Mul).Get(acc).Store(wasm.OpI32Store, 0)
		fb.Get(i).I32(4).Op(wasm.OpI32Mul).Load(wasm.OpI32Load, 0).Set(acc)
		// global traffic
		fb.GGet(0).I32(1).Op(wasm.OpI32Add).GSet(0)
		// i64 traffic through a call
		fb.GGet(1).Call(big.Index).GSet(1)
		// select & drop
		fb.Get(acc).Get(i).Get(acc).I32(50).Op(wasm.OpI32LtS).Select().Drop()
		// if/else
		fb.Get(i).I32(1).Op(wasm.OpI32And).If().Op(wasm.OpNop).Else().Op(wasm.OpNop).End()
		// br_table over i%3
		fb.Block().Block().Block()
		fb.Get(i).I32(3).Op(wasm.OpI32RemU)
		fb.BrTable([]uint32{0, 1}, 2)
		fb.End().End().End()
		_ = g
		_ = g64
	})
	f.Get(acc)
	f.Done()
	return b.Build()
}

// recordingAnalysis implements every hook and counts invocations per kind.
type recordingAnalysis struct {
	counts map[string]int
	info   *wasabi.ModuleInfo

	callTargets   []int
	tableIndices  []int64
	i64Seen       []int64
	endKinds      map[wasabi.BlockKind]int
	brTableTaken  []uint32
	memWrites     int
	resolvedAddrs []uint64
}

func newRecording() *recordingAnalysis {
	return &recordingAnalysis{counts: make(map[string]int), endKinds: make(map[wasabi.BlockKind]int)}
}

func (r *recordingAnalysis) SetModuleInfo(info *wasabi.ModuleInfo) { r.info = info }
func (r *recordingAnalysis) Nop(loc wasabi.Location)               { r.counts["nop"]++ }
func (r *recordingAnalysis) Unreachable(loc wasabi.Location)       { r.counts["unreachable"]++ }
func (r *recordingAnalysis) If(loc wasabi.Location, cond bool)     { r.counts["if"]++ }
func (r *recordingAnalysis) Br(loc wasabi.Location, t wasabi.BranchTarget) {
	r.counts["br"]++
}
func (r *recordingAnalysis) BrIf(loc wasabi.Location, t wasabi.BranchTarget, cond bool) {
	r.counts["br_if"]++
}
func (r *recordingAnalysis) BrTable(loc wasabi.Location, tbl []wasabi.BranchTarget, d wasabi.BranchTarget, idx uint32) {
	r.counts["br_table"]++
	r.brTableTaken = append(r.brTableTaken, idx)
}
func (r *recordingAnalysis) Begin(loc wasabi.Location, kind wasabi.BlockKind) { r.counts["begin"]++ }
func (r *recordingAnalysis) End(loc wasabi.Location, kind wasabi.BlockKind, begin wasabi.Location) {
	r.counts["end"]++
	r.endKinds[kind]++
}
func (r *recordingAnalysis) Const(loc wasabi.Location, v wasabi.Value) { r.counts["const"]++ }
func (r *recordingAnalysis) Drop(loc wasabi.Location, v wasabi.Value)  { r.counts["drop"]++ }
func (r *recordingAnalysis) Select(loc wasabi.Location, cond bool, a, b wasabi.Value) {
	r.counts["select"]++
}
func (r *recordingAnalysis) Unary(loc wasabi.Location, op string, in, out wasabi.Value) {
	r.counts["unary"]++
}
func (r *recordingAnalysis) Binary(loc wasabi.Location, op string, a, b, res wasabi.Value) {
	r.counts["binary"]++
	if a.Type == wasm.I64 {
		r.i64Seen = append(r.i64Seen, res.I64())
	}
}
func (r *recordingAnalysis) Local(loc wasabi.Location, op string, idx uint32, v wasabi.Value) {
	r.counts["local"]++
}
func (r *recordingAnalysis) Global(loc wasabi.Location, op string, idx uint32, v wasabi.Value) {
	r.counts["global"]++
}
func (r *recordingAnalysis) Load(loc wasabi.Location, op string, m wasabi.MemArg, v wasabi.Value) {
	r.counts["load"]++
	r.resolvedAddrs = append(r.resolvedAddrs, m.EffAddr())
}
func (r *recordingAnalysis) Store(loc wasabi.Location, op string, m wasabi.MemArg, v wasabi.Value) {
	r.counts["store"]++
	r.memWrites++
}
func (r *recordingAnalysis) MemorySize(loc wasabi.Location, pages uint32) { r.counts["memory_size"]++ }
func (r *recordingAnalysis) MemoryGrow(loc wasabi.Location, delta, prev uint32) {
	r.counts["memory_grow"]++
}
func (r *recordingAnalysis) CallPre(loc wasabi.Location, target int, args []wasabi.Value, tableIdx int64) {
	r.counts["call_pre"]++
	r.callTargets = append(r.callTargets, target)
	r.tableIndices = append(r.tableIndices, tableIdx)
}
func (r *recordingAnalysis) CallPost(loc wasabi.Location, results []wasabi.Value) {
	r.counts["call_post"]++
}
func (r *recordingAnalysis) Return(loc wasabi.Location, results []wasabi.Value) {
	r.counts["return"]++
}
func (r *recordingAnalysis) Start(loc wasabi.Location) { r.counts["start"]++ }

func runMain(t *testing.T, m *wasm.Module, a any, n int32) int32 {
	t.Helper()
	sess := analyzeFor(t, m, a)
	if err := validate.Module(sess.Module()); err != nil {
		t.Fatalf("instrumented module invalid: %v", err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	res, err := inst.Invoke("main", interp.I32(n))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	return interp.AsI32(res[0])
}

// TestFaithfulness checks the instrumented module computes the same result
// as the original (RQ2).
func TestFaithfulness(t *testing.T) {
	m := buildTestModule()
	inst, err := interp.Instantiate(m, nil)
	if err != nil {
		t.Fatalf("instantiate original: %v", err)
	}
	orig, err := inst.Invoke("main", interp.I32(10))
	if err != nil {
		t.Fatalf("invoke original: %v", err)
	}
	got := runMain(t, m, newRecording(), 10)
	if got != interp.AsI32(orig[0]) {
		t.Errorf("instrumented result %d != original %d", got, interp.AsI32(orig[0]))
	}
}

// TestHooksFire checks that every hook class fires with plausible counts
// and correct pre-computed information.
func TestHooksFire(t *testing.T) {
	m := buildTestModule()
	rec := newRecording()
	runMain(t, m, rec, 10)

	for _, hook := range []string{"if", "br", "br_if", "br_table", "begin", "end",
		"const", "drop", "select", "binary", "local", "global", "load", "store",
		"call_pre", "call_post", "return", "nop"} {
		if rec.counts[hook] == 0 {
			t.Errorf("hook %q never fired; counts: %v", hook, rec.counts)
		}
	}
	// 10 iterations × (1 direct + 1 indirect) calls... plus big() per iter.
	if rec.counts["call_pre"] != rec.counts["call_post"] {
		t.Errorf("call_pre (%d) != call_post (%d)", rec.counts["call_pre"], rec.counts["call_post"])
	}
	// Indirect calls must resolve to twice's original index.
	twiceIdx := int(rec.info.Exports["twice"])
	sawResolved := false
	for i, ti := range rec.tableIndices {
		if ti == 0 { // table slot 0 holds twice
			if rec.callTargets[i] != twiceIdx {
				t.Errorf("indirect call resolved to %d, want %d", rec.callTargets[i], twiceIdx)
			}
			sawResolved = true
		}
	}
	if !sawResolved {
		t.Error("no indirect call observed")
	}
	// i64 values must round-trip the split/join faithfully.
	if len(rec.i64Seen) == 0 {
		t.Error("no i64 binary results observed")
	} else if rec.i64Seen[0] != 0x1_0000_0001 {
		t.Errorf("first i64 result = %#x, want 0x100000001", rec.i64Seen[0])
	}
	// Module info sanity.
	if rec.info == nil || rec.info.FuncName(twiceIdx) != "twice" {
		t.Errorf("module info missing or wrong: %+v", rec.info)
	}
	// Loop end hooks must fire for loop blocks (dynamic nesting).
	if rec.endKinds[analysis.BlockLoop] == 0 {
		t.Errorf("no loop end hooks fired: %v", rec.endKinds)
	}
}

// TestSelectiveInstrumentation checks that instrumenting for a single hook
// class yields strictly smaller modules than full instrumentation and that
// an empty hook set leaves the code unchanged.
func TestSelectiveInstrumentation(t *testing.T) {
	m := buildTestModule()

	full, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	one, _, err := core.Instrument(m, core.Options{Hooks: analysis.Set(analysis.KindLoad)})
	if err != nil {
		t.Fatal(err)
	}
	none, _, err := core.Instrument(m, core.Options{Hooks: 0})
	if err != nil {
		t.Fatal(err)
	}
	if full.CountInstrs() <= one.CountInstrs() {
		t.Errorf("full instrumentation (%d instrs) not larger than load-only (%d)", full.CountInstrs(), one.CountInstrs())
	}
	if none.CountInstrs() != m.CountInstrs() {
		t.Errorf("empty hook set changed instruction count: %d != %d", none.CountInstrs(), m.CountInstrs())
	}
	for _, mod := range []*wasm.Module{full, one, none} {
		if err := validate.Module(mod); err != nil {
			t.Errorf("instrumented module invalid: %v", err)
		}
	}
}
