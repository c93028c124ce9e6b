package analyses_test

import (
	"strings"
	"testing"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// runOn instruments m for the analysis and invokes entry(arg).
// analyze instruments m on a fresh engine for the hooks a implements and
// binds a session for a.
func analyze(m *wasm.Module, a any) (*wasabi.Session, error) {
	engine, err := wasabi.NewEngine()
	if err != nil {
		return nil, err
	}
	compiled, err := engine.InstrumentFor(m, a)
	if err != nil {
		return nil, err
	}
	return compiled.NewSession(a)
}

func runOn(t *testing.T, m *wasm.Module, a any, entry string, arg int32) {
	t.Helper()
	sess, err := analyze(m, a)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke(entry, interp.I32(arg)); err != nil {
		t.Fatal(err)
	}
}

// loopModule: n iterations of mixed arithmetic with memory traffic.
func loopModule() *wasm.Module {
	b := builder.New()
	b.Memory(1)
	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I32))
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.I32)
	f.ForI32(i, func(fb *builder.FuncBuilder) { fb.Get(0) }, func(fb *builder.FuncBuilder) {
		fb.Get(acc).Get(i).Op(wasm.OpI32Add).Set(acc)
		fb.Get(acc).Get(i).Op(wasm.OpI32Xor).Set(acc)
		fb.Get(i).I32(4).Op(wasm.OpI32Mul).Get(acc).Store(wasm.OpI32Store, 0)
		fb.Get(i).I32(4).Op(wasm.OpI32Mul).Load(wasm.OpI32Load, 0).Set(acc)
	})
	f.Get(acc)
	f.Done()
	return b.Build()
}

func TestRegistryComplete(t *testing.T) {
	names := analyses.Names()
	if len(names) != 11 { // 8 paper analyses + empty + trace + origin
		t.Errorf("registry has %d analyses: %v", len(names), names)
	}
	for _, n := range names {
		a, err := analyses.New(n)
		if err != nil || a == nil {
			t.Errorf("New(%s): %v", n, err)
		}
	}
	if _, err := analyses.New("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestEmptyImplementsEverything(t *testing.T) {
	if got := analysis.HooksOf(&analyses.Empty{}); got != analysis.AllHooks {
		t.Errorf("Empty hook set = %s", got)
	}
}

func TestInstructionMixCounts(t *testing.T) {
	mix := analyses.NewInstructionMix()
	runOn(t, loopModule(), mix, "main", 10)
	// 10 iterations × 2 adds? i32.add appears twice per iteration (acc+i,
	// i*4 twice is mul)... count exact: per iter: add ×1 (acc+i), xor ×1,
	// mul ×2, plus the loop increment add ×1 and bound check ge_s ×1.
	if got := mix.Counts["i32.xor"]; got != 10 {
		t.Errorf("i32.xor = %d, want 10", got)
	}
	if got := mix.Counts["i32.mul"]; got != 20 {
		t.Errorf("i32.mul = %d, want 20", got)
	}
	if got := mix.Counts["i32.store"]; got != 10 {
		t.Errorf("i32.store = %d, want 10", got)
	}
	if mix.Total() == 0 || mix.Counts["i32.const"] == 0 {
		t.Error("mix missed basic instructions")
	}
	var sb strings.Builder
	mix.Report(&sb)
	if !strings.Contains(sb.String(), "i32.add") {
		t.Error("report missing rows")
	}
}

func TestBlockProfileHotLoop(t *testing.T) {
	prof := analyses.NewBlockProfile()
	runOn(t, loopModule(), prof, "main", 25)
	hot := prof.Hottest(1)
	if len(hot) != 1 {
		t.Fatal("no blocks profiled")
	}
	// The hottest block must be the loop header: 25 body iterations plus
	// the final pass that only evaluates the exit condition.
	if got := prof.Counts[hot[0]]; got != 26 {
		t.Errorf("hottest block count = %d, want 26", got)
	}
	if prof.Kinds[hot[0]] != analysis.BlockLoop {
		t.Errorf("hottest block kind = %s, want loop", prof.Kinds[hot[0]])
	}
}

func TestInstructionCoverageGrows(t *testing.T) {
	cov := analyses.NewInstructionCoverage()
	m := loopModule()
	sess, err := analyze(m, cov)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("main", interp.I32(0)); err != nil {
		t.Fatal(err)
	}
	zeroIter := len(cov.Covered)
	if zeroIter == 0 {
		t.Fatal("no coverage at all")
	}
	if _, err := inst.Invoke("main", interp.I32(3)); err != nil {
		t.Fatal(err)
	}
	if len(cov.Covered) <= zeroIter {
		t.Errorf("coverage did not grow: %d -> %d", zeroIter, len(cov.Covered))
	}
	// Coverage is a set: running again must not change it.
	after := len(cov.Covered)
	if _, err := inst.Invoke("main", interp.I32(3)); err != nil {
		t.Fatal(err)
	}
	if len(cov.Covered) != after {
		t.Error("coverage is not idempotent")
	}
}

func TestBranchCoverageDirections(t *testing.T) {
	cov := analyses.NewBranchCoverage()
	m := loopModule()
	sess, err := analyze(m, cov)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	// One iteration: the loop bound br_if sees false then true.
	if _, err := inst.Invoke("main", interp.I32(1)); err != nil {
		t.Fatal(err)
	}
	full, total := cov.FullyCovered()
	if total == 0 || full != total {
		t.Errorf("with 1 iteration the bound check sees both directions: %d/%d", full, total)
	}
}

func TestCallGraphEdges(t *testing.T) {
	b := builder.New()
	b.Table(1)
	leaf := b.Func("leaf", builder.V(wasm.I32), builder.V(wasm.I32))
	leaf.Get(0)
	leaf.Done()
	mid := b.Func("mid", builder.V(wasm.I32), builder.V(wasm.I32))
	mid.Get(0).Call(leaf.Index)
	mid.Done()
	b.Elem(0, leaf.Index)
	main := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I32))
	main.Get(0).Call(mid.Index)
	main.Get(0).I32(0).CallIndirect(builder.V(wasm.I32), builder.V(wasm.I32))
	main.Op(wasm.OpI32Add)
	main.Done()
	m := b.Build()

	cg := analyses.NewCallGraph()
	runOn(t, m, cg, "main", 5)

	mainIdx, midIdx, leafIdx := int(main.Index), int(mid.Index), int(leaf.Index)
	if cg.Edges[[2]int{mainIdx, midIdx}] != 1 {
		t.Errorf("main->mid edge missing: %v", cg.Edges)
	}
	if cg.Edges[[2]int{midIdx, leafIdx}] != 1 {
		t.Errorf("mid->leaf edge missing: %v", cg.Edges)
	}
	indirectEdge := [2]int{mainIdx, leafIdx}
	if cg.Edges[indirectEdge] != 1 || !cg.Indirect[indirectEdge] {
		t.Errorf("indirect main->leaf edge missing or not marked: %v %v", cg.Edges, cg.Indirect)
	}
	reach := cg.Reachable(mainIdx)
	if !reach[leafIdx] || !reach[midIdx] {
		t.Errorf("reachability wrong: %v", reach)
	}
}

func TestTaintThroughMemoryAndCalls(t *testing.T) {
	b := builder.New()
	b.Memory(1)
	src := b.ImportFunc("env", "source", builder.Sig(nil, builder.V(wasm.I32)))
	sink := b.ImportFunc("env", "sink", builder.Sig(builder.V(wasm.I32), nil))
	id := b.Func("id", builder.V(wasm.I32), builder.V(wasm.I32))
	id.Get(0)
	id.Done()
	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I32))
	v := f.Local(wasm.I32)
	// taint → through id() → through memory → sink
	f.Call(src).Call(id.Index).Set(v)
	f.I32(8).Get(v).Store(wasm.OpI32Store, 0)
	f.I32(8).Load(wasm.OpI32Load, 0).Call(sink)
	// clean value to the sink too
	f.I32(1).Call(sink)
	f.Get(0)
	f.Done()
	m := b.Build()

	taint := analyses.NewTaint()
	taint.Sources[int(src)] = true
	taint.Sinks[int(sink)] = true

	sess, err := analyze(m, taint)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", interp.Imports{"env": {
		"source": &interp.HostFunc{Type: builder.Sig(nil, builder.V(wasm.I32)),
			Fn: func(*interp.Instance, []interp.Value) ([]interp.Value, error) {
				return []interp.Value{interp.I32(99)}, nil
			}},
		"sink": &interp.HostFunc{Type: builder.Sig(builder.V(wasm.I32), nil),
			Fn: func(*interp.Instance, []interp.Value) ([]interp.Value, error) {
				return nil, nil
			}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("main", interp.I32(0)); err != nil {
		t.Fatal(err)
	}
	if len(taint.Flows) != 1 {
		t.Fatalf("flows = %d (%v), want exactly the memory-mediated one", len(taint.Flows), taint.Flows)
	}
	if taint.Flows[0].Sink != int(sink) || taint.Flows[0].ArgIdx != 0 {
		t.Errorf("flow = %+v", taint.Flows[0])
	}
}

func TestCryptominerSignature(t *testing.T) {
	miner := analyses.NewCryptominer()
	runOn(t, loopModule(), miner, "main", 100)
	if miner.Signature["i32.xor"] != 100 {
		t.Errorf("xor count = %d", miner.Signature["i32.xor"])
	}
	// 100 iterations is far below the volume threshold.
	if miner.Suspicious() {
		t.Error("small workload must not be flagged")
	}
}

func TestMemoryTraceCapAndLocality(t *testing.T) {
	tr := analyses.NewMemoryTrace()
	tr.Cap = 5
	runOn(t, loopModule(), tr, "main", 10)
	if len(tr.Accesses) != 5 {
		t.Errorf("cap not enforced: %d", len(tr.Accesses))
	}
	if tr.Dropped != 15 { // 10 loads + 10 stores - 5 kept
		t.Errorf("dropped = %d, want 15", tr.Dropped)
	}
	tr2 := analyses.NewMemoryTrace()
	runOn(t, loopModule(), tr2, "main", 10)
	if len(tr2.Accesses) != 20 {
		t.Errorf("unbounded trace = %d, want 20", len(tr2.Accesses))
	}
	// Sequential 4-byte strides are perfectly local at 64B.
	if loc := tr2.Strided(64); loc != 1 {
		t.Errorf("locality = %v", loc)
	}
}

func TestLinesOfCode(t *testing.T) {
	loc, err := analyses.LinesOfCode("cryptominer.go")
	if err != nil || loc < 10 || loc > 100 {
		t.Errorf("LinesOfCode = %d, %v", loc, err)
	}
	if _, err := analyses.LinesOfCode("missing.go"); err == nil {
		t.Error("missing file should error")
	}
}
