package core

import (
	"strings"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/builder"
	"wasabi/internal/validate"
	"wasabi/internal/wasm"
)

// buildCallModule: an import, two defined functions, an indirect call, an
// export, elem segment, and a start function — everything the index
// remapping must handle.
func buildCallModule() *wasm.Module {
	b := builder.New()
	host := b.ImportFunc("env", "host", builder.Sig(builder.V(wasm.I32), nil))
	b.Table(2)
	b.Memory(1)

	leaf := b.Func("leaf", builder.V(wasm.I32), builder.V(wasm.I32))
	leaf.Get(0).I32(1).Op(wasm.OpI32Add)
	leaf.Done()

	b.Elem(0, leaf.Index)

	main := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I32))
	main.Get(0).Call(host)
	main.Get(0).Call(leaf.Index)
	main.Get(0).I32(0).CallIndirect(builder.V(wasm.I32), builder.V(wasm.I32))
	main.Op(wasm.OpI32Add)
	main.Done()

	setup := b.Func("", nil, nil)
	setup.Op(wasm.OpNop)
	b.Start(setup.Done())
	return b.Build()
}

func TestIndexRemapping(t *testing.T) {
	m := buildCallModule()
	out, md, err := Instrument(m, Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	if err := validate.Module(out); err != nil {
		t.Fatalf("instrumented module invalid: %v", err)
	}
	k := md.NumHooks
	if k == 0 {
		t.Fatal("no hooks generated")
	}
	// Hook imports sit right after the original import.
	if len(out.Imports) != 1+k {
		t.Fatalf("imports: %d, want %d", len(out.Imports), 1+k)
	}
	if out.Imports[0].Name != "host" {
		t.Error("original import not first")
	}
	for _, imp := range out.Imports[1:] {
		if imp.Module != HookModule {
			t.Errorf("hook import in wrong module %q", imp.Module)
		}
	}
	// Hook import names must be sorted (deterministic output).
	for i := 2; i < len(out.Imports); i++ {
		if out.Imports[i-1].Name > out.Imports[i].Name {
			t.Errorf("hook imports not sorted: %q > %q", out.Imports[i-1].Name, out.Imports[i].Name)
		}
	}
	// Exports shifted by k.
	origLeaf, _ := m.ExportedFunc("leaf")
	newLeaf, _ := out.ExportedFunc("leaf")
	if newLeaf != origLeaf+uint32(k) {
		t.Errorf("leaf export %d, want %d", newLeaf, origLeaf+uint32(k))
	}
	// Elem and start shifted.
	if out.Elems[0].Funcs[0] != m.Elems[0].Funcs[0]+uint32(k) {
		t.Errorf("elem not remapped: %d", out.Elems[0].Funcs[0])
	}
	if *out.Start != *m.Start+uint32(k) {
		t.Errorf("start not remapped: %d", *out.Start)
	}
	// Metadata reverse mapping.
	if got := md.OriginalFuncIdx(int(newLeaf)); got != int(origLeaf) {
		t.Errorf("OriginalFuncIdx(%d) = %d, want %d", newLeaf, got, origLeaf)
	}
	if got := md.OriginalFuncIdx(0); got != 0 {
		t.Errorf("imported function should map to itself, got %d", got)
	}
}

func TestDeterministicOutput(t *testing.T) {
	m := buildCallModule()
	enc := func(par int) []byte {
		out, _, err := Instrument(m, Options{Hooks: analysis.AllHooks, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		data, err := binary.Encode(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := enc(1)
	for i := 0; i < 4; i++ {
		if string(enc(4)) != string(first) {
			t.Fatal("parallel instrumentation produced different bytes than sequential")
		}
	}
}

func TestInputModuleUnmodified(t *testing.T) {
	m := buildCallModule()
	before, err := binary.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Instrument(m, Options{Hooks: analysis.AllHooks}); err != nil {
		t.Fatal(err)
	}
	after, err := binary.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("Instrument mutated its input module")
	}
}

func TestSelectivityPerKind(t *testing.T) {
	m := buildCallModule()
	baseline := m.CountInstrs()
	// Each single-kind instrumentation must touch only matching call sites:
	// instrumenting loads in a module without loads must be a no-op.
	out, md, err := Instrument(m, Options{Hooks: analysis.Set(analysis.KindLoad)})
	if err != nil {
		t.Fatal(err)
	}
	if out.CountInstrs() != baseline || md.NumHooks != 0 {
		t.Errorf("load-instrumenting a loadless module changed it: %d instrs, %d hooks",
			out.CountInstrs(), md.NumHooks)
	}
	// Call instrumentation must generate pre+post hooks for each signature
	// (direct [i32]->[], [i32]->[i32]; indirect [i32]->[i32]).
	_, md, err = Instrument(m, Options{Hooks: analysis.Set(analysis.KindCall)})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, h := range md.Hooks {
		names = append(names, h.Name)
	}
	// call_pre is monomorphized on parameter types only, so the [i32]->[]
	// and [i32]->[i32] callees share call_pre_i32; the result types split
	// call_post into two variants.
	want := []string{"call_post", "call_post_i32", "call_pre_i32", "call_pre_indirect_i32"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("call hooks = %v, want %v", names, want)
	}
}

func TestOnDemandMonomorphization(t *testing.T) {
	// A module with i64 and f64 drops gets exactly two drop hook variants.
	b := builder.New()
	f := b.Func("f", nil, nil)
	f.I64(1).Drop()
	f.F64(1).Drop()
	f.I64(2).Drop()
	f.Done()
	m := b.Build()
	_, md, err := Instrument(m, Options{Hooks: analysis.Set(analysis.KindDrop)})
	if err != nil {
		t.Fatal(err)
	}
	if md.NumHooks != 2 {
		t.Fatalf("expected 2 monomorphic drop hooks, got %d: %+v", md.NumHooks, md.Hooks)
	}
	seen := map[string]bool{}
	for _, h := range md.Hooks {
		seen[h.Name] = true
	}
	if !seen["drop_i64"] || !seen["drop_f64"] {
		t.Errorf("wrong drop variants: %v", seen)
	}
}

func TestHookImportSignaturesAreHostCompatible(t *testing.T) {
	// No generated hook import may take an i64 parameter: i64 values must
	// cross the host boundary as two i32 halves (paper §2.4.6).
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I64), builder.V(wasm.I64))
	g := b.GlobalI64(true, 5)
	f.Get(0).I64(3).Op(wasm.OpI64Mul)
	f.GGet(g).Op(wasm.OpI64Add).GSet(g)
	f.GGet(g)
	f.Done()
	m := b.Build()
	out, md, err := Instrument(m, Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range md.Hooks {
		wt := h.WasmType()
		for _, p := range wt.Params {
			if p == wasm.I64 {
				t.Errorf("hook %s has i64 parameter: %s", h.Name, wt)
			}
		}
		if len(wt.Results) != 0 {
			t.Errorf("hook %s has results: %s", h.Name, wt)
		}
	}
	if err := validate.Module(out); err != nil {
		t.Fatal(err)
	}
}

func TestBrTableMetadata(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), nil)
	f.Block()                    // instr 0, end at ...
	f.Loop()                     // instr 1
	f.Block()                    // instr 2
	f.Get(0)                     // 3
	f.BrTable([]uint32{0, 1}, 2) // 4: targets inner block, loop, outer block
	f.End()                      // 5
	f.Br(1)                      // 6 (avoid infinite loop)
	f.End()                      // 7
	f.End()                      // 8
	f.Done()
	m := b.Build()
	_, md, err := Instrument(m, Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	if len(md.BrTables) != 1 {
		t.Fatalf("br_table records: %d", len(md.BrTables))
	}
	info := md.BrTables[0]
	if info.Loc.Instr != 4 {
		t.Errorf("br_table loc = %v", info.Loc)
	}
	if len(info.Targets) != 2 {
		t.Fatalf("targets: %d", len(info.Targets))
	}
	// Label 0 → inner block → lands after its end (instr 6), leaves 1 block.
	if info.Targets[0].Instr != 6 || len(info.Targets[0].Ends) != 1 {
		t.Errorf("target 0: %+v", info.Targets[0])
	}
	// Label 1 → loop → back edge to instr 2, leaves 2 blocks (block+loop).
	if info.Targets[1].Instr != 2 || len(info.Targets[1].Ends) != 2 {
		t.Errorf("target 1: %+v", info.Targets[1])
	}
	// Default label 2 → outer block → after instr 8, leaves 3 blocks.
	if info.Default.Instr != 9 || len(info.Default.Ends) != 3 {
		t.Errorf("default: %+v", info.Default)
	}
	// Ends are innermost-first.
	if info.Default.Ends[0].Kind != analysis.BlockBlock ||
		info.Default.Ends[1].Kind != analysis.BlockLoop ||
		info.Default.Ends[2].Kind != analysis.BlockBlock {
		t.Errorf("end order: %+v", info.Default.Ends)
	}
}

func TestDeadCodeNotInstrumented(t *testing.T) {
	b := builder.New()
	f := b.Func("f", nil, builder.V(wasm.I32))
	f.I32(1)
	f.Return()
	// Dead code below: must not be instrumented (no hooks can ever fire,
	// and stack types are polymorphic there).
	f.I32(2).I32(3).Op(wasm.OpI32Add).Drop()
	f.I32(9)
	f.Done()
	m := b.Build()
	out, _, err := Instrument(m, Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	if err := validate.Module(out); err != nil {
		t.Fatalf("instrumented dead code invalid: %v", err)
	}
	// The live const 1 gets a hook call; the dead consts must not.
	calls := 0
	deadConstHooked := false
	body := out.Funcs[0].Body
	for i, in := range body {
		if in.Op == wasm.OpCall {
			calls++
		}
		if in.Op == wasm.OpI32Const && in.ConstI32() == 2 && i+1 < len(body) {
			// The next instructions should be the original i32.const 3.
			if body[i+1].Op != wasm.OpI32Const || body[i+1].ConstI32() != 3 {
				deadConstHooked = true
			}
		}
	}
	if calls == 0 {
		t.Error("live code not instrumented")
	}
	if deadConstHooked {
		t.Error("dead code was instrumented")
	}
}

func TestInvalidInputRejected(t *testing.T) {
	b := builder.New()
	f := b.Func("f", nil, builder.V(wasm.I32))
	f.Op(wasm.OpI32Add) // underflow
	f.Done()
	if _, _, err := Instrument(b.Build(), Options{Hooks: analysis.AllHooks}); err == nil {
		t.Error("expected invalid input to be rejected")
	}
}

func TestControlMatches(t *testing.T) {
	body := []wasm.Instr{
		wasm.BlockInstr(wasm.BlockEmpty), // 0
		wasm.LoopInstr(wasm.BlockEmpty),  // 1
		wasm.I32Const(1),                 // 2
		wasm.IfInstr(wasm.BlockEmpty),    // 3
		{Op: wasm.OpElse},                // 4
		wasm.End(),                       // 5 (if)
		wasm.End(),                       // 6 (loop)
		wasm.End(),                       // 7 (block)
		wasm.End(),                       // 8 (function)
	}
	matchEnd, matchElse, err := controlMatches(body)
	if err != nil {
		t.Fatal(err)
	}
	if matchEnd[0] != 7 || matchEnd[1] != 6 || matchEnd[3] != 5 {
		t.Errorf("matchEnd: %v", matchEnd)
	}
	if matchElse[3] != 4 {
		t.Errorf("matchElse: %v", matchElse)
	}
	if matchEnd[4] != 5 {
		t.Errorf("else shares the if's end: %v", matchEnd)
	}

	if _, _, err := controlMatches([]wasm.Instr{wasm.BlockInstr(wasm.BlockEmpty), wasm.End()}); err == nil {
		t.Error("missing function end not detected")
	}
	if _, _, err := controlMatches([]wasm.Instr{{Op: wasm.OpElse}, wasm.End()}); err == nil {
		t.Error("stray else not detected")
	}
}

func TestScratchAllocReuse(t *testing.T) {
	var a scratchAlloc
	a.reset(3)
	x := a.take(wasm.I32)
	y := a.take(wasm.I32)
	z := a.take(wasm.F64)
	if x == y {
		t.Error("same-instruction takes must differ")
	}
	if x != 3 || y != 4 || z != 5 {
		t.Errorf("indices: %d %d %d", x, y, z)
	}
	a.release()
	if got := a.take(wasm.I32); got != x {
		t.Errorf("after release, i32 scratch should be reused: %d", got)
	}
	if len(a.types) != 3 {
		t.Errorf("pool size %d, want 3", len(a.types))
	}
}

func TestHookRegistryConcurrency(t *testing.T) {
	r := newHookRegistry(100)
	done := make(chan map[string]uint32, 8)
	for g := 0; g < 8; g++ {
		go func() {
			got := map[string]uint32{}
			for i := 0; i < 100; i++ {
				for _, op := range []wasm.Opcode{wasm.OpI32Add, wasm.OpF64Mul, wasm.OpI64Xor} {
					s := specBinary(op)
					got[s.Name] = r.get(s)
				}
			}
			done <- got
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		other := <-done
		for k, v := range first {
			if other[k] != v {
				t.Errorf("hook %s got different indices: %d vs %d", k, v, other[k])
			}
		}
	}
	specs, perm := r.finalize()
	if len(specs) != 3 || len(perm) != 3 {
		t.Errorf("finalize: %d specs", len(specs))
	}
	for i := 1; i < len(specs); i++ {
		if specs[i-1].Name > specs[i].Name {
			t.Error("finalize must sort by name")
		}
	}
}

// TestModuleInfoMatchesModule pins buildModuleInfo's one-pass name and type
// filling to Module.FuncName and the declared types, on a module whose
// imports interleave functions and a global and whose name section names an
// import and only some defined functions.
func TestModuleInfoMatchesModule(t *testing.T) {
	m := &wasm.Module{
		Types: []wasm.FuncType{{}, {Params: []wasm.ValType{wasm.I32}}},
		Imports: []wasm.Import{
			{Module: "env", Name: "a", Kind: wasm.ExternFunc, TypeIdx: 1},
			{Module: "env", Name: "g", Kind: wasm.ExternGlobal, Global: wasm.GlobalType{Type: wasm.I32}},
			{Module: "env", Name: "b", Kind: wasm.ExternFunc, TypeIdx: 0},
		},
		Funcs:     []wasm.Func{{TypeIdx: 0}, {TypeIdx: 1}, {TypeIdx: 0}},
		Globals:   []wasm.Global{{Type: wasm.GlobalType{Type: wasm.I64}}},
		FuncNames: map[uint32]string{1: "renamed_import", 3: "named"},
	}
	info := buildModuleInfo(m, m.IndexSpace())
	if info.NumImportedFuncs != 2 || info.NumGlobals != 2 || len(info.FuncNames) != 5 {
		t.Fatalf("info = %d imported funcs, %d globals, %d names", info.NumImportedFuncs, info.NumGlobals, len(info.FuncNames))
	}
	wantTypes := []uint32{1, 0, 0, 1, 0}
	for i := range info.FuncNames {
		if want := m.FuncName(uint32(i)); info.FuncNames[i] != want {
			t.Errorf("FuncNames[%d] = %q, want %q", i, info.FuncNames[i], want)
		}
		if !info.FuncTypes[i].Equal(m.Types[wantTypes[i]]) {
			t.Errorf("FuncTypes[%d] = %s, want %s", i, info.FuncTypes[i], m.Types[wantTypes[i]])
		}
	}
}
