package interp_test

// Tests for the threaded-code compile pass: pre-resolved branches, stack
// adjustments, dead-code elision, and the fusion peepholes — in particular
// the cases where a fused group could illegally straddle a branch target.

import (
	"strings"
	"testing"

	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// TestDeadCodeSkipped: instructions after a return are statically dead and
// must be skipped by the compile pass, even when they would not type-check
// (the spec's polymorphic-stack rule makes them valid).
func TestDeadCodeSkipped(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).Return()
	// Dead: operand-stack underflow, nested dead blocks, a dead else.
	f.Op(wasm.OpI32Add)
	f.Block().Loop().Br(0).End().End()
	f.If().I32(1).Else().I32(2).End()
	f.Done()
	inst, err := interp.Instantiate(b.Build(), nil)
	if err != nil {
		t.Fatalf("dead code must compile: %v", err)
	}
	if got := invokeI32(t, inst, "f", interp.I32(9)); got != 9 {
		t.Errorf("f(9) = %d", got)
	}
}

// TestBrTableToFunctionLabel: a br_table target may be the function label
// itself, which the compiled form resolves to the final return.
func TestBrTableToFunctionLabel(t *testing.T) {
	// f(x): index 0 returns x+100 directly via the function label; any other
	// index leaves the block carrying x+100 and adds 1 on the way out.
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.BlockT(wasm.I32)
	f.Get(0).I32(100).Op(wasm.OpI32Add) // carried value
	f.Get(0)                            // br_table index
	f.BrTable([]uint32{1}, 0)           // 0 -> function label, default -> block end
	f.End()
	f.I32(1).Op(wasm.OpI32Add)
	f.Done()
	m := b.Build()
	inst, err := interp.Instantiate(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int32{{0, 100}, {1, 102}, {9, 110}} {
		if got := invokeI32(t, inst, "f", interp.I32(c[0])); got != c[1] {
			t.Errorf("f(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

// TestBrCarriesValueWithDiscard: a br that carries a block result over
// to-be-discarded stack values exercises the adjusting branch form.
func TestBrCarriesValueWithDiscard(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.BlockT(wasm.I32)
	f.I32(11).I32(22) // two extra values below the carried one
	f.I32(33)
	f.Get(0).BrIf(0) // taken: discard 11/22, carry 33
	f.Drop().Drop().Drop().I32(44)
	f.End()
	f.Done()
	inst, err := interp.Instantiate(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := invokeI32(t, inst, "f", interp.I32(1)); got != 33 {
		t.Errorf("taken: %d, want 33", got)
	}
	if got := invokeI32(t, inst, "f", interp.I32(0)); got != 44 {
		t.Errorf("fallthrough: %d, want 44", got)
	}
}

// TestBrIfBackEdgeWithDiscard: a conditional back-edge to a loop header with
// extra operands on the stack must cut the stack on the taken path only.
func TestBrIfBackEdgeWithDiscard(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	i := f.Local(wasm.I32)
	f.Loop()
	f.I32(7) // extra operand alive across the br_if
	f.Get(i).I32(1).Op(wasm.OpI32Add).Set(i)
	f.Get(i).Get(0).Op(wasm.OpI32LtS).BrIf(0) // taken: must discard the 7
	f.Drop()
	f.End()
	f.Get(i)
	f.Done()
	inst, err := interp.Instantiate(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := invokeI32(t, inst, "f", interp.I32(5)); got != 5 {
		t.Errorf("f(5) = %d, want 5", got)
	}
	if got := invokeI32(t, inst, "f", interp.I32(0)); got != 1 {
		t.Errorf("f(0) = %d, want 1", got)
	}
}

// TestFusionBarrierAtElse: the add after the if must not fuse into the
// else arm's constant — the end of the if is a branch target.
func TestFusionBarrierAtElse(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0)
	f.IfT(wasm.I32).I32(1).Else().I32(2).End()
	f.I32(5).Op(wasm.OpI32Add)
	f.Done()
	inst, err := interp.Instantiate(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := invokeI32(t, inst, "f", interp.I32(1)); got != 6 {
		t.Errorf("then: %d, want 6", got)
	}
	if got := invokeI32(t, inst, "f", interp.I32(0)); got != 7 {
		t.Errorf("else: %d, want 7", got)
	}
}

// TestConstFolding: const;const;op folds at compile time for pure ops but
// must preserve the runtime trap of div/rem.
func TestConstFolding(t *testing.T) {
	b := builder.New()
	f := b.Func("folded", nil, builder.V(wasm.I32))
	f.I32(6).I32(7).Op(wasm.OpI32Mul)
	f.Done()
	g := b.Func("divtrap", nil, builder.V(wasm.I32))
	g.I32(1).I32(0).Op(wasm.OpI32DivU)
	g.Done()
	h := b.Func("divok", nil, builder.V(wasm.I32))
	h.I32(91).I32(13).Op(wasm.OpI32DivU)
	h.Done()
	inst, err := interp.Instantiate(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := invokeI32(t, inst, "folded"); got != 42 {
		t.Errorf("folded = %d", got)
	}
	if got := invokeI32(t, inst, "divok"); got != 7 {
		t.Errorf("divok = %d", got)
	}
	_, err = inst.Invoke("divtrap")
	if err == nil || !strings.Contains(err.Error(), interp.TrapDivByZero) {
		t.Errorf("division by constant zero must trap at runtime, got %v", err)
	}
}

// TestSetThenGetRewrite: set x; get x behaves exactly like tee x.
func TestSetThenGetRewrite(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	x := f.Local(wasm.I32)
	y := f.Local(wasm.I32)
	// y = (x0*2 stored to x, reloaded) + 1; returns y + x
	f.Get(0).I32(2).Op(wasm.OpI32Mul).Set(x)
	f.Get(x).I32(1).Op(wasm.OpI32Add).Set(y)
	f.Get(y).Get(x).Op(wasm.OpI32Add)
	f.Done()
	inst, err := interp.Instantiate(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := invokeI32(t, inst, "f", interp.I32(10)); got != 41 {
		t.Errorf("f(10) = %d, want 41", got)
	}
}

// TestSetTeeFusion: the set;tee pair written by the instrumenter around
// every hooked binary op.
func TestSetTeeFusion(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32, wasm.I32), builder.V(wasm.I32))
	sa := f.Local(wasm.I32)
	sb := f.Local(wasm.I32)
	f.Get(0).Get(1)
	f.Emit(wasm.LocalSet(sb), wasm.LocalTee(sa)) // the fused pair
	f.Get(sb).Op(wasm.OpI32Sub)
	f.Get(sa).Op(wasm.OpI32Mul)
	f.Done()
	inst, err := interp.Instantiate(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// (a-b)*a with a=9,b=4 -> 45
	res, err := inst.Invoke("f", interp.I32(9), interp.I32(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := interp.AsI32(res[0]); got != 45 {
		t.Errorf("f(9,4) = %d, want 45", got)
	}
}

// TestDropPeepholes: drop cancelling fused multi-pushes.
func TestDropPeepholes(t *testing.T) {
	b := builder.New()
	f := b.Func("f", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).Get(0).Drop()                // get-get, then peel one
	f.I32(3).I32(4).Drop()                // const pair, then peel one
	f.Op(wasm.OpI32Add)                   // x + 3
	f.Get(0).Get(0).Get(0).Drop()         // get-get-get, peel to a pair
	f.Op(wasm.OpI32Mul).Op(wasm.OpI32Add) // + x*x
	f.Done()
	inst, err := interp.Instantiate(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := invokeI32(t, inst, "f", interp.I32(5)); got != 33 {
		t.Errorf("f(5) = %d, want 33", got)
	}
}

// TestMalformedBodiesRejected: structurally broken bodies fail at
// instantiation, not by corrupting the interpreter at run time. The module
// is not validated first, so the compile pass's own index checks are what
// reject out-of-range call and global indices.
func TestMalformedBodiesRejected(t *testing.T) {
	cases := []struct {
		name  string
		build func(f *builder.FuncBuilder)
	}{
		{"underflow", func(f *builder.FuncBuilder) { f.Op(wasm.OpI32Add) }},
		{"unclosed block", func(f *builder.FuncBuilder) { f.Block().I32(1).Drop() }},
		{"bad branch depth", func(f *builder.FuncBuilder) { f.Br(3) }},
		{"bad local", func(f *builder.FuncBuilder) { f.Get(99).Drop() }},
		{"else without if", func(f *builder.FuncBuilder) { f.Block().Else().End() }},
		// f is the module's only function, so index 1 is NumFuncs.
		{"call past function space", func(f *builder.FuncBuilder) { f.Call(1) }},
		{"call max index", func(f *builder.FuncBuilder) { f.Call(^uint32(0)) }},
		{"global.get out of range", func(f *builder.FuncBuilder) { f.GGet(0).Drop() }},
		{"global.set out of range", func(f *builder.FuncBuilder) { f.I32(0).GSet(0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := builder.New()
			f := b.Func("f", nil, nil)
			tc.build(f)
			f.Done()
			if _, err := interp.InstantiateWith(nil, "", b.Build(), nil, interp.Config{}); err == nil {
				t.Error("expected instantiation error")
			}
		})
	}
}
