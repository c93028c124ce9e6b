package analyses_test

import (
	"strings"
	"testing"

	"wasabi/internal/analyses"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// TestTraceGoldenOrdering pins the exact hook-ordering semantics on a small
// program exercising calls, branches, and block nesting. If this test breaks,
// the observable event model of the framework changed.
func TestTraceGoldenOrdering(t *testing.T) {
	b := builder.New()
	callee := b.Func("callee", builder.V(wasm.I32), builder.V(wasm.I32))
	callee.Get(0).I32(1).Op(wasm.OpI32Add)
	callee.Done()

	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Block()                   // instr 0
	f.Get(0)                    // 1
	f.BrIf(0)                   // 2 : taken when arg != 0
	f.Op(wasm.OpNop)            // 3
	f.End()                     // 4
	f.Get(0).Call(callee.Index) // 5, 6
	f.Done()                    // 7 implicit-return end

	tr := analyses.NewTracer()
	sess, err := analyze(b.Build(), tr)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("main", interp.I32(5)); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"1:-1 begin function", // main entry (function index 1)
		"1:0 begin block",
		"1:1 local.get 0 5:i32",
		"1:2 br_if true ->1:5",      // resolved target: after the block's end
		"1:4 end block (begin 1:0)", // traversed-block end, fired on the taken branch
		"1:5 local.get 0 5:i32",
		"1:6 call_pre f0 args=[5:i32] tbl=-1",
		"0:-1 begin function", // callee entry, after call_pre
		"0:0 local.get 0 5:i32",
		"0:1 const 1:i32",
		"0:2 i32.add 5:i32 1:i32 -> 6:i32",
		"0:3 return [6:i32]", // implicit return at callee's final end
		"0:3 end function (begin 0:-1)",
		"1:6 call_post [6:i32]", // after the callee completed
		"1:7 return [6:i32]",
		"1:7 end function (begin 1:-1)",
	}
	got := tr.Events
	if len(got) != len(want) {
		t.Fatalf("trace has %d events, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// TestTraceNotTakenBranch checks the complementary path: a br_if that is not
// taken must NOT fire the traversed-end hooks, and the block must end via
// its normal end instead.
func TestTraceNotTakenBranch(t *testing.T) {
	b := builder.New()
	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Block()
	f.Get(0)
	f.BrIf(0)
	f.Op(wasm.OpNop)
	f.End()
	f.Get(0)
	f.Done()

	tr := analyses.NewTracer()
	sess, err := analyze(b.Build(), tr)
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
	joined := strings.Join(tr.Events, "\n")
	if !strings.Contains(joined, "br_if false") {
		t.Fatalf("missing br_if event:\n%s", joined)
	}
	if !strings.Contains(joined, "0:3 nop") {
		t.Errorf("fallthrough nop missing:\n%s", joined)
	}
	// Exactly one end-of-block event (the natural one at instr 4).
	if got := strings.Count(joined, "end block"); got != 1 {
		t.Errorf("expected exactly 1 block end, got %d:\n%s", got, joined)
	}
}
