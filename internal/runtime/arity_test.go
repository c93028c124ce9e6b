package runtime

// Regression test for the argReader bounds-check hole: the old generic
// dispatcher indexed the lowered argument vector without checking its
// length, so a corrupted or mismatched instrumented module — or an embedder
// invoking a hook import directly with the wrong arguments — panicked the
// host process with index-out-of-range. Trampolines compute the expected
// arity once at bind time and trap (TrapInvalidMetadata) on any mismatch.

import (
	"strings"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
)

func TestHookArityMismatchTrapsNotPanics(t *testing.T) {
	instrumented, md := instrumentAllKinds(t)
	rec := &recorder{}
	rt := New(md, rec)
	inst, err := interp.Instantiate(instrumented, rt.Imports())
	if err != nil {
		t.Fatal(err)
	}

	for i := range md.Hooks {
		spec := &md.Hooks[i]
		lay := spec.Layout()
		tramp, _ := rt.compileTrampoline(spec, lay)
		full := synthArgs(spec, lay.Arity)
		for _, bad := range [][]interp.Value{
			nil,
			full[:lay.Arity-1],
			append(append([]interp.Value(nil), full...), 0),
		} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("hook %s: %d args panicked the host: %v", spec.Name, len(bad), r)
					}
				}()
				err := tramp(inst, bad)
				if err == nil {
					t.Errorf("hook %s: %d lowered args (want %d) must trap", spec.Name, len(bad), lay.Arity)
					return
				}
				trap, ok := err.(*interp.Trap)
				if !ok {
					t.Errorf("hook %s: error is %T, want *interp.Trap", spec.Name, err)
					return
				}
				if trap.Code != TrapInvalidMetadata {
					t.Errorf("hook %s: trap code %q, want %q", spec.Name, trap.Code, TrapInvalidMetadata)
				}
			}()
		}
	}
}

// TestHookImportInvokedDirectlyTraps drives the mismatch end-to-end: an
// embedder calling a hook import through the public invoke path with too few
// arguments must get an error back, not a crash.
func TestHookImportInvokedDirectlyTraps(t *testing.T) {
	m := parityModule()
	instrumented, md, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	rt := New(md, rec)
	inst, err := interp.Instantiate(instrumented, rt.Imports())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("direct hook invocation panicked the host: %v", r)
		}
	}()
	// Hook imports sit at [NumImportedFuncs, NumImportedFuncs+NumHooks) in
	// the instrumented index space, in metadata order.
	for k := range md.Hooks {
		idx := uint32(md.NumImportedFuncs + k)
		_, err := inst.InvokeIdx(idx) // zero args; every hook wants >= 2
		if err == nil {
			t.Fatalf("hook %s: 0-arg direct invocation must error", md.Hooks[k].Name)
		}
		if !strings.Contains(err.Error(), TrapInvalidMetadata) {
			t.Errorf("hook %s: error %q does not mention %q", md.Hooks[k].Name, err, TrapInvalidMetadata)
		}
	}
}
