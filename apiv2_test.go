package wasabi_test

// Tests for the engine-centric API v2: compile-once / instrument-many
// sessions, multi-instance linking through the named-instance registry,
// the hook-import collision and ErrNoHooks error paths, and the borrowed
// value-vector ownership contract.

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"wasabi"
	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/wasm"
)

// TestInstrumentOnceManySessions: one Engine.Instrument result drives many
// sessions with distinct analysis values, and repeated Instrument calls for
// the same (module, caps) return the cached CompiledAnalysis.
func TestInstrumentOnceManySessions(t *testing.T) {
	m := buildTestModule()
	engine := mustEngine(t)
	compiled, err := engine.Instrument(m, wasabi.AllCaps)
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	if again, err := engine.Instrument(m, wasabi.AllCaps); err != nil || again != compiled {
		t.Errorf("second Instrument of the same module+caps: got (%p, %v), want cached %p", again, err, compiled)
	}
	engine.Uncache(m)
	if again, err := engine.Instrument(m, wasabi.AllCaps); err != nil || again == compiled {
		t.Errorf("Instrument after Uncache: got (%p, %v), want a fresh instrumentation", again, err)
	}

	var ref *recordingAnalysis
	var refResult int32
	for i := 0; i < 3; i++ {
		rec := newRecording()
		sess, err := compiled.NewSession(rec)
		if err != nil {
			t.Fatalf("NewSession %d: %v", i, err)
		}
		inst, err := sess.Instantiate("", nil)
		if err != nil {
			t.Fatalf("Instantiate %d: %v", i, err)
		}
		res, err := inst.Invoke("main", interp.I32(10))
		if err != nil {
			t.Fatalf("Invoke %d: %v", i, err)
		}
		if ref == nil {
			ref, refResult = rec, interp.AsI32(res[0])
			continue
		}
		if got := interp.AsI32(res[0]); got != refResult {
			t.Errorf("session %d: main(10) = %d, want %d", i, got, refResult)
		}
		if !reflect.DeepEqual(rec.counts, ref.counts) {
			t.Errorf("session %d counts differ:\n%v\n%v", i, rec.counts, ref.counts)
		}
		if !reflect.DeepEqual(rec.callTargets, ref.callTargets) || !reflect.DeepEqual(rec.i64Seen, ref.i64Seen) {
			t.Errorf("session %d observed different pre-computed values", i)
		}
	}
}

// TestConcurrentSessions is the race/isolation stress test: N goroutines,
// each with its own Session and instance off ONE CompiledAnalysis, must
// observe identical, isolated, deterministic event streams. Run with
// -race (CI does).
func TestConcurrentSessions(t *testing.T) {
	m := buildTestModule()
	engine := mustEngine(t)
	compiled, err := engine.Instrument(m, wasabi.AllCaps)
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}

	const n = 8
	recs := make([]*recordingAnalysis, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := newRecording()
			recs[g] = rec
			sess, err := compiled.NewSession(rec)
			if err != nil {
				errs[g] = err
				return
			}
			inst, err := sess.Instantiate("", nil)
			if err != nil {
				errs[g] = err
				return
			}
			_, errs[g] = inst.Invoke("main", interp.I32(10))
		}(g)
	}
	wg.Wait()

	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatalf("session %d: %v", g, errs[g])
		}
		if len(recs[g].counts) == 0 {
			t.Fatalf("session %d observed no events", g)
		}
		if g == 0 {
			continue
		}
		if !reflect.DeepEqual(recs[g].counts, recs[0].counts) {
			t.Errorf("session %d event counts differ from session 0:\n%v\n%v", g, recs[g].counts, recs[0].counts)
		}
		if !reflect.DeepEqual(recs[g].callTargets, recs[0].callTargets) ||
			!reflect.DeepEqual(recs[g].brTableTaken, recs[0].brTableTaken) ||
			!reflect.DeepEqual(recs[g].i64Seen, recs[0].i64Seen) {
			t.Errorf("session %d observed a different event stream than session 0", g)
		}
	}
}

// libModule exports twice(x) = 2*x.
func libModule() *wasm.Module {
	b := builder.New()
	f := b.Func("twice", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).I32(2).Op(wasm.OpI32Mul)
	f.Done()
	return b.Build()
}

// appModuleImporting imports ("lib", "twice") and exports run(x) = twice(x)+1.
func appModuleImporting() *wasm.Module {
	b := builder.New()
	twice := b.ImportFunc("lib", "twice", builder.Sig(builder.V(wasm.I32), builder.V(wasm.I32)))
	f := b.Func("run", builder.V(wasm.I32), builder.V(wasm.I32))
	f.Get(0).Call(twice).I32(1).Op(wasm.OpI32Add)
	f.Done()
	return b.Build()
}

// TestMultiInstanceLinking: an instance registered under a name becomes an
// import provider for later instantiations — including across sessions and
// compiled modules — and both sessions' analyses observe their own module's
// hooks.
func TestMultiInstanceLinking(t *testing.T) {
	engine := mustEngine(t)

	libRec := newRecording()
	libCompiled, err := engine.Instrument(libModule(), wasabi.AllCaps)
	if err != nil {
		t.Fatalf("instrument lib: %v", err)
	}
	libSess, err := libCompiled.NewSession(libRec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := libSess.Instantiate("lib", nil); err != nil {
		t.Fatalf("instantiate lib: %v", err)
	}

	appRec := newRecording()
	appCompiled, err := engine.Instrument(appModuleImporting(), wasabi.AllCaps)
	if err != nil {
		t.Fatalf("instrument app: %v", err)
	}
	appSess, err := appCompiled.NewSession(appRec)
	if err != nil {
		t.Fatal(err)
	}
	appInst, err := appSess.Instantiate("app", nil) // "lib".twice resolves from the registry
	if err != nil {
		t.Fatalf("instantiate app: %v", err)
	}

	res, err := appInst.Invoke("run", interp.I32(20))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := interp.AsI32(res[0]); got != 41 {
		t.Errorf("run(20) = %d, want 41 (2*20+1 through the linked lib)", got)
	}
	// The app's analysis saw its call; the lib's analysis saw the arithmetic
	// inside twice — events stay with the session whose instance fired them.
	if appRec.counts["call_pre"] == 0 {
		t.Errorf("app session observed no call_pre events: %v", appRec.counts)
	}
	if libRec.counts["binary"] == 0 {
		t.Errorf("lib session observed no binary events from twice: %v", libRec.counts)
	}
	if libRec.counts["call_pre"] != 0 {
		t.Errorf("lib session observed the app's calls: %v", libRec.counts)
	}

	// Engines link through PRIVATE registries: the same instance name on
	// sessions of two other engines must not collide.
	for i := 0; i < 2; i++ {
		sess := analyzeFor(t, libModule(), newRecording())
		if _, err := sess.Instantiate("lib", nil); err != nil {
			t.Errorf("one-shot session %d: name %q collided across private registries: %v", i, "lib", err)
		}
	}

	// Registry bookkeeping: lookups and duplicate names.
	if _, ok := engine.Instance("lib"); !ok {
		t.Error("engine.Instance(\"lib\") not found")
	}
	if got := engine.InstanceNames(); !reflect.DeepEqual(got, []string{"app", "lib"}) {
		t.Errorf("InstanceNames = %v, want [app lib]", got)
	}
	if _, err := libSess.Instantiate("lib", nil); err == nil {
		t.Error("re-registering name \"lib\" must fail")
	}
}

// TestHookModuleCollision is the regression test for the silent-overwrite
// bug: program imports providing the generated hook namespace used to be
// clobbered by (or clobber) the hook imports; now they are rejected.
func TestHookModuleCollision(t *testing.T) {
	m := buildTestModule()
	engine := mustEngine(t)
	compiled, err := engine.Instrument(m, wasabi.AllCaps)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(newRecording())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Instantiate("", interp.Imports{
		core.HookModule: {"own_field": &interp.HostFunc{
			Type: wasm.FuncType{},
			Fn:   func(*interp.Instance, []interp.Value) ([]interp.Value, error) { return nil, nil },
		}},
	})
	if err == nil {
		t.Fatal("program imports providing the hook module must be rejected")
	}
	if !errors.Is(err, wasabi.ErrHookModuleCollision) {
		t.Errorf("error %v is not ErrHookModuleCollision", err)
	}
	// An instance NAME equal to the hook namespace is just as dangerous.
	if _, err := sess.Instantiate(core.HookModule, nil); !errors.Is(err, wasabi.ErrHookModuleCollision) {
		t.Errorf("instance named %q: error %v is not ErrHookModuleCollision", core.HookModule, err)
	}
	// And a module that already imports from the namespace cannot be
	// instrumented at all.
	b := builder.New()
	b.ImportFunc(core.HookModule, "f", builder.Sig(nil, nil))
	f := b.Func("g", nil, nil)
	f.Done()
	if _, err := engine.Instrument(b.Build(), wasabi.AllCaps); err == nil {
		t.Error("instrumenting a module that imports from the hook namespace must fail")
	}
}

// hookless implements no hook interface at all.
type hookless struct{}

// loadOnly implements exactly one hook.
type loadOnly struct{ n int }

func (l *loadOnly) Load(wasabi.Location, string, wasabi.MemArg, wasabi.Value) { l.n++ }

// TestErrNoHooks: every path that would silently instrument or observe
// nothing returns the typed error instead.
func TestErrNoHooks(t *testing.T) {
	m := buildTestModule()
	engine := mustEngine(t)
	// Instrumenting for nothing is rejected up front, by mask and by hook
	// set...
	if _, err := engine.Instrument(m, wasabi.Cap(0)); !errors.Is(err, wasabi.ErrNoHooks) {
		t.Errorf("Instrument(empty mask): err = %v, want ErrNoHooks", err)
	}
	if _, err := engine.InstrumentHooks(m, 0); !errors.Is(err, wasabi.ErrNoHooks) {
		t.Errorf("InstrumentHooks(empty hook set): err = %v, want ErrNoHooks", err)
	}
	// ...and an analysis that implements no hook neither selects a hook set
	// nor binds a session to a full instrumentation.
	if _, err := engine.InstrumentFor(m, &hookless{}); !errors.Is(err, wasabi.ErrNoHooks) {
		t.Errorf("InstrumentFor(hookless): err = %v, want ErrNoHooks", err)
	}
	compiled, err := engine.Instrument(m, wasabi.AllCaps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compiled.NewSession(&hookless{}); !errors.Is(err, wasabi.ErrNoHooks) {
		t.Errorf("NewSession(hookless): err = %v, want ErrNoHooks", err)
	}
	// Disjoint: instrumented only for loads, analysis only observes calls.
	loads, err := engine.Instrument(m, analysis.CapLoad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loads.NewSession(&callOnly{}); !errors.Is(err, wasabi.ErrNoHooks) {
		t.Errorf("NewSession(disjoint caps): err = %v, want ErrNoHooks", err)
	}
	// The matching single-hook analysis still binds and observes.
	la := &loadOnly{}
	sess, err := loads.NewSession(la)
	if err != nil {
		t.Fatalf("NewSession(loadOnly): %v", err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("main", interp.I32(3)); err != nil {
		t.Fatal(err)
	}
	if la.n == 0 {
		t.Error("load-only analysis observed no loads")
	}
}

type callOnly struct{}

func (callOnly) CallPre(wasabi.Location, int, []wasabi.Value, int64) {}

// cloningAnalysis retains cloned copies of borrowed call vectors, per the
// value-ownership contract.
type cloningAnalysis struct {
	pre [][]wasabi.Value
}

func (c *cloningAnalysis) CallPre(_ wasabi.Location, _ int, args []wasabi.Value, _ int64) {
	c.pre = append(c.pre, wasabi.Values(args).Clone())
}
func (c *cloningAnalysis) CallPost(wasabi.Location, []wasabi.Value) {}

// TestBorrowedValuesClone: cloned vectors survive buffer reuse with the
// right contents, across many calls with differing signatures.
func TestBorrowedValuesClone(t *testing.T) {
	b := builder.New()
	f64id := b.Func("f64id", builder.V(wasm.F64), builder.V(wasm.F64))
	f64id.Get(0)
	f64id.Done()
	big := b.Func("big", builder.V(wasm.I64, wasm.I32), builder.V(wasm.I64))
	big.Get(0)
	big.Done()
	f := b.Func("main", nil, builder.V(wasm.I32))
	f.F64(2.5).Call(f64id.Index).Op(wasm.OpDrop)
	f.I64(1 << 40).I32(7).Call(big.Index).Op(wasm.OpDrop)
	f.F64(9.25).Call(f64id.Index).Op(wasm.OpDrop)
	f.I32(0)
	f.Done()

	a := &cloningAnalysis{}
	inst, err := analyzeFor(t, b.Build(), a).Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("main"); err != nil {
		t.Fatal(err)
	}
	if len(a.pre) != 3 {
		t.Fatalf("saw %d calls, want 3", len(a.pre))
	}
	if got := a.pre[0]; len(got) != 1 || got[0].F64() != 2.5 {
		t.Errorf("call 1 cloned args = %v, want [2.5:f64]", got)
	}
	if got := a.pre[1]; len(got) != 2 || got[0].I64() != 1<<40 || got[1].I32() != 7 {
		t.Errorf("call 2 cloned args = %v, want [2^40:i64 7:i32]", got)
	}
	if got := a.pre[2]; len(got) != 1 || got[0].F64() != 9.25 {
		t.Errorf("call 3 cloned args = %v (buffer reuse leaked into a retained clone?)", got)
	}
}
