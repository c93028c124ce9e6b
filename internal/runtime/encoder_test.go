package runtime

// Unit parity + allocation guard for the record encoders (the stream
// siblings of the trampolines): every generated HookSpec is dispatched
// through the callback trampoline (bound to the callback Tracer) and the
// record encoder (whose records are decoded by the StreamTracer) on
// identical lowered argument vectors, and the formatted event lines must
// match exactly — the strongest available statement that the packed record
// format carries everything the callbacks carry. The allocation guard is
// TestDispatchZeroAllocs's twin for the stream path.

import (
	"fmt"
	"testing"

	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
)

// encoderFixture compiles every encoder against an emitter, next to a
// trampoline set bound to a callback tracer on the same metadata.
type encoderFixture struct {
	md      *core.Metadata
	inst    *interp.Instance
	em      *Emitter
	sub     *Subscription // the fixture's one consumer, never drained unless a test does
	tracer  *analyses.Tracer
	specs   []*core.HookSpec
	tramps  []hookFn
	encs    []emitFn
	encNoop []bool
}

func newEncoderFixture(t testing.TB, batchSize int, mode Backpressure) *encoderFixture {
	t.Helper()
	instrumented, md := instrumentAllKinds(t)
	tracer := analyses.NewTracer()
	rtT := New(md, probeTracer{tracer})

	em := NewEmitter(batchSize)
	sub, err := em.Subscribe(StreamQueue, mode)
	if err != nil {
		t.Fatal(err)
	}
	rtE := New(md, struct{}{})
	rtE.SetEmitter(em, analysis.AllCaps|analysis.CapBlockCoverage) // AllCaps leaves block probes out

	inst, err := interp.Instantiate(instrumented, rtT.Imports())
	if err != nil {
		t.Fatal(err)
	}
	rtE.BindInstance(inst)
	tracer.Events = nil // drop what the start function traced while instantiating

	fx := &encoderFixture{md: md, inst: inst, em: em, sub: sub, tracer: tracer}
	for i := range md.Hooks {
		spec := &md.Hooks[i]
		lay := spec.Layout()
		tramp, tn := rtT.compileTrampoline(spec, lay)
		if tn {
			t.Fatalf("hook %s: tracer bound to no-op trampoline", spec.Name)
		}
		enc, en := rtE.compileEncoder(spec, lay, i)
		if en {
			t.Fatalf("hook %s: AllCaps stream bound to no-op encoder", spec.Name)
		}
		fx.specs = append(fx.specs, spec)
		fx.tramps = append(fx.tramps, tramp)
		fx.encs = append(fx.encs, enc)
		fx.encNoop = append(fx.encNoop, en)
	}
	return fx
}

// probeTracer gives the callback Tracer the block-probe callback it leaves
// out (implementing it would opt the Tracer into block-probe
// instrumentation on static-analysis engines), in StreamTracer's format.
type probeTracer struct{ *analyses.Tracer }

func (p probeTracer) BlockCovered(l analysis.Location, end int) {
	p.Events = append(p.Events, fmt.Sprintf("%v block_probe %v", l, analysis.Location{Func: l.Func, Instr: end}))
}

func TestEncoderParityWithTrampolines(t *testing.T) {
	fx := newEncoderFixture(t, 1<<14, Block)
	for i, spec := range fx.specs {
		args := synthArgs(spec, spec.Layout().Arity)
		if err := fx.tramps[i](fx.inst, args); err != nil {
			t.Fatalf("hook %s: trampoline: %v", spec.Name, err)
		}
		fx.encs[i](fx.inst, args)
	}
	fx.em.Close()

	st := analyses.NewStreamTracer()
	st.SetEventTable(fx.md.EventTable())
	for {
		batch, ok := fx.sub.Next()
		if !ok {
			break
		}
		st.Events(batch)
	}

	// The callback tracer formats location-first; both tracers share the
	// format strings, so compare line for line.
	if len(st.Lines) != len(fx.tracer.Events) {
		t.Fatalf("stream decoded %d events, callbacks dispatched %d", len(st.Lines), len(fx.tracer.Events))
	}
	for i := range st.Lines {
		if st.Lines[i] != fx.tracer.Events[i] {
			t.Errorf("event %d:\n  callback: %s\n  stream:   %s", i, fx.tracer.Events[i], st.Lines[i])
		}
	}
	if len(st.Lines) == 0 {
		t.Fatal("parity suite produced no events")
	}
}

// TestEncoderDeadHookElision pins that hooks outside the stream capability
// set compile to elidable no-ops, exactly like dead callback hooks.
func TestEncoderDeadHookElision(t *testing.T) {
	m := parityModule()
	_, md, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(md, struct{}{})
	rt.SetEmitter(NewEmitter(16), analysis.CapBinary)
	for i := range md.Hooks {
		spec := &md.Hooks[i]
		_, noop := rt.compileEncoder(spec, spec.Layout(), i)
		if want := spec.Kind != analysis.KindBinary; noop != want {
			t.Errorf("hook %s: noop = %v, want %v under CapBinary-only stream", spec.Name, noop, want)
		}
	}
}

// TestStreamEmitZeroAllocs is the stream twin of TestDispatchZeroAllocs:
// steady-state record emission — including batch hand-off and Drop-mode
// recycling — must not allocate, for every hook kind.
func TestStreamEmitZeroAllocs(t *testing.T) {
	fx := newEncoderFixture(t, 256, Drop) // small batches: exercise flush/drop inside the measurement
	for i, spec := range fx.specs {
		args := synthArgs(spec, spec.Layout().Arity)
		enc := fx.encs[i]
		allocs := testing.AllocsPerRun(200, func() {
			enc(fx.inst, args)
		})
		if allocs != 0 {
			t.Errorf("hook %s: %.1f allocs/op, want 0", spec.Name, allocs)
		}
	}
	if fx.em.Dropped() == 0 {
		t.Error("no batch was dropped; the guard did not exercise the flush path")
	}
}
