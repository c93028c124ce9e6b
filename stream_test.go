package wasabi_test

// End-to-end coverage of the event-stream surface: stream/callback parity
// over the Fig 9 workload (the tracer run both ways must produce identical
// event sequences — the acceptance bar of the stream pipeline), instruction
// -mix count parity, backpressure modes, the Stream ordering errors, and
// Session.Close's registry eviction. Everything here must be race-clean:
// the stream consumers run on their own goroutines.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/leakcheck"
	"wasabi/internal/polybench"
	"wasabi/internal/wasm"
)

// fig9Workload instruments the Fig 9 kernel (gemm) for all hooks on a fresh
// engine.
func fig9Workload(t *testing.T, n int32) (*wasabi.Engine, *wasabi.CompiledAnalysis) {
	t.Helper()
	k, ok := polybench.ByName("gemm")
	if !ok {
		t.Fatal("gemm kernel missing")
	}
	engine := mustEngine(t)
	compiled, err := engine.Instrument(k.Module(n), wasabi.AllCaps)
	if err != nil {
		t.Fatal(err)
	}
	return engine, compiled
}

func runCallbackTracer(t *testing.T, compiled *wasabi.CompiledAnalysis) []string {
	t.Helper()
	tr := analyses.NewTracer()
	sess, err := compiled.NewSession(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	return tr.Events
}

func runStreamTracer(t *testing.T, compiled *wasabi.CompiledAnalysis, opts ...wasabi.StreamOption) *analyses.StreamTracer {
	t.Helper()
	st := analyses.NewStreamTracer()
	sess, err := compiled.NewSession(st)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	stream, err := sess.Stream(opts...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		stream.Serve(st)
	}()
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	<-done
	if d := stream.Dropped(); d != 0 {
		t.Fatalf("block-mode stream dropped %d events", d)
	}
	return st
}

// TestStreamCallbackParity is the acceptance test of the stream pipeline:
// the tracer run through callbacks and through packed records over the
// Fig 9 workload must observe the identical event sequence.
func TestStreamCallbackParity(t *testing.T) {
	leakcheck.Check(t)
	_, compiled := fig9Workload(t, 8)
	want := runCallbackTracer(t, compiled)
	st := runStreamTracer(t, compiled)
	if len(want) == 0 {
		t.Fatal("callback tracer observed no events")
	}
	if len(st.Lines) != len(want) {
		t.Fatalf("stream observed %d events, callbacks %d", len(st.Lines), len(want))
	}
	for i := range want {
		if st.Lines[i] != want[i] {
			t.Fatalf("event %d differs:\n  callback: %s\n  stream:   %s", i, want[i], st.Lines[i])
		}
	}
}

// TestStreamCallbackParity_SmallBatches re-runs parity with a tiny batch
// size so events cross many batch boundaries (and multi-record groups
// exercise their no-straddling reservation).
func TestStreamCallbackParity_SmallBatches(t *testing.T) {
	_, compiled := fig9Workload(t, 4)
	want := runCallbackTracer(t, compiled)
	st := runStreamTracer(t, compiled, wasabi.StreamBatchSize(16))
	if len(st.Lines) != len(want) {
		t.Fatalf("stream observed %d events, callbacks %d", len(st.Lines), len(want))
	}
	for i := range want {
		if st.Lines[i] != want[i] {
			t.Fatalf("event %d differs:\n  callback: %s\n  stream:   %s", i, want[i], st.Lines[i])
		}
	}
}

// TestStreamInstructionMixParity checks the second ported analysis: counts
// computed from records equal counts computed from callbacks.
func TestStreamInstructionMixParity(t *testing.T) {
	_, compiled := fig9Workload(t, 8)

	mix := analyses.NewInstructionMix()
	sess, err := compiled.NewSession(mix)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	smix := analyses.NewStreamInstructionMix()
	ssess, err := compiled.NewSession(smix)
	if err != nil {
		t.Fatal(err)
	}
	defer ssess.Close()
	stream, err := ssess.Stream()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		stream.Serve(smix)
	}()
	sinst, err := ssess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sinst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	<-done

	if mix.Total() == 0 {
		t.Fatal("callback mix observed no events")
	}
	if len(smix.Counts) != len(mix.Counts) {
		t.Fatalf("stream mix has %d distinct ops, callback %d", len(smix.Counts), len(mix.Counts))
	}
	for op, n := range mix.Counts {
		if smix.Counts[op] != n {
			t.Errorf("op %s: stream counted %d, callback %d", op, smix.Counts[op], n)
		}
	}
}

// TestStreamDropMode runs without a concurrent consumer under Drop
// backpressure: the program must finish (never stall), the in-flight
// batches must drain afterwards, and the overflow must be counted.
func TestStreamDropMode(t *testing.T) {
	leakcheck.Check(t)
	_, compiled := fig9Workload(t, 8)
	sink := analyses.NewStreamInstructionMix()
	sess, err := compiled.NewSession(sink)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	stream, err := sess.Stream(
		wasabi.StreamBackpressure(wasabi.BackpressureDrop),
		wasabi.StreamBatchSize(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	var delivered int
	for {
		batch, ok := stream.Next()
		if !ok {
			break
		}
		delivered += len(batch)
	}
	if delivered == 0 {
		t.Error("drop mode delivered no events at all")
	}
	if stream.Dropped() == 0 {
		t.Error("drop mode with no concurrent consumer dropped nothing")
	}
}

// TestStreamGroupsSurviveTinyBatches is the regression test for record
// groups larger than the batch capacity: a call whose argument vector needs
// continuation records must never straddle a batch boundary, even at batch
// size 1 (the emitter grows the buffer for the group instead).
func TestStreamGroupsSurviveTinyBatches(t *testing.T) {
	b := builder.New()
	callee := b.Func("callee", builder.V(wasm.I32, wasm.I64, wasm.I32, wasm.F64, wasm.I32, wasm.I64), builder.V(wasm.I64))
	callee.Get(1)
	callee.Done()
	f := b.Func("main", nil, builder.V(wasm.I64))
	f.I32(1).I64(2).I32(3).F64(4.5).I32(5).I64(6).Call(callee.Index)
	f.Done()
	m := b.Build()

	engine := mustEngine(t)
	compiled, err := engine.Instrument(m, wasabi.AllCaps)
	if err != nil {
		t.Fatal(err)
	}

	tr := analyses.NewTracer()
	sess, err := compiled.NewSession(tr)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("main"); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	st := analyses.NewStreamTracer()
	ssess, err := compiled.NewSession(st)
	if err != nil {
		t.Fatal(err)
	}
	defer ssess.Close()
	stream, err := ssess.Stream(wasabi.StreamBatchSize(1))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		stream.Serve(st)
	}()
	sinst, err := ssess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sinst.Invoke("main"); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	<-done

	if len(st.Lines) != len(tr.Events) {
		t.Fatalf("stream observed %d events, callbacks %d", len(st.Lines), len(tr.Events))
	}
	for i := range tr.Events {
		if st.Lines[i] != tr.Events[i] {
			t.Fatalf("event %d differs:\n  callback: %s\n  stream:   %s", i, tr.Events[i], st.Lines[i])
		}
	}
}

// TestStreamBrTableReplayWithoutEndHooks pins the synthesized end records:
// instrumenting only br_table (no end hooks) still replays the ends of the
// blocks a branch leaves — through self-describing EventSynth records —
// matching the callback dispatcher's behavior.
func TestStreamBrTableReplayWithoutEndHooks(t *testing.T) {
	b := builder.New()
	f := b.Func("main", builder.V(wasm.I32), nil)
	f.Block().Block()
	f.Get(0).BrTable([]uint32{0, 1}, 1)
	f.End().End()
	f.Done()
	m := b.Build()

	engine := mustEngine(t)
	compiled, err := engine.InstrumentHooks(m, analysis.Set(analysis.KindBrTable))
	if err != nil {
		t.Fatal(err)
	}

	run := func(idx int32) ([]string, []string) {
		tr := analyses.NewTracer()
		sess, err := compiled.NewSession(tr)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sess.Instantiate("", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Invoke("main", interp.I32(idx)); err != nil {
			t.Fatal(err)
		}
		sess.Close()

		st := analyses.NewStreamTracer()
		ssess, err := compiled.NewSession(st)
		if err != nil {
			t.Fatal(err)
		}
		defer ssess.Close()
		stream, err := ssess.Stream()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			stream.Serve(st)
		}()
		sinst, err := ssess.Instantiate("", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sinst.Invoke("main", interp.I32(idx)); err != nil {
			t.Fatal(err)
		}
		stream.Close()
		<-done
		return tr.Events, st.Lines
	}

	for _, idx := range []int32{0, 1, 5} { // inner, outer, default target
		want, got := run(idx)
		if len(want) == 0 {
			t.Fatalf("idx %d: callback tracer observed no events", idx)
		}
		sawEnd := false
		for _, line := range want {
			if strings.Contains(line, " end ") {
				sawEnd = true
			}
		}
		if !sawEnd && idx > 0 {
			t.Fatalf("idx %d: callback replay fired no end events; test is vacuous\n%v", idx, want)
		}
		if len(got) != len(want) {
			t.Fatalf("idx %d: stream observed %d events, callbacks %d\n  stream: %v\n  callback: %v", idx, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("idx %d event %d differs:\n  callback: %s\n  stream:   %s", idx, i, want[i], got[i])
			}
		}
	}
}

// loadOnlySink streams only load events (no CapReturn), so the flush at
// top-level call completion is the only thing delivering its partial batch.
type loadOnlySink struct{}

func (loadOnlySink) StreamCaps() wasabi.Cap { return analysis.CapLoad }

// TestStreamFlushesAtTopLevelReturn pins the unconditional flush point: an
// Invoke producing far fewer events than a batch must still deliver them
// when it completes — even when return hooks are not streamed, so no
// return-hook encoder could have flushed.
func TestStreamFlushesAtTopLevelReturn(t *testing.T) {
	leakcheck.Check(t)
	b := builder.New()
	b.Memory(1)
	f := b.Func("main", nil, builder.V(wasm.I32))
	f.I32(0).Load(wasm.OpI32Load, 0)
	f.I32(4).Load(wasm.OpI32Load, 0).Op(wasm.OpI32Add)
	f.Done()
	m := b.Build()

	engine := mustEngine(t)
	compiled, err := engine.Instrument(m, wasabi.AllCaps)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(loadOnlySink{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	stream, err := sess.Stream() // default batch size 4096 >> 2 events
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("main"); err != nil {
		t.Fatal(err)
	}
	got := make(chan []wasabi.Event, 1)
	go func() {
		batch, ok := stream.Next()
		if !ok {
			batch = nil
		}
		got <- batch
	}()
	select {
	case batch := <-got:
		if len(batch) != 2 {
			t.Fatalf("flushed batch has %d events, want the invoke's 2 loads", len(batch))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no batch was flushed at top-level return (Next blocked)")
	}
}

// TestSessionCloseWithUnconsumedStream pins that teardown never waits on a
// consumer: a Block-mode session whose consumer never ran — with the
// stream's queue completely full — still closes immediately, discarding
// and counting the undelivered events. (Session.Close is producer-side like
// Flush: it must not race a running Invoke.)
func TestSessionCloseWithUnconsumedStream(t *testing.T) {
	leakcheck.Check(t)
	b := builder.New()
	b.Memory(1)
	f := b.Func("main", nil, builder.V(wasm.I32))
	f.I32(0).Load(wasm.OpI32Load, 0)
	f.I32(4).Load(wasm.OpI32Load, 0).Op(wasm.OpI32Add)
	f.Done()
	engine := mustEngine(t)
	compiled, err := engine.Instrument(b.Build(), wasabi.AllCaps)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(loadOnlySink{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := sess.Stream(wasabi.StreamBatchSize(1)) // Block mode, nobody draining
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	// One invoke emits 2 load events = 2 single-record batches: the first
	// flushes on batch-full, the second at top-level return, leaving the
	// stream's queue at capacity with no consumer.
	if _, err := inst.Invoke("main"); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		sess.Close()
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Session.Close hung on an unconsumed Block-mode stream")
	}
	if got := stream.Dropped(); got != 2 {
		t.Errorf("teardown discarded %d events, want the 2 undelivered ones", got)
	}
}

// TestStreamOnlyAnalysisMustOpenStream pins the fail-fast for a stream-only
// analysis instantiated without Session.Stream: instead of running the
// program fully uninstrumented, Instantiate refuses with ErrNoHooks.
func TestStreamOnlyAnalysisMustOpenStream(t *testing.T) {
	_, compiled := fig9Workload(t, 4)
	sess, err := compiled.NewSession(analyses.NewStreamInstructionMix())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Instantiate("", polybench.HostImports(nil)); !errors.Is(err, wasabi.ErrNoHooks) {
		t.Fatalf("Instantiate without Stream on a stream-only analysis: got %v, want ErrNoHooks", err)
	}
	// Opening the stream first makes the same session usable.
	if _, err := sess.Stream(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Instantiate("", polybench.HostImports(nil)); err != nil {
		t.Fatalf("Instantiate after Stream: %v", err)
	}
}

// TestStreamOrderingErrors pins the Stream lifecycle misuse errors.
func TestStreamOrderingErrors(t *testing.T) {
	_, compiled := fig9Workload(t, 4)

	// Stream after Instantiate (a callback analysis may instantiate without
	// a stream, but cannot switch to stream delivery afterwards).
	sess, err := compiled.NewSession(analyses.NewInstructionMix())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Instantiate("", polybench.HostImports(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stream(); !errors.Is(err, wasabi.ErrStreamAfterInstantiate) {
		t.Errorf("Stream after Instantiate: got %v, want ErrStreamAfterInstantiate", err)
	}
	sess.Close()

	// Second Stream.
	sess2, err := compiled.NewSession(analyses.NewStreamTracer())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Stream(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Stream(); !errors.Is(err, wasabi.ErrStreamActive) {
		t.Errorf("second Stream: got %v, want ErrStreamActive", err)
	}
	sess2.Close()

	// Stream and Instantiate on a closed session.
	if _, err := sess2.Stream(); !errors.Is(err, wasabi.ErrSessionClosed) {
		t.Errorf("Stream on closed session: got %v, want ErrSessionClosed", err)
	}
	if _, err := sess2.Instantiate("", nil); !errors.Is(err, wasabi.ErrSessionClosed) {
		t.Errorf("Instantiate on closed session: got %v, want ErrSessionClosed", err)
	}
}

// TestSessionCloseEvictsInstances is the registry-eviction regression test
// of the instance lifecycle: Session.Close unregisters the session's named
// instances, the names become claimable again, and Engine.RemoveInstance
// remains the manual path.
func TestSessionCloseEvictsInstances(t *testing.T) {
	leakcheck.Check(t)
	engine, compiled := fig9Workload(t, 4)

	sess, err := compiled.NewSession(analyses.NewInstructionMix())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Instantiate("fig9-a", polybench.HostImports(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Instantiate("fig9-b", polybench.HostImports(nil)); err != nil {
		t.Fatal(err)
	}
	if _, ok := engine.Instance("fig9-a"); !ok {
		t.Fatal("instance fig9-a not registered")
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	for _, name := range []string{"fig9-a", "fig9-b"} {
		if _, ok := engine.Instance(name); ok {
			t.Errorf("instance %s still registered after Session.Close", name)
		}
	}

	// The evicted names are claimable by a fresh session.
	sess2, err := compiled.NewSession(analyses.NewInstructionMix())
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	if _, err := sess2.Instantiate("fig9-a", polybench.HostImports(nil)); err != nil {
		t.Fatalf("name not reclaimable after Close: %v", err)
	}

	// Manual eviction path.
	engine.RemoveInstance("fig9-a")
	if _, ok := engine.Instance("fig9-a"); ok {
		t.Error("instance fig9-a still registered after Engine.RemoveInstance")
	}
}
