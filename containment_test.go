package wasabi_test

// End-to-end coverage of the containment surface through the public API: a
// runaway (infinite-loop) module stopped three independent ways — fuel,
// context cancellation, deadline — each yielding typed errors under
// errors.Is/errors.As; fuel exhaustion inside hook-instrumented code through
// BOTH dispatch pipelines (callback trampolines and stream encoders); a
// deadline firing while a Block-mode stream or fan-out producer is wedged
// on a lagging consumer; and stream teardown on trap/fault (Stream.Err).
// Everything here must be race-clean.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"wasabi"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/leakcheck"
	"wasabi/internal/wasm"
)

// spinModule builds a module whose exported "spin" loops forever.
func spinModule() *wasm.Module {
	b := builder.New()
	f := b.Func("spin", nil, nil)
	f.Loop().Br(0).End()
	f.Done()
	return b.Build()
}

// brCounter is a minimal analysis observing branches — each spin iteration
// fires its Br hook, so a nonzero count proves instrumented code really ran
// before containment stopped it. Also usable as the capability source of a
// stream session (streams CapBr).
type brCounter struct{ n int }

func (c *brCounter) Br(loc wasabi.Location, target wasabi.BranchTarget) { c.n++ }

// countingSink counts streamed records; atomic because Serve runs it on the
// consumer goroutine.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Events(batch []wasabi.Event) { s.n.Add(int64(len(batch))) }

// spinSession instruments the spin module on the given engine and returns a
// ready instance plus its session.
func spinSession(t *testing.T, engine *wasabi.Engine, a any) (*wasabi.Session, *interp.Instance) {
	t.Helper()
	compiled, err := engine.InstrumentFor(spinModule(), a)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	return sess, inst
}

// TestContainmentThreeWays is the acceptance test of the containment layer:
// the same infinite-loop module is stopped by fuel exhaustion, by context
// cancellation, and by deadline expiry — three independent mechanisms, each
// surfacing typed errors.
func TestContainmentThreeWays(t *testing.T) {
	leakcheck.Check(t)
	t.Run("fuel", func(t *testing.T) {
		a := &brCounter{}
		_, inst := spinSession(t, mustEngine(t, wasabi.WithFuel(50_000)), a)
		_, err := inst.Invoke("spin")
		if !errors.Is(err, wasabi.ErrFuelExhausted) {
			t.Fatalf("err = %v, want ErrFuelExhausted", err)
		}
		var trap *wasabi.Trap
		if !errors.As(err, &trap) {
			t.Fatalf("err = %T, want *wasabi.Trap", err)
		}
		if a.n == 0 {
			t.Error("no Br hooks observed before exhaustion")
		}
	})
	t.Run("cancel", func(t *testing.T) {
		a := &brCounter{}
		sess, inst := spinSession(t, mustEngine(t, wasabi.WithInterruption()), a)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		_, err := sess.InvokeContext(ctx, inst, "spin")
		if !errors.Is(err, context.Canceled) || !errors.Is(err, wasabi.ErrInterrupted) {
			t.Fatalf("err = %v, want context.Canceled and ErrInterrupted", err)
		}
		var ie *wasabi.InterruptError
		if !errors.As(err, &ie) {
			t.Fatalf("err = %T, want *wasabi.InterruptError", err)
		}
		if a.n == 0 {
			t.Error("no Br hooks observed before cancellation")
		}
	})
	t.Run("deadline", func(t *testing.T) {
		a := &brCounter{}
		sess, inst := spinSession(t, mustEngine(t, wasabi.WithDeadline(15*time.Millisecond)), a)
		_, err := sess.InvokeContext(context.Background(), inst, "spin")
		if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, wasabi.ErrInterrupted) {
			t.Fatalf("err = %v, want context.DeadlineExceeded and ErrInterrupted", err)
		}
		if a.n == 0 {
			t.Error("no Br hooks observed before the deadline")
		}
	})
}

// TestFuelExhaustionCallbackPipeline: fuel runs out inside a
// hook-instrumented function dispatching through the callback trampolines,
// and the analysis keeps everything it observed up to the trap.
func TestFuelExhaustionCallbackPipeline(t *testing.T) {
	a := &brCounter{}
	_, inst := spinSession(t, mustEngine(t, wasabi.WithFuel(20_000)), a)
	if _, err := inst.Invoke("spin"); !errors.Is(err, wasabi.ErrFuelExhausted) {
		t.Fatalf("err = %v, want ErrFuelExhausted", err)
	}
	if a.n == 0 {
		t.Fatal("callback pipeline observed no events before exhaustion")
	}
	// Topped up, the instance spins (and exhausts) again — containment does
	// not wedge the trampoline dispatch.
	before := a.n
	inst.SetFuel(20_000)
	if _, err := inst.Invoke("spin"); !errors.Is(err, wasabi.ErrFuelExhausted) {
		t.Fatalf("second run: err = %v, want ErrFuelExhausted", err)
	}
	if a.n <= before {
		t.Error("second run observed no further events")
	}
}

// TestFuelExhaustionStreamPipeline: the same exhaustion through the stream
// encoders — the partial batch reaches the consumer and the stream ends with
// the trap as its terminal error (Stream.Err), waking the Serve goroutine.
func TestFuelExhaustionStreamPipeline(t *testing.T) {
	leakcheck.Check(t)
	a := &brCounter{}
	engine := mustEngine(t, wasabi.WithFuel(20_000))
	compiled, err := engine.InstrumentFor(spinModule(), a)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	stream, err := sess.Stream()
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		stream.Serve(sink)
	}()
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("spin"); !errors.Is(err, wasabi.ErrFuelExhausted) {
		t.Fatalf("err = %v, want ErrFuelExhausted", err)
	}
	select {
	case <-done: // the failure tore the stream down; Serve returned
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the guest trapped")
	}
	if sink.n.Load() == 0 {
		t.Error("stream pipeline delivered no events before exhaustion")
	}
	if err := stream.Err(); !errors.Is(err, wasabi.ErrFuelExhausted) {
		t.Errorf("Stream.Err() = %v, want ErrFuelExhausted", err)
	}
}

// TestDeadlineDuringBlockedStreamBatch: a Block-mode producer wedged in a
// batch hand-off (tiny batches, consumer never draining) must still honor
// the deadline — the emitter interrupt unwedges the flush, the guest traps
// at its next guard, and the stream ends with the interruption as its
// terminal error.
func TestDeadlineDuringBlockedStreamBatch(t *testing.T) {
	leakcheck.Check(t)
	a := &brCounter{}
	engine := mustEngine(t, wasabi.WithDeadline(20*time.Millisecond))
	compiled, err := engine.InstrumentFor(spinModule(), a)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	stream, err := sess.Stream(wasabi.StreamBatchSize(8), wasabi.StreamBackpressure(wasabi.BackpressureBlock))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	// No consumer drains: within a few batches the producer wedges inside
	// Flush. Only the deadline can get it out.
	start := time.Now()
	_, err = sess.InvokeContext(context.Background(), inst, "spin")
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, wasabi.ErrInterrupted) {
		t.Fatalf("err = %v, want context.DeadlineExceeded and ErrInterrupted", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("unwedging took %v", elapsed)
	}
	if err := stream.Err(); !errors.Is(err, wasabi.ErrInterrupted) {
		t.Errorf("Stream.Err() = %v, want ErrInterrupted", err)
	}
	if stream.Dropped() == 0 {
		t.Error("the wedged batch was not counted as dropped")
	}
	// The stream ended: draining now terminates rather than blocking.
	for {
		if _, ok := stream.Next(); !ok {
			break
		}
	}
}

// TestDeadlineDuringBlockedFanoutPublish is the fan-out twin of the test
// above: the producer publishes to each subscription itself, so a Block
// subscriber that is never drained wedges the producer's publish loop. The
// deadline must still unwedge it, the fabric must end with the
// interruption as its terminal error, and the subscription must end.
func TestDeadlineDuringBlockedFanoutPublish(t *testing.T) {
	leakcheck.Check(t)
	a := &brCounter{}
	engine := mustEngine(t, wasabi.WithDeadline(20*time.Millisecond))
	compiled, err := engine.InstrumentFor(spinModule(), a)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fab, err := sess.Fanout(wasabi.StreamBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := fab.Subscribe(wasabi.SubscribeBackpressure(wasabi.BackpressureBlock))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = sess.InvokeContext(context.Background(), inst, "spin")
	if !errors.Is(err, wasabi.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("unwedging took %v", elapsed)
	}
	if err := fab.Err(); !errors.Is(err, wasabi.ErrInterrupted) {
		t.Errorf("Fabric.Err() = %v, want ErrInterrupted", err)
	}
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		for {
			if _, ok := sub.Next(); !ok {
				return
			}
		}
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the subscription did not end after the interrupted run")
	}
}

// TestStreamErrAfterFault: a host panic mid-stream becomes a *RuntimeFault
// that tears the stream down — the consumer sees end-of-stream and Err
// reports the typed fault.
func TestStreamErrAfterFault(t *testing.T) {
	leakcheck.Check(t)
	b := builder.New()
	boom := b.ImportFunc("env", "boom", builder.Sig(nil, nil))
	f := b.Func("go", nil, nil)
	f.Loop()
	f.Call(boom)
	f.Br(0)
	f.End()
	f.Done()

	a := &brCounter{}
	engine := mustEngine(t)
	compiled, err := engine.InstrumentFor(b.Build(), a)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	stream, err := sess.Stream()
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		stream.Serve(sink)
	}()
	calls := 0
	imports := interp.Imports{"env": {"boom": &interp.HostFunc{
		Type: wasm.FuncType{},
		Fn: func(*interp.Instance, []interp.Value) ([]interp.Value, error) {
			calls++
			if calls == 100 {
				panic("host bug mid-stream")
			}
			return nil, nil
		},
	}}}
	inst, err := sess.Instantiate("", imports)
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.Invoke("go")
	var fault *wasabi.RuntimeFault
	if !errors.As(err, &fault) {
		t.Fatalf("err = %T (%v), want *wasabi.RuntimeFault", err, err)
	}
	if !errors.Is(err, wasabi.ErrRuntimeFault) {
		t.Error("err does not match ErrRuntimeFault")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the fault")
	}
	if err := stream.Err(); !errors.As(err, &fault) {
		t.Errorf("Stream.Err() = %v, want the *RuntimeFault", err)
	}
	if sink.n.Load() == 0 {
		t.Error("no events delivered before the fault")
	}
}

// TestEngineResourceLimitOptions: the engine-level limit options reach
// instantiation — a module whose declared minimums exceed the configured
// ceilings fails with ErrLimit instead of silently allocating.
func TestEngineResourceLimitOptions(t *testing.T) {
	mod := func() *wasm.Module {
		b := builder.New().Memory(4).Table(8)
		f := b.Func("spin", nil, nil)
		f.Loop().Br(0).End()
		f.Done()
		return b.Build()
	}
	cases := []struct {
		name string
		opt  wasabi.EngineOption
	}{
		{"memory", wasabi.WithMemoryLimitPages(2)},
		{"table", wasabi.WithTableLimit(4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := &brCounter{}
			compiled, err := mustEngine(t, tc.opt).InstrumentFor(mod(), a)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := compiled.NewSession(a)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if _, err := sess.Instantiate("", nil); !errors.Is(err, wasabi.ErrLimit) {
				t.Fatalf("err = %v, want ErrLimit", err)
			}
		})
	}
	// Within the ceilings the same module instantiates and runs under a call
	// -depth cap too.
	a := &brCounter{}
	compiled, err := mustEngine(t, wasabi.WithMemoryLimitPages(4),
		wasabi.WithTableLimit(8),
		wasabi.WithMaxCallDepth(64),
		wasabi.WithFuel(10_000)).InstrumentFor(mod(), a)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := compiled.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	inst, err := sess.Instantiate("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("spin"); !errors.Is(err, wasabi.ErrFuelExhausted) {
		t.Fatalf("spin under limits: err = %v, want ErrFuelExhausted", err)
	}
}
