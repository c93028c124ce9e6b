package wasabi

// The event-stream analysis surface: hook events as packed records pulled in
// batches, beside (not on top of) the callback API. A stream session's hooks
// compile to per-spec record encoders — the same precomputed lowered-arg
// layouts as the callback trampolines, but writing 40-byte analysis.Event
// records into per-session batch buffers instead of calling analysis Go code.
// The consumer pulls whole batches:
//
//	sess, _ := compiled.NewSession(myStreamAnalysis) // EventStreamer
//	stream, _ := sess.Stream()
//	go stream.Serve(myStreamAnalysis)                // EventSink, own goroutine
//	inst, _ := sess.Instantiate("app", imports)
//	inst.Invoke("main")                              // events flow in batches
//	stream.Close()                                   // flush + end of stream
//
// A Stream is the session's emitter with exactly one subscription, two
// batches deep: the same hand-off a Fabric uses for N subscribers
// (fabric.go). Ownership follows the Values rule of the callback API: a
// batch is borrowed and valid only until the next batch is requested — the
// buffers cycle. Copy records (they are plain values) to retain them.
//
// Backpressure is explicit: Block (default) stalls the instrumented program
// when the consumer lags, Drop discards full batches and counts them.
// Block requires the consumer to run concurrently; a run-first-drain-later
// loop on one goroutine must use Drop (or a batch budget that fits the
// queue).

import (
	"fmt"
	"sync/atomic"

	"wasabi/internal/analysis"
	wruntime "wasabi/internal/runtime"
)

// Backpressure selects what a stream's producer side does when a
// subscription's queue is full because its consumer lags. See the package
// comment of this file.
type Backpressure = wruntime.Backpressure

const (
	// BackpressureBlock stalls event production until the consumer frees a
	// batch (lossless).
	BackpressureBlock = wruntime.Block
	// BackpressureDrop skips the batch being flushed for the lagging
	// consumer and keeps the program running (lossy; Stream.Dropped and
	// Subscription.Dropped count the loss).
	BackpressureDrop = wruntime.Drop
)

// DefaultStreamBatchSize is the default number of event records per batch.
const DefaultStreamBatchSize = 4096

// Re-exported stream types, so analyses and embedders only import this
// package (the callback types are re-exported in wasabi.go).
type (
	// Event is one packed fixed-width hook-event record.
	Event = analysis.Event
	// EventSpec describes one low-level hook for record decoding.
	EventSpec = analysis.EventSpec
	// EventTable maps Event.Hook indices to their EventSpecs.
	EventTable = analysis.EventTable
	// EventSink consumes borrowed batches of event records.
	EventSink = analysis.EventSink
	// EventStreamer declares the event classes a stream-native analysis
	// consumes (its capability mask).
	EventStreamer = analysis.EventStreamer
	// EventTableReceiver receives the decode table before events flow.
	EventTableReceiver = analysis.EventTableReceiver
)

// EventCont marks continuation records of multi-record events.
const EventCont = analysis.EventCont

// StreamOption configures one stream, overriding the engine defaults.
type StreamOption func(*streamConfig)

type streamConfig struct {
	batchSize    int
	backpressure Backpressure
}

// StreamBatchSize overrides the records-per-batch bound of this stream.
func StreamBatchSize(n int) StreamOption {
	return func(c *streamConfig) { c.batchSize = n }
}

// StreamBackpressure overrides the backpressure policy of this stream — for
// a Fanout, the default policy of its subscriptions.
func StreamBackpressure(mode Backpressure) StreamOption {
	return func(c *streamConfig) { c.backpressure = mode }
}

// Stream is the consumer end of a session's event stream. Exactly one
// goroutine may consume a stream; Flush and Close belong to the producer
// side (call them only while no instrumented code of the session runs).
type Stream struct {
	em   *wruntime.Emitter
	sub  *wruntime.Subscription // the one consumer; nil under a Fabric
	mode Backpressure           // default policy of the subscriptions
	tbl  *analysis.EventTable
	err  atomic.Value // first terminal error (fail); read via Err
}

// Stream switches the session from callback dispatch to stream delivery and
// returns the consumer end. It must be called before the session's first
// Instantiate (the hook dispatchers are compiled then); afterwards the
// session's hooks append packed records instead of calling the analysis,
// and the analysis value's callback interfaces are not dispatched.
//
// The event classes streamed are the analysis value's StreamCaps when it
// implements EventStreamer, otherwise the capabilities of the callback
// interfaces it implements (useful to stream-record what an existing
// analysis would observe). If the analysis implements EventTableReceiver it
// receives the decode table now.
func (s *Session) Stream(opts ...StreamOption) (*Stream, error) {
	st, err := s.openStream("Stream", opts)
	if err != nil {
		return nil, err
	}
	// A fresh emitter is open, so subscribing cannot fail.
	st.sub, _ = st.em.Subscribe(wruntime.StreamQueue, st.mode)
	return st, nil
}

// openStream is the shared construction behind Session.Stream (one
// subscription) and Session.Fanout (N subscriptions to the same emitter):
// it validates, builds the emitter, and wires the session's stream hooks.
func (s *Session) openStream(method string, opts []StreamOption) (*Stream, error) {
	if s.closed {
		return nil, fmt.Errorf("%w: %s", ErrSessionClosed, method)
	}
	if s.stream != nil {
		return nil, ErrStreamActive
	}
	if s.instantiated {
		return nil, ErrStreamAfterInstantiate
	}
	caps := streamCapsOf(s.analysis)
	if caps == 0 {
		return nil, errNoHooksFor(s.analysis)
	}
	if caps.HookSet()&s.compiled.meta.HookSet == 0 {
		return nil, &NoHooksError{
			AnalysisType: fmt.Sprintf("%T", s.analysis),
			Detail: fmt.Sprintf("streams only %q, but the module was instrumented for %q",
				caps.HookSet().String(), s.compiled.meta.HookSet.String()),
		}
	}
	cfg := streamConfig{
		batchSize:    s.compiled.engine.streamBatch,
		backpressure: s.compiled.engine.backpressure,
	}
	for _, o := range opts {
		o(&cfg)
	}
	// Per-stream overrides validate like the engine-wide options (the engine
	// defaults were already checked at NewEngine).
	if cfg.batchSize < 1 {
		return nil, badOption("StreamBatchSize", cfg.batchSize, "a batch holds at least one record")
	}
	if cfg.backpressure != BackpressureBlock && cfg.backpressure != BackpressureDrop {
		return nil, badOption("StreamBackpressure", int(cfg.backpressure), "unknown backpressure mode")
	}
	em := wruntime.NewEmitter(cfg.batchSize)
	s.rt.SetEmitter(em, caps)
	tbl := s.compiled.EventTable()
	if recv, ok := s.analysis.(analysis.EventTableReceiver); ok {
		recv.SetEventTable(tbl)
	}
	s.stream = &Stream{em: em, mode: cfg.backpressure, tbl: tbl}
	return s.stream, nil
}

// streamCapsOf resolves the event classes to stream for an analysis value.
func streamCapsOf(a any) Cap {
	if es, ok := a.(analysis.EventStreamer); ok {
		return es.StreamCaps()
	}
	return analysis.CapsOf(a)
}

// Next returns the next batch of event records, blocking until the producer
// flushes one (batch full, top-level function return, explicit Flush, or
// Close). ok is false when the stream is closed and fully drained. The
// batch is BORROWED: it is valid only until the next Next call, which
// recycles the buffer.
func (st *Stream) Next() ([]Event, bool) { return st.sub.Next() }

// Serve pulls batches and hands each to sink until the stream ends. Run it
// on its own goroutine for Block-mode streams.
func (st *Stream) Serve(sink EventSink) { st.sub.Serve(sink) }

// Flush hands the partially filled batch to the consumer now. Producer-side:
// call it between invocations, never while instrumented code runs.
func (st *Stream) Flush() { st.em.Flush() }

// Close flushes pending records and ends the stream: after the in-flight
// batches are drained, Next reports ok == false and Serve returns.
// Producer-side like Flush. Idempotent. In Block mode the final flush waits
// for a queue slot, so keep the consumer draining until the stream ends.
func (st *Stream) Close() { st.em.Close() }

// Dropped returns the number of event records discarded so far: by
// BackpressureDrop when the consumer lagged, by events emitted after Close,
// and by Session.Close's non-waiting teardown. A Block-mode stream that is
// closed once (Stream.Close) and fully drained before its session closes
// loses nothing and reports 0.
func (st *Stream) Dropped() uint64 { return st.em.Dropped() }

// Table returns the decode table mapping Event.Hook indices back to hook
// kinds, instruction names, and payload types. Shared and immutable.
func (st *Stream) Table() *EventTable { return st.tbl }

// Err returns the terminal error of a stream that was torn down by a guest
// failure — the *Trap or *RuntimeFault of the invocation that ended it —
// and nil for a stream that is still live or ended cleanly (Close). Like a
// bufio.Scanner's Err, it is meaningful once the stream has ended: when
// Next reports ok == false / Serve returns, the error (if any) is already
// visible to the consumer goroutine.
func (st *Stream) Err() error {
	if v := st.err.Load(); v != nil {
		return v.(streamErr).error
	}
	// A host-side emitter fault (fault injection) recorded outside any
	// invocation — e.g. during an explicit Flush or Close — is terminal too.
	return st.em.Err()
}

// streamErr gives every stored terminal error the same concrete type, which
// atomic.Value requires across stores.
type streamErr struct{ error }

// fail tears the stream down with a terminal error: the partial batch was
// already flushed by the top-return hook, the error is recorded for Err,
// and the stream is closed so blocked consumers wake up. The first error
// wins. Producer-side (runs from the instance's top-return hook).
func (st *Stream) fail(err error) {
	st.err.CompareAndSwap(nil, streamErr{err})
	st.em.Close()
}
