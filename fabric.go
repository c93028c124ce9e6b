package wasabi

// The fan-out surface of the event-stream API: one producer session, N
// concurrent subscribers over the same record stream. Session.Fanout opens
// the session's stream like Session.Stream does, but instead of a single
// consumer end it returns a Fabric that hands out Subscriptions — each with
// the familiar Next/Serve surface. A Stream is this with exactly one
// subscription: the producer publishes every batch itself, by reference, to
// each subscription's queue (no per-subscriber copy, no goroutine in
// between; see internal/runtime/emitter.go for the refcounted hand-off).
//
//	sess, _ := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
//	fab, _ := sess.Fanout()
//	for _, tenant := range tenants {
//	    sub, _ := fab.Subscribe()
//	    go sub.Serve(tenant.analysis)        // each on its own goroutine
//	}
//	inst, _ := sess.Instantiate("app", imports)
//	inst.Invoke("main")
//	fab.Close()                              // flush + end of stream
//
// Backpressure is per subscriber, with one rule: the stream's policy
// (WithBackpressure / StreamBackpressure, Block by default) is every
// subscription's default, and SubscribeBackpressure overrides it. Block is
// lossless — once its queue fills, the instrumented program stalls until
// that subscriber catches up. Drop loses batches for that subscriber only
// (Subscription.Dropped counts them) and never delays the producer or its
// peers.
//
// Teardown has one rule too: Session.Close closes every subscription, then
// discards and counts what is still queued. It never waits for a consumer.

import (
	"wasabi/internal/analysis"
	wruntime "wasabi/internal/runtime"
)

// DefaultSubscriberQueue is the default per-subscriber queue depth, in
// batches (override engine-wide with WithSubscriberQueue, per subscriber
// with SubscribeQueue).
const DefaultSubscriberQueue = 8

// Subscription is one subscriber's end of a Fabric: Next/Serve like a
// Stream, plus Close to unsubscribe early and Dropped for its own loss
// count. Exactly one goroutine may consume a subscription.
type Subscription = wruntime.Subscription

// Fabric broadcasts a session's event stream to any number of
// subscriptions. The producer-side calls (Flush, Close) follow the same
// rules as a Stream's: call them only while no instrumented code of the
// session runs.
type Fabric struct {
	st    *Stream
	queue int // engine-default queue depth for new subscriptions
}

// SubscribeOption configures one Subscription.
type SubscribeOption func(*subscribeConfig)

type subscribeConfig struct {
	queue int
	mode  Backpressure
}

// SubscribeQueue overrides the subscription's queue depth: how many batches
// may be in flight to this subscriber before its backpressure policy kicks
// in.
func SubscribeQueue(n int) SubscribeOption {
	return func(c *subscribeConfig) { c.queue = n }
}

// SubscribeBackpressure overrides the subscription's backpressure policy,
// which defaults to the stream's: BackpressureBlock (lossless — a full
// queue stalls the producer) or BackpressureDrop (lossy — a full queue
// skips batches for this subscriber only).
func SubscribeBackpressure(mode Backpressure) SubscribeOption {
	return func(c *subscribeConfig) { c.mode = mode }
}

// Fanout switches the session to stream delivery like Session.Stream, but
// fans the stream out: the returned Fabric broadcasts every batch to every
// Subscription. Same preconditions as Stream (before the first Instantiate,
// at most one stream per session); the analysis value is typically a
// StreamCaps anchor, since the actual consumers attach per subscription.
//
// Delivery starts immediately — subscribe before invoking instrumented
// code to observe the complete record sequence (batches flushed while no
// subscription exists reach nobody and count in Fabric.Dropped).
func (s *Session) Fanout(opts ...StreamOption) (*Fabric, error) {
	st, err := s.openStream("Fanout", opts)
	if err != nil {
		return nil, err
	}
	return &Fabric{st: st, queue: s.compiled.engine.subQueue}, nil
}

// Subscribe adds a subscriber and returns its consumption end. Subscribers
// added while the producer is already running join mid-stream (they see
// batches flushed from now on); subscribing after the stream ended fails
// with ErrFabricClosed.
func (f *Fabric) Subscribe(opts ...SubscribeOption) (*Subscription, error) {
	cfg := subscribeConfig{queue: f.queue, mode: f.st.mode}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.queue < 1 {
		return nil, badOption("SubscribeQueue", cfg.queue, "a subscription queues at least one batch")
	}
	return f.st.em.Subscribe(cfg.queue, cfg.mode)
}

// Table returns the decode table shared by every subscription of this
// fabric (see Stream.Table).
func (f *Fabric) Table() *EventTable { return f.st.tbl }

// Flush hands the partially filled batch to the subscribers now.
// Producer-side: call it between invocations.
func (f *Fabric) Flush() { f.st.Flush() }

// Close publishes pending records and ends the stream: when Close returns,
// every record is either enqueued on a subscription or (for Drop
// subscribers that lagged) counted dropped, and subscribers' Next/Serve
// wind down with ok == false. Producer-side. Block subscribers must keep
// draining until their subscription ends, exactly like a single-consumer
// Block stream.
func (f *Fabric) Close() { f.st.Close() }

// Dropped returns the events no subscriber received: flushed while no
// subscription was attached, skipped by every subscription, discarded at
// teardown before any subscriber took them, or emitted after Close.
// Per-subscriber losses are counted on each Subscription instead.
func (f *Fabric) Dropped() uint64 { return f.st.Dropped() }

// Err returns the terminal error of a fabric torn down by a guest failure,
// nil while live or after a clean Close — Stream.Err's contract, shared by
// every subscription: when a subscription ends, the error (if any) is
// already visible.
func (f *Fabric) Err() error { return f.st.Err() }

// StreamCaps returns an analysis anchor for fan-out sessions: a value
// whose only capability is streaming the given event classes. Pass it to
// CompiledAnalysis.NewSession when the session's events are consumed by
// fabric subscribers (attached later, each with its own analysis) rather
// than by the session's own analysis value.
func StreamCaps(caps Cap) any { return capsAnchor{caps: caps} }

type capsAnchor struct{ caps Cap }

// StreamCaps implements EventStreamer.
func (a capsAnchor) StreamCaps() Cap { return a.caps }

var _ analysis.EventStreamer = capsAnchor{}
