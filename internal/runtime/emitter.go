package runtime

// Emitter is the transport of the event-stream surface: one producer (the
// session goroutine running instrumented code, appending packed records
// through the compiled encoders in encoder.go) publishing batches to any
// number of Subscriptions, each drained by its own consumer goroutine.
//
// There is one hand-off. Flush wraps the filled buffer in a refcounted
// batchRef and puts that one ref on every subscription's bounded queue —
// all subscribers read the same memory, no per-subscriber copy. When the
// last holder releases the ref its buffer returns to the emitter's free
// pool, which the producer refills from; after warm-up the pool holds the
// working set, so steady-state emission and publication allocate nothing.
//
// Flush points: a batch is published when it fills, when a top-level call
// into an instance completes (the session installs Flush as the instance's
// top-return hook), and on explicit Flush/Close.
//
// Backpressure is per subscription. Block makes the producer wait for room
// in that subscription's queue (lossless — the instrumented program stalls
// until the consumer catches up; Interrupt unwedges it). Drop never delays
// the producer: a full queue skips the batch for that subscription only and
// counts it there. Block requires a concurrently running consumer; a
// single-goroutine run-then-drain loop must use Drop.
//
// Buffer bound: a subscription holds at most queue+1 batches (its queue
// plus the one its consumer borrows), so with Block subscriptions only the
// emitter never owns more than the deepest queue + 2 buffers — StreamQueue+2
// for a single-consumer stream.

import (
	"errors"
	"sync"
	"sync/atomic"

	"wasabi/internal/analysis"
	"wasabi/internal/failpoint"
)

// Backpressure selects what the producer does when a subscription's queue
// is full because its consumer lags.
type Backpressure int

const (
	// Block stalls event production until the consumer frees a queue slot.
	// Lossless; requires the consumer to run concurrently.
	Block Backpressure = iota
	// Drop skips the batch for the lagging subscription and keeps running,
	// counting the skipped events on it. Lossy; never stalls the
	// instrumented program.
	Drop
)

// StreamQueue is the queue depth of a single-consumer stream's one
// subscription: the number of filled batches that may be in flight between
// producer and consumer.
const StreamQueue = 2

// ErrFabricClosed reports Subscribe after the producer side ended the
// stream (Close, session teardown, or a terminal stream error): a late
// subscriber could only ever observe silence, which is never what the
// caller meant.
var ErrFabricClosed = errors.New("wasabi: fabric is closed to new subscribers")

// ErrSubscriptionClosed reports a second Subscription.Close: the first
// Close already released the subscription's queued batches, so a double
// close is a lifecycle bug on the caller's side, not a no-op.
var ErrSubscriptionClosed = errors.New("wasabi: subscription is already closed")

// Emitter is the producer end of one event stream.
type Emitter struct {
	cur       []analysis.Event // batch being filled (producer-owned)
	ref       *batchRef        // the ref cur is published under
	batchSize int

	// subs is the current subscription list, replaced (never mutated) under
	// mu so Flush reads it without locking. mu also guards pool and closed.
	subs   atomic.Pointer[[]*Subscription]
	mu     sync.Mutex
	pool   []*batchRef // fully released refs, reused by refill
	closed bool        // written under mu by the producer side only

	dropped atomic.Uint64

	// Interruption support: stopc is closed by Interrupt (any goroutine) to
	// unwedge a producer waiting on a Block subscription — the deliveries
	// it was waiting for are skipped and counted, and the producer returns
	// to guest code, which traps at its next containment guard. intrMu
	// serializes Interrupt against ClearInterrupt's re-arm; stopped dedupes
	// the close.
	intrMu  sync.Mutex
	stopc   chan struct{}
	stopped bool

	// Terminal host-side fault (fault injection today; any future emitter
	// failure). Set once by fail, read by Err from any goroutine — the
	// session's flush hook promotes it to the stream's terminal error.
	failMu  sync.Mutex
	failErr error
}

// NewEmitter creates an emitter whose batches hold batchSize records. It
// has no subscriptions yet; batches published before the first Subscribe
// reach nobody and are counted dropped.
func NewEmitter(batchSize int) *Emitter {
	if batchSize < 1 {
		batchSize = 1
	}
	em := &Emitter{batchSize: batchSize, stopc: make(chan struct{})}
	em.subs.Store(new([]*Subscription))
	em.refill()
	return em
}

// Subscribe adds a subscription with its own queue of up to queue batches
// and its own backpressure policy. Safe from any goroutine, also while the
// producer runs (the subscriber then joins mid-stream). Fails with
// ErrFabricClosed once the stream has ended.
func (em *Emitter) Subscribe(queue int, mode Backpressure) (*Subscription, error) {
	if queue < 1 {
		queue = 1
	}
	s := &Subscription{
		em:   em,
		ch:   make(chan *batchRef, queue),
		drop: mode == Drop,
		gone: make(chan struct{}),
	}
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.closed {
		return nil, ErrFabricClosed
	}
	old := *em.subs.Load()
	subs := append(old[:len(old):len(old)], s)
	em.subs.Store(&subs)
	return s, nil
}

// removeSub unlinks a closed subscription so Flush stops delivering to it.
func (em *Emitter) removeSub(s *Subscription) {
	em.mu.Lock()
	defer em.mu.Unlock()
	old := *em.subs.Load()
	subs := make([]*Subscription, 0, len(old))
	for _, x := range old {
		if x != s {
			subs = append(subs, x)
		}
	}
	em.subs.Store(&subs)
}

// emit appends one record, flushing first when the batch is full.
func (em *Emitter) emit(e analysis.Event) {
	if err := failpoint.Inject(failpoint.EmitterEmit); err != nil {
		em.fail(err)
		return
	}
	if len(em.cur) == cap(em.cur) {
		em.Flush()
	}
	em.cur = append(em.cur, e)
}

// reserve makes room for an n-record group (a primary record plus its
// continuations), so the group never straddles a batch boundary: emit's
// batch-full check cannot fire mid-group once len+n <= cap holds. A group
// larger than the batch capacity itself replaces the current buffer with a
// grown one, which then cycles through the pool like any other — a rare
// one-time allocation, not a per-event one.
func (em *Emitter) reserve(n int) {
	if len(em.cur)+n <= cap(em.cur) {
		return
	}
	em.Flush()
	if n > cap(em.cur) {
		em.cur = make([]analysis.Event, 0, n)
	}
}

// Flush publishes the current batch to every subscription, waiting for
// room on Block subscriptions and skipping (and counting) full Drop ones.
// Safe to call with an empty batch (no-op), and after Close (events are
// counted as dropped).
func (em *Emitter) Flush() {
	if len(em.cur) == 0 {
		return
	}
	if em.closed {
		em.dropped.Add(uint64(len(em.cur)))
		em.cur = em.cur[:0]
		return
	}
	if err := failpoint.Inject(failpoint.EmitterFlush); err != nil {
		em.fail(err)
		return
	}
	r := em.ref
	r.buf = em.cur
	r.taken.Store(false)
	subs := *em.subs.Load()
	// Holders: every subscription we try plus the producer itself, counted
	// up front so a consumer that receives and releases before the loop
	// ends cannot recycle the buffer early.
	r.refs.Store(int32(len(subs)) + 1)
	for _, s := range subs {
		if !s.offer(r, em.stopc) {
			r.release()
			continue
		}
		// A Close that drained the queue between the load of subs and this
		// enqueue would strand the ref and its batch would never be
		// counted: release what the departed subscription left queued.
		select {
		case <-s.gone:
			s.releaseQueued()
		default:
		}
	}
	r.release()
	em.refill()
}

// refill takes a released ref from the pool for the next batch, allocating
// while the pool is below the stream's working-set size.
func (em *Emitter) refill() {
	em.mu.Lock()
	if n := len(em.pool); n > 0 {
		em.ref = em.pool[n-1]
		em.pool = em.pool[:n-1]
	} else {
		em.ref = &batchRef{em: em, buf: make([]analysis.Event, 0, em.batchSize)}
	}
	em.mu.Unlock()
	em.cur = em.ref.buf[:0]
}

// recycle returns a fully released ref to the pool. A batch no consumer
// ever took — every subscription skipped it, none was attached, or
// teardown discarded it from the queues — is counted dropped here, once.
func (em *Emitter) recycle(r *batchRef) {
	if !r.taken.Load() {
		em.dropped.Add(uint64(len(r.buf)))
	}
	em.mu.Lock()
	if !em.closed { // a closed stream never refills; let its buffers go
		em.pool = append(em.pool, r)
	}
	em.mu.Unlock()
}

// Interrupt unwedges a producer blocked in Flush on a Block subscription
// (skipping the deliveries it waited for) and makes further Block-mode
// deliveries non-blocking until ClearInterrupt. The one Emitter method safe
// to call from any goroutine; the session layer pairs it with
// Instance.Interrupt so a cancelled invocation cannot stay wedged on a
// lagging consumer. Idempotent.
func (em *Emitter) Interrupt() {
	em.intrMu.Lock()
	if !em.stopped {
		em.stopped = true
		close(em.stopc)
	}
	em.intrMu.Unlock()
}

// ClearInterrupt re-arms Block-mode backpressure after an Interrupt.
// Producer-side, like Flush: call it only between invocations.
func (em *Emitter) ClearInterrupt() {
	em.intrMu.Lock()
	if em.stopped {
		em.stopped = false
		em.stopc = make(chan struct{})
	}
	em.intrMu.Unlock()
}

// Close publishes the pending batch and ends the stream: every
// subscription's consumer sees end-of-stream once it drained its queue.
// Close is producer-side like Flush: call it only when no instrumented code
// is running. Idempotent.
func (em *Emitter) Close() {
	if em.closed {
		return
	}
	em.Flush()
	if !em.closed { // Flush may have hit a fault and ended the stream (fail)
		em.end()
	}
}

// end closes the subscriber side: no new subscriptions, no more refills,
// and every subscription's queue is closed.
func (em *Emitter) end() {
	em.mu.Lock()
	em.closed = true
	em.pool = nil
	em.mu.Unlock()
	em.cur, em.ref = nil, nil
	for _, s := range *em.subs.Load() {
		close(s.ch)
	}
}

// fail ends the stream with a terminal host-side error: the pending batch
// is discarded and counted, the subscribers are woken (they drain and see
// end-of-stream), and the error is recorded for Err. Producer-side, like
// Flush; first error wins, later faults only count their dropped events.
func (em *Emitter) fail(err error) {
	em.failMu.Lock()
	if em.failErr == nil {
		em.failErr = err
	}
	em.failMu.Unlock()
	em.dropped.Add(uint64(len(em.cur)))
	em.cur = em.cur[:0]
	if !em.closed {
		em.end()
	}
}

// Err returns the terminal host-side fault recorded by fail, or nil. Safe
// from any goroutine.
func (em *Emitter) Err() error {
	em.failMu.Lock()
	defer em.failMu.Unlock()
	return em.failErr
}

// CloseDiscard is the teardown path: it ends the stream WITHOUT waiting for
// any consumer, then discards and counts the pending batch and everything
// still queued on the subscriptions. Unlike Close (whose final flush waits
// on Block subscriptions) it never blocks, so Session.Close cannot hang on
// a consumer that stopped draining. Producer-side, idempotent, and safe
// after Close.
func (em *Emitter) CloseDiscard() {
	if !em.closed {
		em.dropped.Add(uint64(len(em.cur)))
		em.end()
	}
	for _, s := range *em.subs.Load() {
		for r := range s.ch { // closed by end: drains, then stops
			s.dropped.Add(uint64(len(r.buf)))
			r.release()
		}
	}
}

// Dropped returns the number of events no consumer received: published
// while no subscription was attached, skipped by every subscription,
// discarded at teardown before any consumer took them, or emitted after
// Close. A subscription's own misses are counted on it (Subscription
// .Dropped), so for a single-subscription stream the two agree.
func (em *Emitter) Dropped() uint64 { return em.dropped.Load() }

// batchRef is one published batch: the buffer plus the number of holders
// (queues it sits on, the producer while it publishes, a consumer between
// Next calls). The last release returns it to the emitter's pool.
type batchRef struct {
	buf   []analysis.Event
	refs  atomic.Int32
	taken atomic.Bool // some consumer's Next returned it
	em    *Emitter
}

func (r *batchRef) release() {
	if r.refs.Add(-1) == 0 {
		r.em.recycle(r)
	}
}

// Subscription is one consumer's end of an Emitter. Exactly one goroutine
// may consume a subscription, and Close belongs to that goroutine too.
type Subscription struct {
	em      *Emitter
	ch      chan *batchRef
	drop    bool
	gone    chan struct{} // closed by Close; unblocks a producer waiting here
	closed  bool
	prev    *batchRef // batch last handed out by Next
	dropped atomic.Uint64
}

// offer enqueues r under the subscription's policy and reports whether it
// did. A Block subscription waits for room unless the consumer leaves or
// the producer is interrupted; a skipped delivery is counted, one to a
// departed subscriber is not.
func (s *Subscription) offer(r *batchRef, stop <-chan struct{}) bool {
	select {
	case s.ch <- r:
		return true
	default:
	}
	if !s.drop {
		select {
		case s.ch <- r:
			return true
		case <-s.gone:
			return false
		case <-stop:
		}
	}
	s.dropped.Add(uint64(len(r.buf)))
	return false
}

// releaseQueued releases every ref sitting in the queue without a consumer
// taking it (recycle counts them dropped).
func (s *Subscription) releaseQueued() {
	for {
		select {
		case r, ok := <-s.ch:
			if !ok {
				return
			}
			r.release()
		default:
			return
		}
	}
}

// Next returns the next batch, blocking until the producer publishes one or
// the stream ends (ok == false). The batch is BORROWED and read-only: it is
// shared with every other subscriber and recycled after the next Next call
// releases this subscription's hold on it.
func (s *Subscription) Next() ([]analysis.Event, bool) {
	if s.prev != nil {
		s.prev.release()
		s.prev = nil
	}
	if s.closed {
		return nil, false
	}
	r, ok := <-s.ch
	if !ok {
		return nil, false
	}
	r.taken.Store(true)
	s.prev = r
	return r.buf, true
}

// Serve pulls batches and hands each to sink until the stream ends or the
// subscription is closed.
func (s *Subscription) Serve(sink analysis.EventSink) {
	for {
		batch, ok := s.Next()
		if !ok {
			return
		}
		sink.Events(batch)
	}
}

// Close unsubscribes: queued batches are released unseen and the producer
// stops delivering here (a Block subscription stops exerting backpressure).
// Consumer-side, like Next. A second Close fails with
// ErrSubscriptionClosed. Closing is optional for subscriptions consumed to
// end-of-stream; it exists so a subscriber can leave early without wedging
// a Block producer.
func (s *Subscription) Close() error {
	if s.closed {
		return ErrSubscriptionClosed
	}
	s.closed = true
	if s.prev != nil {
		s.prev.release()
		s.prev = nil
	}
	close(s.gone)
	s.em.removeSub(s)
	// Release what was queued. A publish racing the removal above releases
	// what it enqueues after this drain itself (Flush checks gone).
	s.releaseQueued()
	return nil
}

// Dropped returns how many event records were skipped for this
// subscription: Drop-policy misses on a full queue, deliveries abandoned
// by Interrupt, and what teardown discarded from its queue.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }
