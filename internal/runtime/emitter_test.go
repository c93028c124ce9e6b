package runtime

// The emitter's batch hand-off on real emitters: single-subscription
// delivery under both policies, the non-blocking teardown, broadcast to N
// subscriptions by reference, Drop isolation, the subscription lifecycle
// errors, and the buffer economy (flush + publish allocate nothing once the
// pool holds the working set).

import (
	"errors"
	"sync"
	"testing"
	"time"

	"wasabi/internal/analysis"
)

// emitN emits n records whose Aux carries the sequence number, so delivery
// order and identity are checkable.
func emitN(em *Emitter, n int) {
	for i := 0; i < n; i++ {
		em.emit(analysis.Event{Aux: uint32(i)})
	}
}

// collect drains sub to end-of-stream.
func collect(sub *Subscription) []analysis.Event {
	var got []analysis.Event
	for {
		batch, ok := sub.Next()
		if !ok {
			return got
		}
		got = append(got, batch...)
	}
}

// checkSeq asserts got is exactly records 0..n-1 in order.
func checkSeq(t *testing.T, name string, got []analysis.Event, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s saw %d events, want %d", name, len(got), n)
	}
	for i := range got {
		if got[i].Aux != uint32(i) {
			t.Fatalf("%s: event %d out of order: %d", name, i, got[i].Aux)
		}
	}
}

func mustSubscribe(t testing.TB, em *Emitter, queue int, mode Backpressure) *Subscription {
	t.Helper()
	sub, err := em.Subscribe(queue, mode)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	return sub
}

// TestEmitterBlockDelivery checks the lossless hand-off: a concurrent
// consumer sees every emitted record, in order, across many batch cycles.
func TestEmitterBlockDelivery(t *testing.T) {
	em := NewEmitter(64)
	sub := mustSubscribe(t, em, StreamQueue, Block)
	const n = 10_000
	var got []analysis.Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		got = collect(sub)
	}()
	emitN(em, n)
	em.Close()
	<-done
	checkSeq(t, "consumer", got, n)
	if em.Dropped() != 0 {
		t.Errorf("Block mode dropped %d events", em.Dropped())
	}
}

// TestEmitterCloseDiscardNeverBlocks pins the teardown path: with the
// queue at capacity, a non-empty current batch, and no consumer,
// CloseDiscard must return (Close's lossless final flush would wait forever
// here) and account every event as dropped.
func TestEmitterCloseDiscardNeverBlocks(t *testing.T) {
	em := NewEmitter(4)
	sub := mustSubscribe(t, em, StreamQueue, Block)
	const n = 11 // two full batches queued + 3 pending in cur
	emitN(em, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		em.CloseDiscard()
		em.CloseDiscard() // idempotent
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("CloseDiscard blocked")
	}
	if em.Dropped() != n {
		t.Errorf("dropped %d events, want all %d", em.Dropped(), n)
	}
	if sub.Dropped() != 8 {
		t.Errorf("subscription counted %d discarded events, want the 8 queued", sub.Dropped())
	}
	if _, ok := sub.Next(); ok {
		t.Error("Next delivered a batch after CloseDiscard")
	}
}

// TestEmitterDropBackpressure checks the lossy mode: with no consumer the
// producer never stalls, the queued batches survive, and the overflow is
// counted.
func TestEmitterDropBackpressure(t *testing.T) {
	em := NewEmitter(8)
	sub := mustSubscribe(t, em, StreamQueue, Drop)
	const n = 1000
	emitN(em, n)
	em.Close()
	got := len(collect(sub))
	if got == 0 {
		t.Error("drop mode delivered nothing; the queued batches should survive")
	}
	if em.Dropped() == 0 {
		t.Error("drop mode with no consumer dropped nothing")
	}
	if uint64(got)+em.Dropped() != n {
		t.Errorf("delivered %d + dropped %d != emitted %d", got, em.Dropped(), n)
	}
	if sub.Dropped() != em.Dropped() {
		t.Errorf("subscription dropped %d, emitter %d: a sole subscriber's misses are the stream's", sub.Dropped(), em.Dropped())
	}
}

// TestEmitterDropsWithoutSubscribers pins that batches published to nobody
// are counted, not silently discarded.
func TestEmitterDropsWithoutSubscribers(t *testing.T) {
	em := NewEmitter(4)
	emitN(em, 10)
	em.Close()
	if em.Dropped() != 10 {
		t.Errorf("dropped %d events with no subscription attached, want 10", em.Dropped())
	}
}

func TestBroadcastParity(t *testing.T) {
	const n = 16 * 4
	em := NewEmitter(4)
	const subscribers = 4
	subs := make([]*Subscription, subscribers)
	for i := range subs {
		subs[i] = mustSubscribe(t, em, 2, Block)
	}
	results := make([][]analysis.Event, subscribers)
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub *Subscription) {
			defer wg.Done()
			results[i] = collect(sub)
		}(i, sub)
	}
	emitN(em, n)
	em.Close()
	wg.Wait()
	for i, got := range results {
		checkSeq(t, "subscriber", got, n)
		if d := subs[i].Dropped(); d != 0 {
			t.Errorf("subscriber %d: Dropped() = %d on a Block subscription", i, d)
		}
	}
	if em.Dropped() != 0 {
		t.Errorf("emitter dropped %d events with every subscriber draining", em.Dropped())
	}
}

func TestSlowDropSubscriberNeverStalls(t *testing.T) {
	const n = 32 * 4
	em := NewEmitter(4)
	// The Drop subscriber has a 1-batch queue and no consumer at all.
	slow := mustSubscribe(t, em, 1, Drop)
	fast := mustSubscribe(t, em, 2, Block)
	done := make(chan []analysis.Event, 1)
	go func() { done <- collect(fast) }()
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		emitN(em, n)
		em.Close()
	}()
	select {
	case <-produced:
	case <-time.After(10 * time.Second):
		t.Fatal("producer stalled behind an undrained Drop subscriber")
	}
	checkSeq(t, "block peer", <-done, n)
	if slow.Dropped() == 0 {
		t.Error("undrained 1-deep Drop subscription reported no drops")
	}
	if em.Dropped() != 0 {
		t.Errorf("emitter dropped %d events although the Block peer received all", em.Dropped())
	}
	// The undrained queue still holds a reference; Close releases it.
	if err := slow.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestSubscribeAfterCloseFails(t *testing.T) {
	em := NewEmitter(4)
	em.Close()
	if _, err := em.Subscribe(1, Block); !errors.Is(err, ErrFabricClosed) {
		t.Fatalf("Subscribe after Close = %v, want ErrFabricClosed", err)
	}
}

func TestDoubleSubscriptionClose(t *testing.T) {
	em := NewEmitter(4)
	sub := mustSubscribe(t, em, 1, Block)
	emitN(em, 2)
	em.Flush()
	if err := sub.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := sub.Close(); !errors.Is(err, ErrSubscriptionClosed) {
		t.Fatalf("second Close = %v, want ErrSubscriptionClosed", err)
	}
	if _, ok := sub.Next(); ok {
		t.Fatal("Next after Close delivered a batch")
	}
	// The closed subscription no longer exerts backpressure: a Block
	// producer with its only subscriber gone publishes without waiting.
	emitN(em, 4*8)
	em.Close()
}

// TestBufferEconomy pins the refcount/pool contract: once every
// subscriber has released a batch its buffer is reused, so steady-state
// flush + publish to three subscriptions allocates nothing.
func TestBufferEconomy(t *testing.T) {
	em := NewEmitter(8)
	subs := []*Subscription{
		mustSubscribe(t, em, 2, Block),
		mustSubscribe(t, em, 2, Block),
		mustSubscribe(t, em, 2, Drop),
	}
	cycle := func() {
		emitN(em, 8)
		em.Flush()
		for _, sub := range subs {
			if _, ok := sub.Next(); !ok {
				t.Fatal("subscription ended early")
			}
		}
	}
	cycle() // warm-up: fill the pool to the working set
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state flush+publish to %d subscriptions: %.1f allocs/op, want 0", len(subs), allocs)
	}
	em.Close()
	for i, sub := range subs {
		if _, ok := sub.Next(); ok {
			t.Errorf("subscription %d: batch after Close", i)
		}
		if d := sub.Dropped(); d != 0 {
			t.Errorf("subscription %d dropped %d events", i, d)
		}
	}
	if em.Dropped() != 0 {
		t.Errorf("emitter dropped %d events", em.Dropped())
	}
}

// TestSubscriptionCloseMidStream: a Block subscriber that leaves early
// while the producer is publishing must neither stall the producer nor
// disturb its peers, and a subscriber joining mid-stream sees a suffix.
func TestSubscriptionCloseMidStream(t *testing.T) {
	const n = 4 * 256
	em := NewEmitter(4)
	peer := mustSubscribe(t, em, 1, Block)
	leaver := mustSubscribe(t, em, 1, Block)
	var wg sync.WaitGroup
	var peerGot, lateGot []analysis.Event
	wg.Add(2)
	go func() {
		defer wg.Done()
		peerGot = collect(peer)
	}()
	joined := make(chan *Subscription, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, ok := leaver.Next(); !ok {
				t.Error("leaver: stream ended early")
				return
			}
		}
		if err := leaver.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		late, err := em.Subscribe(1, Block)
		joined <- late
		if err == nil {
			lateGot = collect(late)
		}
	}()
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		emitN(em, n)
		<-joined // keep the stream open until the late subscriber attached
		emitN(em, 8)
		em.Close()
	}()
	select {
	case <-produced:
	case <-time.After(10 * time.Second):
		t.Fatal("producer stalled behind a subscriber that left")
	}
	wg.Wait()
	if len(peerGot) != n+8 {
		t.Fatalf("peer saw %d events, want %d", len(peerGot), n+8)
	}
	checkSeq(t, "peer", peerGot[:n], n)
	if len(lateGot) < 8 {
		t.Errorf("late subscriber saw %d events, want at least the last 8", len(lateGot))
	}
}

// TestCloseRacingFlushCountsEveryBatch is the regression test for a batch
// stranded by Subscription.Close racing a publish: Flush loads the
// subscription list, Close drains the queue, and only then does the publish
// enqueue its ref, which nobody would ever release. Every batch must end up
// either taken by the consumer or counted in Emitter.Dropped. The race is
// narrow, so the scenario repeats.
func TestCloseRacingFlushCountsEveryBatch(t *testing.T) {
	const batches = 200
	runs := 2000
	if testing.Short() {
		runs = 200
	}
	for run := 0; run < runs; run++ {
		em := NewEmitter(1)
		sub := mustSubscribe(t, em, 1, Drop)
		taken := 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			for taken < 3 {
				if _, ok := sub.Next(); !ok {
					break
				}
				taken++
			}
			if err := sub.Close(); err != nil {
				t.Error(err)
			}
		}()
		for i := 0; i < batches; i++ {
			em.emit(analysis.Event{Aux: uint32(i)})
			em.Flush()
		}
		em.Close()
		<-done
		if got := uint64(taken) + em.Dropped(); got != batches {
			t.Fatalf("run %d: %d taken + %d dropped = %d batches, want %d", run, taken, em.Dropped(), got, batches)
		}
	}
}
