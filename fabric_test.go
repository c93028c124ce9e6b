package wasabi_test

// End-to-end coverage of the fan-out surface: the N-subscriber parity bar
// (every Block subscriber and a sink replay must observe the exact record
// sequence a single-consumer stream produces over the Fig 9 workload),
// peer isolation (an undrained Drop subscriber cannot stall the producer
// or its peers), and the fabric lifecycle errors. Everything here must be
// race-clean and leak-free: subscribers run on their own goroutines.

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wasabi"
	"wasabi/internal/leakcheck"
	"wasabi/internal/polybench"
	"wasabi/internal/sink"
)

// recordSink copies every delivered record (batches are borrowed).
type recordSink struct {
	recs []wasabi.Event
}

func (r *recordSink) Events(batch []wasabi.Event) {
	r.recs = append(r.recs, batch...)
}

// collectStreamRecords runs the Fig 9 kernel under a single-consumer
// stream and returns the complete record sequence — the parity reference.
func collectStreamRecords(t *testing.T, compiled *wasabi.CompiledAnalysis) []wasabi.Event {
	t.Helper()
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	st, err := sess.Stream()
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordSink{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Serve(rec)
	}()
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	st.Close()
	<-done
	return rec.recs
}

// TestFanoutParity is the acceptance bar of the fabric: 8 subscribers
// (5 Block, 3 Drop) plus a durable sink over one execution — every Block
// subscriber and the sink's replay must yield the single-consumer record
// sequence exactly.
func TestFanoutParity(t *testing.T) {
	defer leakcheck.Check(t)
	_, compiled := fig9Workload(t, 12)
	want := collectStreamRecords(t, compiled)
	if len(want) == 0 {
		t.Fatal("reference stream produced no records")
	}

	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fab, err := sess.Fanout()
	if err != nil {
		t.Fatal(err)
	}

	const nBlock, nDrop = 5, 3
	var wg sync.WaitGroup
	blockSinks := make([]*recordSink, nBlock)
	for i := range blockSinks {
		sub, err := fab.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		blockSinks[i] = &recordSink{}
		wg.Add(1)
		go func(sub *wasabi.Subscription, rs *recordSink) {
			defer wg.Done()
			sub.Serve(rs)
		}(sub, blockSinks[i])
	}
	dropSinks := make([]*recordSink, nDrop)
	dropSubs := make([]*wasabi.Subscription, nDrop)
	for i := range dropSinks {
		sub, err := fab.Subscribe(
			wasabi.SubscribeBackpressure(wasabi.BackpressureDrop),
			wasabi.SubscribeQueue(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		dropSinks[i], dropSubs[i] = &recordSink{}, sub
		wg.Add(1)
		go func(sub *wasabi.Subscription, rs *recordSink) {
			defer wg.Done()
			sub.Serve(rs)
		}(sub, dropSinks[i])
	}

	evlog := filepath.Join(t.TempDir(), "fanout.evlog")
	w, err := sink.Create(evlog, fab.Table())
	if err != nil {
		t.Fatal(err)
	}
	sinkSub, err := fab.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sinkSub.Serve(w)
	}()

	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	fab.Close()
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("sink Close: %v", err)
	}

	assertSeq := func(name string, got []wasabi.Event) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s observed %d records, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s record %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	for i, rs := range blockSinks {
		assertSeq("block subscriber "+string(rune('0'+i)), rs.recs)
	}
	// Drop subscribers with live consumers may or may not lose batches;
	// what they did observe must be a prefix-free subset in order — checked
	// loosely here via counts (loss accounting) since the strict bar is on
	// Block subscribers.
	for i, rs := range dropSinks {
		if uint64(len(rs.recs))+dropSubs[i].Dropped() != uint64(len(want)) {
			t.Errorf("drop subscriber %d: %d observed + %d dropped != %d produced",
				i, len(rs.recs), dropSubs[i].Dropped(), len(want))
		}
	}
	if fab.Dropped() != 0 {
		t.Errorf("producer-side drops on an all-drained fabric: %d", fab.Dropped())
	}

	r, err := sink.Open(evlog)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer r.Close()
	assertSeq("sink replay", r.Records())
	// And the replay decodes through the same table the live stream used.
	if len(r.Table().Specs) != len(fab.Table().Specs) {
		t.Errorf("replay table has %d specs, live table %d", len(r.Table().Specs), len(fab.Table().Specs))
	}
}

// TestFanoutSlowDropPeerIsolation pins the isolation guarantee: a Drop
// subscriber that never drains must not stall the producer or a Block
// peer.
func TestFanoutSlowDropPeerIsolation(t *testing.T) {
	defer leakcheck.Check(t)
	_, compiled := fig9Workload(t, 12)
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	fab, err := sess.Fanout(wasabi.StreamBatchSize(256))
	if err != nil {
		t.Fatal(err)
	}
	stuck, err := fab.Subscribe(
		wasabi.SubscribeBackpressure(wasabi.BackpressureDrop),
		wasabi.SubscribeQueue(1),
	) // never consumed
	if err != nil {
		t.Fatal(err)
	}
	peer, err := fab.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	rs := &recordSink{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		peer.Serve(rs)
	}()

	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan error, 1)
	go func() {
		_, err := inst.Invoke("kernel")
		fab.Close()
		finished <- err
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("producer stalled behind an undrained Drop subscriber")
	}
	<-done
	if len(rs.recs) == 0 {
		t.Fatal("block peer observed nothing")
	}
	if stuck.Dropped() == 0 {
		t.Error("undrained 1-deep Drop subscription dropped nothing over a full gemm run")
	}
	if err := stuck.Close(); err != nil {
		t.Fatalf("Close on the stuck subscription: %v", err)
	}
}

// TestFanoutLifecycleErrors drives the misuse paths: fabric ordering
// errors, subscribe-after-close, double subscription close, and option
// validation.
func TestFanoutLifecycleErrors(t *testing.T) {
	defer leakcheck.Check(t)
	_, compiled := fig9Workload(t, 4)

	t.Run("FanoutAfterStream", func(t *testing.T) {
		sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.Stream(); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Fanout(); !errors.Is(err, wasabi.ErrStreamActive) {
			t.Fatalf("Fanout after Stream = %v, want ErrStreamActive", err)
		}
	})

	t.Run("FanoutAfterInstantiate", func(t *testing.T) {
		sess, err := compiled.NewSession(&nopOnly{})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.Instantiate("", polybench.HostImports(nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Fanout(); !errors.Is(err, wasabi.ErrStreamAfterInstantiate) {
			t.Fatalf("Fanout after Instantiate = %v, want ErrStreamAfterInstantiate", err)
		}
	})

	t.Run("SubscribeAfterClose", func(t *testing.T) {
		sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		fab, err := sess.Fanout()
		if err != nil {
			t.Fatal(err)
		}
		fab.Close()
		if _, err := fab.Subscribe(); !errors.Is(err, wasabi.ErrFabricClosed) {
			t.Fatalf("Subscribe after Close = %v, want ErrFabricClosed", err)
		}
	})

	t.Run("DoubleSubscriptionClose", func(t *testing.T) {
		sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		fab, err := sess.Fanout()
		if err != nil {
			t.Fatal(err)
		}
		sub, err := fab.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Close(); err != nil {
			t.Fatalf("first Close: %v", err)
		}
		if err := sub.Close(); !errors.Is(err, wasabi.ErrSubscriptionClosed) {
			t.Fatalf("second Close = %v, want ErrSubscriptionClosed", err)
		}
		fab.Close()
	})

	t.Run("BadSubscribeQueue", func(t *testing.T) {
		sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		fab, err := sess.Fanout()
		if err != nil {
			t.Fatal(err)
		}
		defer fab.Close()
		if _, err := fab.Subscribe(wasabi.SubscribeQueue(0)); !errors.Is(err, wasabi.ErrBadOption) {
			t.Fatalf("SubscribeQueue(0) = %v, want ErrBadOption", err)
		}
	})

	t.Run("BadSubscriberQueueOption", func(t *testing.T) {
		if _, err := wasabi.NewEngine(wasabi.WithSubscriberQueue(0)); !errors.Is(err, wasabi.ErrBadOption) {
			t.Fatalf("WithSubscriberQueue(0) = %v, want ErrBadOption", err)
		}
	})
}

// TestFanoutSessionCloseTeardown: closing the session with a wedged Block
// subscriber must not hang (the registry-eviction analogue of the stream
// teardown bar), and the subscriber must observe end-of-stream.
func TestFanoutSessionCloseTeardown(t *testing.T) {
	defer leakcheck.Check(t)
	_, compiled := fig9Workload(t, 8)
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		t.Fatal(err)
	}
	fab, err := sess.Fanout(wasabi.StreamBatchSize(64), wasabi.StreamBackpressure(wasabi.BackpressureDrop))
	if err != nil {
		t.Fatal(err)
	}
	wedged, err := fab.Subscribe(wasabi.SubscribeQueue(1)) // the stream's Drop policy, never drained during the run
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Drop by the stream's default: the run completes even though the
	// subscription is never drained.
	if _, err := inst.Invoke("kernel"); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		sess.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(60 * time.Second):
		t.Fatal("Session.Close hung on a wedged Block subscriber")
	}
	// Teardown discarded what was queued; the subscriber ends.
	for {
		if _, ok := wedged.Next(); !ok {
			break
		}
	}
}
