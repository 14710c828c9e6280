package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Len returns the number of buffered events awaiting the consumer.
func (s *Subscription) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Len()
}

func TestBusDeliversInOrder(t *testing.T) {
	b := NewBus(NewRegistry())
	sub := b.Subscribe(16)
	defer sub.Close()
	for i := 1; i <= 5; i++ {
		b.Emit(Event{Type: EventIteration, Trace: "s1", Iter: i})
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		e, ok := sub.Next(ctx)
		if !ok {
			t.Fatalf("event %d: stream ended early", i)
		}
		if e.Iter != i {
			t.Fatalf("event %d: got iter %d", i, e.Iter)
		}
		if e.TimeNS == 0 || e.Seq == 0 {
			t.Fatalf("event %d not stamped: time_ns=%d seq=%d", i, e.TimeNS, e.Seq)
		}
	}
	if d := sub.Drops(); d != 0 {
		t.Fatalf("drops = %d, want 0", d)
	}
}

func TestBusTypeFilter(t *testing.T) {
	b := NewBus(NewRegistry())
	sub := b.Subscribe(16, EventHealth, EventCancelled)
	defer sub.Close()
	b.Emit(Event{Type: EventIteration, Trace: "s1", Iter: 1})
	b.Emit(Event{Type: EventHealth, Trace: "s1", Msg: "cost_nan"})
	b.Emit(Event{Type: EventPool, Name: "field.lease"})
	b.Emit(Event{Type: EventCancelled, Trace: "s1", Msg: "deadline"})

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if e, ok := sub.Next(ctx); !ok || e.Type != EventHealth {
		t.Fatalf("first = %v %v, want health", e.Type, ok)
	}
	if e, ok := sub.Next(ctx); !ok || e.Type != EventCancelled {
		t.Fatalf("second = %v %v, want cancelled", e.Type, ok)
	}
	if n := sub.Len(); n != 0 {
		t.Fatalf("len = %d after draining", n)
	}
}

// TestBusSlowSubscriberDrops pins the backpressure contract: a consumer
// that never drains loses exactly the oldest events, the counters (the
// subscription's, the bus aggregate, and the registry metric) agree,
// and the retained window is the most recent buf events.
func TestBusSlowSubscriberDrops(t *testing.T) {
	reg := NewRegistry()
	b := NewBus(reg)
	const buf, emitted = 8, 50
	sub := b.Subscribe(buf)
	defer sub.Close()
	for i := 0; i < emitted; i++ {
		b.Emit(Event{Type: EventIteration, Trace: "s1", Iter: i})
	}
	wantDrops := int64(emitted - buf)
	if d := sub.Drops(); d != wantDrops {
		t.Fatalf("sub drops = %d, want %d", d, wantDrops)
	}
	if d := reg.Snapshot()["obs.bus.dropped"]; d != float64(wantDrops) {
		t.Fatalf("bus dropped = %v, want %d", d, wantDrops)
	}
	name := fmt.Sprintf("obs.bus.sub%d.dropped", sub.ID())
	if got := reg.Snapshot()[name]; got != float64(wantDrops) {
		t.Fatalf("registry %s = %v, want %d", name, got, wantDrops)
	}
	// Oldest dropped: the surviving window is the last buf events.
	for i := emitted - buf; i < emitted; i++ {
		e, ok := sub.TryNext()
		if !ok || e.Iter != i {
			t.Fatalf("surviving window: got (%d,%v), want iter %d", e.Iter, ok, i)
		}
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("ring should be empty")
	}

	// Closing unregisters the per-subscriber counter.
	sub.Close()
	if _, ok := reg.Snapshot()[name]; ok {
		t.Fatalf("%s still in registry after Close", name)
	}
}

func TestBusSubscribeUnsubscribe(t *testing.T) {
	reg := NewRegistry()
	b := NewBus(reg)
	s1 := b.Subscribe(4)
	s2 := b.Subscribe(4)
	if g := reg.Snapshot()["obs.bus.subscribers"]; g != 2 {
		t.Fatalf("gauge = %v, want 2", g)
	}
	b.Emit(Event{Type: EventSpan, Trace: "s1", Name: "evaluate"})
	s1.Close()
	s1.Close() // idempotent
	b.Emit(Event{Type: EventSpan, Trace: "s1", Name: "evaluate"})
	if n := s1.Len(); n != 1 {
		t.Fatalf("closed sub buffered %d, want the 1 pre-close event", n)
	}
	if n := s2.Len(); n != 2 {
		t.Fatalf("live sub buffered %d, want 2", n)
	}
	s2.Close()
	if g := reg.Snapshot()["obs.bus.subscribers"]; g != 0 {
		t.Fatalf("gauge = %v after closing all", g)
	}
}

func TestBusNextUnblocksOnClose(t *testing.T) {
	b := NewBus(NewRegistry())
	sub := b.Subscribe(4)
	done := make(chan bool, 1)
	go func() {
		_, ok := sub.Next(context.Background())
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	sub.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned an event after Close on an empty ring")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not unblock on Close")
	}
}

func TestBusNextUnblocksOnContextCancel(t *testing.T) {
	b := NewBus(NewRegistry())
	sub := b.Subscribe(4)
	defer sub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := sub.Next(ctx)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned an event after ctx cancel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not unblock on ctx cancel")
	}
}

// TestBusConcurrentEmittersAndSubscribers is the -race stress: several
// emitters fan events at the bus while subscribers churn — one drains
// live, one stalls (drop pressure), others subscribe/unsubscribe
// mid-stream. Correctness: no event is lost without being counted.
func TestBusConcurrentEmittersAndSubscribers(t *testing.T) {
	b := NewBus(NewRegistry())
	const emitters, perEmitter = 4, 500

	drainer := b.Subscribe(64)
	stalled := b.Subscribe(8) // never drained until the end

	var drained int64
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, ok := drainer.Next(ctx); !ok {
				return
			}
			drained++
		}
	}()

	// Churning subscribers: attach, read a few, detach.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s := b.Subscribe(16)
			for j := 0; j < 5; j++ {
				s.TryNext()
			}
			s.Close()
		}
	}()

	var ewg sync.WaitGroup
	for w := 0; w < emitters; w++ {
		ewg.Add(1)
		go func(w int) {
			defer ewg.Done()
			for i := 0; i < perEmitter; i++ {
				b.Emit(Event{Type: EventIteration, Trace: "s1", Iter: w*perEmitter + i})
			}
		}(w)
	}
	ewg.Wait()
	drainer.Close()
	wg.Wait()

	total := int64(emitters * perEmitter)
	// The drainer's conservation law: delivered + dropped + still
	// buffered = total emitted while subscribed.
	left := int64(0)
	for {
		if _, ok := drainer.TryNext(); !ok {
			break
		}
		left++
	}
	if got := drained + left + drainer.Drops(); got != total {
		t.Fatalf("drainer conservation: drained %d + left %d + dropped %d = %d, want %d",
			drained, left, drainer.Drops(), got, total)
	}
	// The stalled subscriber kept exactly its ring capacity and counted
	// the rest as drops.
	if got := int64(stalled.Len()) + stalled.Drops(); got != total {
		t.Fatalf("stalled conservation: len %d + drops %d = %d, want %d",
			stalled.Len(), stalled.Drops(), got, total)
	}
	if stalled.Len() != 8 {
		t.Fatalf("stalled ring holds %d, want its capacity 8", stalled.Len())
	}
	stalled.Close()
}

// TestBusEmitNoSubscribersDoesNotAllocate pins the inert fast path the
// same way the disabled-sink alloc tests do: with no subscribers an
// Emit must not touch the heap.
func TestBusEmitNoSubscribersDoesNotAllocate(t *testing.T) {
	b := NewBus(NewRegistry())
	e := Event{Type: EventIteration, Trace: "s1", Iter: 1, Cost: 0.5}
	if allocs := testing.AllocsPerRun(1000, func() { b.Emit(e) }); allocs != 0 {
		t.Fatalf("Emit with no subscribers allocated %.1f times per call, want 0", allocs)
	}
	// And after the last subscriber detaches, the fast path is restored.
	sub := b.Subscribe(4)
	b.Emit(e)
	sub.Close()
	if allocs := testing.AllocsPerRun(1000, func() { b.Emit(e) }); allocs != 0 {
		t.Fatalf("Emit after last unsubscribe allocated %.1f times per call, want 0", allocs)
	}
}

// BenchmarkBusEmitNoSubscribers gates the zero-subscriber emit path:
// run with -benchmem, allocs/op must stay 0 (the acceptance criterion
// of the live-telemetry issue).
func BenchmarkBusEmitNoSubscribers(b *testing.B) {
	bus := NewBus(NewRegistry())
	e := Event{Type: EventIteration, Trace: "s1", Iter: 1, Cost: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Emit(e)
	}
}

// BenchmarkBusEmitOneSubscriber measures the attached-subscriber cost
// (ring push + notify; the subscriber never drains, so this includes
// the drop-oldest path — the worst case the hot loop can see).
func BenchmarkBusEmitOneSubscriber(b *testing.B) {
	bus := NewBus(NewRegistry())
	sub := bus.Subscribe(256)
	defer sub.Close()
	e := Event{Type: EventIteration, Trace: "s1", Iter: 1, Cost: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Emit(e)
	}
}
