package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Bus is a fan-out Sink that tees an event stream to dynamically
// attached subscribers. It is the live half of the trace pipeline:
// compose it with the persistent JSONL sink via TeeSink and any number
// of consumers (SSE streams, the run registry, tests) can watch the run
// without touching the producers.
//
// Cost contract, in line with the rest of the package:
//
//   - With zero subscribers, Emit is one atomic pointer load and a nil
//     check — no allocation, no time.Now, no locked section. The
//     no-subscriber path is benchmark-gated (BenchmarkBusEmitNoSubscribers)
//     and alloc-tested like the disabled-sink path.
//   - With subscribers, Emit never blocks the producer. Each subscriber
//     owns a bounded ring buffer; when a slow consumer falls more than a
//     ring behind, the oldest events are overwritten and counted — per
//     subscriber (Subscription.Drops, surfaced in the metrics registry
//     as obs.bus.sub<id>.dropped) and in aggregate (obs.bus.dropped).
//
// A Bus is safe for concurrent use by any number of emitters and
// subscribers.
type Bus struct {
	reg *Registry

	// subs is a copy-on-write snapshot of the subscriber set. Emit loads
	// it once; Subscribe/Close swap new slices in under mu. nil (not an
	// empty slice) means "no subscribers", keeping the fast path to one
	// atomic load.
	subs   atomic.Pointer[[]*Subscription]
	mu     sync.Mutex
	nextID atomic.Int64
	seq    atomic.Int64

	events    *Counter // obs.bus.events: events fanned out (≥ 1 subscriber)
	dropped   *Counter // obs.bus.dropped: ring overwrites across all subscribers
	subsGauge *Gauge   // obs.bus.subscribers: currently attached
}

// NewBus returns a bus recording its gauges and drop counters into reg
// (nil means the Default registry).
func NewBus(reg *Registry) *Bus {
	if reg == nil {
		reg = Default
	}
	return &Bus{
		reg:       reg,
		events:    reg.Counter("obs.bus.events"),
		dropped:   reg.Counter("obs.bus.dropped"),
		subsGauge: reg.Gauge("obs.bus.subscribers"),
	}
}

// Emit implements Sink. With no subscribers it returns immediately
// (zero allocations); otherwise it stamps wall time and a bus sequence
// number (when the upstream sink has not already) and offers the event
// to every subscriber's ring without ever blocking.
func (b *Bus) Emit(e Event) {
	subs := b.subs.Load()
	if subs == nil {
		return
	}
	if e.TimeNS == 0 {
		e.TimeNS = time.Now().UnixNano()
	}
	if e.Seq == 0 {
		e.Seq = b.seq.Add(1)
	}
	b.events.Inc()
	for _, s := range *subs {
		s.push(e)
	}
}

// Unregister removes the bus's aggregate metrics (obs.bus.events,
// obs.bus.dropped, obs.bus.subscribers) from its registry. Call it when
// retiring a bus in a long-lived process — a live-server shutdown —
// so repeated serve cycles don't accumulate stale entries. Attached
// subscribers keep working; only the registry export stops.
func (b *Bus) Unregister() {
	b.reg.Remove("obs.bus.events")
	b.reg.Remove("obs.bus.dropped")
	b.reg.Remove("obs.bus.subscribers")
}

// Subscription is one consumer's bounded view of the bus. A single
// goroutine should drain it (Next/TryNext); push is concurrency-safe
// against that consumer. Close detaches it from the bus.
type Subscription struct {
	bus   *Bus
	id    int64
	types map[string]struct{} // nil = all event types

	mu     sync.Mutex
	ring   *Ring[Event]
	closed bool
	notify chan struct{}

	drops    atomic.Int64
	dropCntr *Counter
}

// dropCounterName is the per-subscriber registry key; removed again on
// Close so long-lived processes with churning SSE clients keep a
// bounded registry.
func dropCounterName(id int64) string { return fmt.Sprintf("obs.bus.sub%d.dropped", id) }

// Subscribe attaches a new subscriber with a ring of the given capacity
// (≤ 0 selects 256). With types given, only those event kinds enter the
// ring — the filter runs producer-side, so uninteresting events cannot
// crowd out interesting ones.
func (b *Bus) Subscribe(buf int, types ...string) *Subscription {
	if buf <= 0 {
		buf = 256
	}
	s := &Subscription{
		bus:    b,
		id:     b.nextID.Add(1),
		ring:   NewRing[Event](buf),
		notify: make(chan struct{}, 1),
	}
	if len(types) > 0 {
		s.types = make(map[string]struct{}, len(types))
		for _, t := range types {
			if t != "" {
				s.types[t] = struct{}{}
			}
		}
	}
	s.dropCntr = b.reg.Counter(dropCounterName(s.id))
	b.mu.Lock()
	var next []*Subscription
	if old := b.subs.Load(); old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	b.subs.Store(&next)
	b.mu.Unlock()
	b.subsGauge.Add(1)
	return s
}

// ID returns the subscription's bus-unique id.
func (s *Subscription) ID() int64 { return s.id }

// Drops returns how many events this subscription has lost to ring
// overwrites so far.
func (s *Subscription) Drops() int64 { return s.drops.Load() }

// push offers one event to the ring, overwriting the oldest entry (and
// counting the drop) when the consumer has fallen a full ring behind.
// It never blocks: the notify channel send is non-blocking and the
// locked section is a few index updates.
func (s *Subscription) push(e Event) {
	if s.types != nil {
		if _, ok := s.types[e.Type]; !ok {
			return
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.ring.Push(e) {
		s.drops.Add(1)
		s.dropCntr.Inc()
		s.bus.dropped.Inc()
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next pops the oldest buffered event, blocking until one arrives, the
// context is done, or the subscription is closed. The second return is
// false exactly when no event is delivered (closed or ctx done).
func (s *Subscription) Next(ctx context.Context) (Event, bool) {
	for {
		if e, ok := s.TryNext(); ok {
			return e, true
		}
		s.mu.Lock()
		closed := s.closed && s.ring.Len() == 0
		s.mu.Unlock()
		if closed {
			return Event{}, false
		}
		select {
		case <-s.notify:
		case <-ctx.Done():
			return Event{}, false
		}
	}
}

// TryNext pops the oldest buffered event without blocking.
func (s *Subscription) TryNext() (Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Pop()
}

// Close detaches the subscription from the bus. Buffered events remain
// drainable via Next/TryNext; after the buffer empties, Next returns
// false. Idempotent, and safe concurrently with emitters.
func (s *Subscription) Close() {
	b := s.bus
	b.mu.Lock()
	if old := b.subs.Load(); old != nil {
		next := make([]*Subscription, 0, len(*old))
		for _, o := range *old {
			if o != s {
				next = append(next, o)
			}
		}
		if len(next) == 0 {
			b.subs.Store(nil)
		} else {
			b.subs.Store(&next)
		}
	}
	b.mu.Unlock()

	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return
	}
	b.subsGauge.Add(-1)
	b.reg.Remove(dropCounterName(s.id))
	// Wake a blocked Next so it can observe the close.
	select {
	case s.notify <- struct{}{}:
	default:
	}
}
