package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// A helper runs a task under its caller's pprof labels, so CPU profiles
// attribute its samples to the caller's run, phase and level as they
// would a goroutine the caller started. runtime/pprof offers no way to
// read the current goroutine's labels, so the two runtime hooks behind
// pprof.Do are linked directly.

//go:linkname getProfLabel runtime/pprof.runtime_getProfLabel
func getProfLabel() unsafe.Pointer

//go:linkname setProfLabel runtime/pprof.runtime_setProfLabel
func setProfLabel(labels unsafe.Pointer)

// helperSpin is how long an idle helper keeps polling for a new task
// before it parks. It is longer than nearly every serial stretch
// between the engine calls of an optimizer run (p99.9 0.25–1.4 ms on a
// 512-px run), so a helper stays warm through a run, and short enough
// that an idle process parks its helpers almost at once. A spinning
// helper yields its thread between polls, so it never delays other
// goroutines.
const helperSpin = 2 * time.Millisecond

// helperSet is the process-wide set of helper goroutines. They live as
// long as the process, like a resident device, and cost nothing once
// parked. Tasks that still admit helpers wait in a FIFO open list; a
// helper joins the task at its head.
type helperSet struct {
	size int // number of helpers, GOMAXPROCS−1 at first use

	mu         sync.Mutex
	head, tail *task // open list
	sleeping   int   // parked helpers not yet sent a wake token
	open       atomic.Int32
	// wake carries one token per parked helper a publish wakes. It holds
	// one slot per helper: a publisher sends only as many tokens as it
	// takes from sleeping, so a send never blocks.
	wake chan struct{}
}

var (
	helpersOnce sync.Once
	helpers     *helperSet
)

// pool returns the helper set, starting its goroutines on first use.
func pool() *helperSet {
	helpersOnce.Do(func() {
		h := &helperSet{size: runtime.GOMAXPROCS(0) - 1}
		h.wake = make(chan struct{}, max(h.size, 1))
		for range h.size {
			go h.loop()
		}
		helpers = h
	})
	return helpers
}

// publish lists t as open to helpers and wakes as many parked helpers
// as it admits.
func (h *helperSet) publish(t *task) {
	if h.size == 0 {
		return
	}
	h.mu.Lock()
	t.link, t.listed = nil, true
	if h.tail == nil {
		h.head = t
	} else {
		h.tail.link = t
	}
	h.tail = t
	h.open.Add(1)
	wake := min(h.sleeping, t.limit)
	h.sleeping -= wake
	h.mu.Unlock()
	for range wake {
		h.wake <- struct{}{}
	}
}

// withdraw removes t from the open list if it is still there.
func (h *helperSet) withdraw(t *task) {
	if h.size == 0 {
		return
	}
	h.mu.Lock()
	if t.listed {
		h.unlink(t)
	}
	h.mu.Unlock()
}

// unlink removes t from the open list; h.mu must be held.
func (h *helperSet) unlink(t *task) {
	var prev *task
	for c := h.head; c != t; c = c.link {
		prev = c
	}
	if prev == nil {
		h.head = t.link
	} else {
		prev.link = t.link
	}
	if h.tail == t {
		h.tail = prev
	}
	t.link, t.listed = nil, false
	h.open.Add(-1)
}

// join admits the calling helper to the task at the head of the open
// list and returns it with the helper's ordinal, or nil when no task is
// open. A task leaves the list once it has admitted its limit.
func (h *helperSet) join() (*task, int) {
	if h.open.Load() == 0 {
		return nil, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for t := h.head; t != nil; t = h.head {
		if t.next.Load() >= int64(t.items) {
			h.unlink(t) // every item is claimed; the caller will withdraw it
			continue
		}
		t.joined++
		if t.joined == t.limit {
			h.unlink(t)
		}
		t.active.Add(1)
		t.done.Add(1)
		return t, t.joined
	}
	return nil, 0
}

// loop is a helper's life: run tasks while there are any, spin for
// helperSpin after the last one, then park until a publish wakes it.
// Between tasks it carries no pprof labels, not even those of the
// goroutine that started it.
func (h *helperSet) loop() {
	setProfLabel(nil)
	for {
		if t, worker := h.join(); t != nil {
			setProfLabel(t.labels)
			t.work(worker)
			setProfLabel(nil)
			t.done.Done()
			t.active.Add(-1)
			continue
		}
		if h.spin() {
			continue
		}
		h.mu.Lock()
		if h.head != nil {
			h.mu.Unlock()
			continue
		}
		h.sleeping++
		h.mu.Unlock()
		<-h.wake
	}
}

// spin polls for an open task for up to helperSpin and reports whether
// one appeared.
func (h *helperSet) spin() bool {
	start := time.Now()
	for h.open.Load() == 0 {
		if time.Since(start) > helperSpin {
			return false
		}
		runtime.Gosched()
	}
	return true
}
