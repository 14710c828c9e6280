package obs

// Ring is a bounded FIFO buffer that overwrites its oldest element when
// full. It backs every bounded buffer of the observability layer: bus
// subscriptions, the run registry's iteration tails and the flight
// recorder's event and runtime-snapshot rings. Storage is allocated
// once by NewRing, so Push and Pop never allocate.
//
// A Ring is not safe for concurrent use; its owners serialize access
// under their own locks.
type Ring[T any] struct {
	buf     []T
	head, n int
}

// NewRing returns an empty ring holding up to capacity elements
// (capacity must be ≥ 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, overwriting the oldest element when the ring is full;
// it reports whether an element was overwritten.
func (r *Ring[T]) Push(v T) (overwrote bool) {
	if r.n == len(r.buf) {
		r.buf[r.head] = v
		r.head = (r.head + 1) % len(r.buf)
		return true
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	return false
}

// Pop removes and returns the oldest element.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v, true
}

// Len returns the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// Items returns a copy of the buffered elements, oldest first.
func (r *Ring[T]) Items() []T {
	out := make([]T, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}
