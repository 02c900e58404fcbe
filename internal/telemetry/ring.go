package telemetry

import "sync"

// ring is the bounded, mutex-guarded buffer behind Trace and SpanRing:
// it stamps each item with a sequence number and, once full, overwrites
// the oldest item and counts the drop. The owner decides how the
// storage grows: capacity preallocated in items means emit never
// allocates; otherwise it grows on demand up to capacity.
type ring[T any] struct {
	mu       sync.Mutex
	capacity int
	items    []T
	start    int // index of the oldest item once the ring wrapped
	seq      int64
	dropped  int64
}

// emit stores *v after writing the next sequence number to *seq, a
// field of *v.
func (r *ring[T]) emit(v *T, seq *int64) {
	r.mu.Lock()
	r.seq++
	*seq = r.seq
	if len(r.items) < r.capacity {
		r.items = append(r.items, *v)
	} else {
		r.items[r.start] = *v
		r.start = (r.start + 1) % r.capacity
		r.dropped++
	}
	r.mu.Unlock()
}

func (r *ring[T]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}

func (r *ring[T]) stats() (emitted, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq, r.dropped
}

// snapshot copies the retained items in emission order.
func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.items))
	out = append(out, r.items[r.start:]...)
	return append(out, r.items[:r.start]...)
}

// each calls f on every retained item, under the lock and in storage
// order (not emission order once the ring has wrapped); f must not
// retain the pointer or call back into the ring.
func (r *ring[T]) each(f func(*T)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.items {
		f(&r.items[i])
	}
}
