package transport

// FIFO is a first-in first-out queue over one backing array, indexed
// from its head: popping by reslicing (q = q[1:]) would strand the front
// capacity, so every push past the high-water mark would reallocate.
// NDP's pull pacer and retransmission queue and ExpressPass's credit
// rotation use it. The zero value is an empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len reports the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) { q.items = append(q.items, v) }

// Pop removes and returns the head; the queue must not be empty. A
// drained queue rewinds to the front of its array, and a mostly consumed
// one is compacted, so a queue that never drains cannot grow its array
// without bound.
func (q *FIFO[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	} else if q.head >= 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return v
}
