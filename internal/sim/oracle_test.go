package sim

import (
	"container/heap"
	"fmt"
)

// heapOracle is the reference event queue the timing wheel is checked
// against: a binary heap (container/heap) over (at, seq) with lazy
// deletion. It shares no code with Scheduler — no slot array, freelist,
// generations or buckets — so a bug in the wheel cannot hide behind the
// same bug in its reference. It keeps Scheduler's contract: same-time
// events fire in scheduling order, a handle is dead from the moment its
// event fires or is stopped, Stop halts a run after the current event,
// the limit aborts a run, and RunUntil moves the clock to its deadline
// only when nothing is pending.
type heapOracle struct {
	now      Time
	seq      uint64
	h        oracleHeap
	live     int // pending events; the heap also holds dead ones
	stopped  bool
	limit    uint64
	Executed uint64
}

// oracleEvent is one scheduled callback and its own handle. A stopped
// event stays in the heap, marked dead, until it surfaces at the top.
type oracleEvent struct {
	q    *heapOracle
	at   Time
	seq  uint64
	fn   func()
	dead bool
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }

func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *oracleHeap) Push(x any) { *h = append(*h, x.(*oracleEvent)) }

func (h *oracleHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

func (e *oracleEvent) Pending() bool { return !e.dead }

func (e *oracleEvent) Stop() bool {
	if e.dead {
		return false
	}
	e.dead = true
	e.fn = nil
	e.q.live--
	return true
}

func (q *heapOracle) At(t Time, fn func()) handle {
	if t < q.now {
		panic(fmt.Sprintf("oracle: scheduling at %v before now %v", t, q.now))
	}
	e := &oracleEvent{q: q, at: t, seq: q.seq, fn: fn}
	q.seq++
	q.live++
	heap.Push(&q.h, e)
	return e
}

func (q *heapOracle) After(d Time, fn func()) handle {
	if d < 0 || q.now+d < q.now {
		panic(fmt.Sprintf("oracle: After(%dps) at %v is in the past or overflows", int64(d), q.now))
	}
	return q.At(q.now+d, fn)
}

// top drops dead events off the heap and returns the live minimum, or
// nil when nothing is pending.
func (q *heapOracle) top() *oracleEvent {
	for len(q.h) > 0 && q.h[0].dead {
		heap.Pop(&q.h)
	}
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapOracle) NextAtBound() (Time, bool) {
	if e := q.top(); e != nil {
		return e.at, true
	}
	return 0, false
}

func (q *heapOracle) Now() Time         { return q.now }
func (q *heapOracle) Pending() int      { return q.live }
func (q *heapOracle) Stop()             { q.stopped = true }
func (q *heapOracle) Run() uint64       { return q.RunUntil(MaxTime) }
func (q *heapOracle) setLimit(n uint64) { q.limit = n }
func (q *heapOracle) slots() int        { return cap(q.h) }

func (q *heapOracle) RunUntil(deadline Time) uint64 {
	start := q.Executed
	q.stopped = false
	for !q.stopped {
		e := q.top()
		if e == nil || e.at > deadline {
			break
		}
		heap.Pop(&q.h)
		fn := e.fn
		e.Stop() // not pending inside its own callback
		q.now = e.at
		q.Executed++
		fn()
		if q.limit != 0 && q.Executed >= q.limit {
			break
		}
	}
	if deadline != MaxTime && q.now < deadline && q.live == 0 {
		q.now = deadline
	}
	return q.Executed - start
}
