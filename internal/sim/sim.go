// Package sim implements the discrete-event engine that every other
// subsystem in this repository is built on. Time is modelled as int64
// picoseconds so that a single byte at 400Gbps (20ps) is exactly
// representable; at this resolution the clock can still run for roughly
// 106 days of simulated time before overflow.
//
// The engine is deliberately single-threaded: a simulation is a pure
// function of its inputs, which makes experiments reproducible and lets
// tests assert on exact event orderings.
//
// The hot path is allocation-free in steady state. Events live inline in
// a slot array owned by the scheduler; fired or cancelled slots are
// recycled through a freelist, and Timers are generation-stamped value
// handles, so a stale handle to a reused slot can never cancel someone
// else's event. A hierarchical timing wheel orders the pending events
// (amortized O(1) schedule and pop, see wheel.go). Pop order is fully
// determined by the strict (time, seq) total order, seq being the order
// of insertion, so the wheel's internal shape never affects simulated
// outcomes; randomized differential tests replay millions of operations
// against a standalone reference heap and require identical pops, clocks
// and Stop results.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated instant, in picoseconds since the start of the run.
type Time int64

// Duration unit constants. Durations share the Time type: all arithmetic
// is plain int64 addition, which keeps the hot path allocation-free.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable instant.
const MaxTime = Time(math.MaxInt64)

// Seconds converts t to floating-point seconds, for reporting only.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds, for reporting only.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts t to floating-point milliseconds, for reporting only.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t)/int64(Nanosecond))
	}
}

// event is a scheduled callback, stored inline in the scheduler's slot
// array. Events with equal firing times run in insertion order (FIFO
// semantics), which downstream protocol code depends on for
// determinism; no field records that order, because the wheel keeps it
// structurally (wheel.go, facts 1–3). gen distinguishes the slot's
// current occupant from stale Timer handles.
//
// where is the id of the wheel bucket (or spill list) holding the slot,
// or -1 while the slot is free. prev/next thread the wheel's intrusive
// bucket lists through the slot array.
type event struct {
	at    Time
	fn    func()
	gen   uint32
	where int32
	prev  int32
	next  int32
}

// Scheduler owns the simulated clock and the pending-event queue.
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	now     Time
	events  []event // slot storage; index = Timer.slot
	free    []int32 // LIFO freelist of vacant slot ids
	stopped bool
	wheel   *wheelState // the pending-event queue

	// Executed counts events run so far; useful as a cheap progress and
	// runaway-simulation guard in experiments.
	Executed uint64
	// Limit, when non-zero, aborts Run after that many events.
	Limit uint64
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{wheel: newWheelState()}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// release retires a fired or cancelled slot: the generation bump
// invalidates every outstanding Timer handle, and dropping fn releases
// the closure and its captures immediately rather than pinning them
// until the slot is reused.
func (s *Scheduler) release(slot int32) {
	e := &s.events[slot]
	e.fn = nil
	e.gen++
	e.where = -1
	s.free = append(s.free, slot)
}

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics: silently reordering time would corrupt
// every protocol invariant built above the engine. A negative t is the
// signature of int64 overflow past MaxTime and panics with a message
// saying so.
func (s *Scheduler) At(t Time, fn func()) Timer {
	if t < s.now {
		if t < 0 {
			panic(fmt.Sprintf("sim: scheduling at negative time %dps — int64 overflow past MaxTime?", int64(t)))
		}
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		// Generations start at 1 so a zero Timer never matches a slot.
		s.events = append(s.events, event{gen: 1})
		slot = int32(len(s.events) - 1)
	}
	e := &s.events[slot]
	e.at = t
	e.fn = fn
	s.wheelInsert(slot, t)
	return Timer{s: s, slot: slot, gen: e.gen}
}

// After schedules fn to run d from now. A negative duration is a
// programming error and panics, exactly like At with a past time: the
// engine refuses to reorder time on the caller's behalf. A duration
// that would carry the clock past MaxTime panics instead of silently
// wrapping the int64 picosecond clock.
func (s *Scheduler) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling %v in the past (negative duration)", d))
	}
	t := s.now + d
	if t < s.now {
		panic(fmt.Sprintf("sim: now %v + %dps overflows MaxTime (the clock is int64 picoseconds); cap the duration before scheduling", s.now, int64(d)))
	}
	return s.At(t, fn)
}

// Timer is a generation-stamped handle to a scheduled event. It is a
// value type: copy it freely, compare to the zero Timer for "never
// scheduled". A handle goes dead the moment its event fires or is
// stopped, and stays dead even after the underlying slot is reused.
type Timer struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Stop cancels the timer if it has not fired. It reports whether the
// timer was still pending. Stopping a zero, fired, or already-stopped
// timer is a safe no-op.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	e := &t.s.events[t.slot]
	if e.gen != t.gen || e.where < 0 {
		return false
	}
	t.s.wheelUnlink(t.slot)
	t.s.release(t.slot)
	return true
}

// Pending reports whether the timer is still scheduled.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	e := &t.s.events[t.slot]
	return e.gen == t.gen && e.where >= 0
}

// Stop halts Run after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// NextAtBound returns the firing time of the earliest pending event,
// and whether any event is pending. The value is exact: the wheel
// descends its occupancy bitmaps to the first occupied bucket and takes
// that bucket's minimum (see wheelNextBound). Exactness lets the
// sharded run driver's idle-window skip jump straight to the next
// occupied window instead of waking at the start of a coarse
// higher-level window and re-skipping; a randomized differential
// against the reference heap pins the equality.
func (s *Scheduler) NextAtBound() (Time, bool) {
	return s.wheelNextBound()
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int {
	return s.wheel.count
}

// Run executes events in timestamp order until the queue drains, Stop is
// called, or the event Limit is hit. It reports the number of events run.
func (s *Scheduler) Run() uint64 {
	return s.RunUntil(MaxTime)
}

// RunUntil executes events with timestamps <= deadline. The clock is left
// at the last executed event's time (or at the deadline if that is later
// and no events remain).
func (s *Scheduler) RunUntil(deadline Time) uint64 {
	start := s.Executed
	s.stopped = false
	for !s.stopped {
		// wheelNext pops the earliest (time, seq) event not after the
		// deadline, or reports that none qualifies. The slot is already
		// out of the queue but not yet released.
		slot, ok := s.wheelNext(deadline)
		if !ok {
			break
		}
		e := &s.events[slot]
		fn := e.fn
		s.now = e.at
		// Retire the slot before running fn so the callback observes its
		// own timer as no longer pending and the slot is free for reuse
		// by whatever fn schedules.
		s.release(slot)
		s.Executed++
		fn()
		if s.Limit != 0 && s.Executed >= s.Limit {
			break
		}
	}
	if deadline != MaxTime && s.now < deadline && s.Pending() == 0 {
		s.now = deadline
	}
	return s.Executed - start
}
