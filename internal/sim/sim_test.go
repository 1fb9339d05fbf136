package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// queue is the contract the behavioural tests below assert. The timing
// wheel meets it through wheelQueue; the heap oracle the wheel's
// differential tests replay against (oracle_test.go) meets it directly,
// so the reference is held to the same contract it checks.
type queue interface {
	At(t Time, fn func()) handle
	After(d Time, fn func()) handle
	Run() uint64
	RunUntil(deadline Time) uint64
	Stop()
	Now() Time
	Pending() int
	setLimit(n uint64)
	slots() int // event storage held, bounded by peak concurrency
}

// handle is a scheduled event: a Timer, or an oracle event.
type handle interface {
	Stop() bool
	Pending() bool
}

// wheelQueue adapts a Scheduler to queue.
type wheelQueue struct{ *Scheduler }

func (q wheelQueue) At(t Time, fn func()) handle    { return q.Scheduler.At(t, fn) }
func (q wheelQueue) After(d Time, fn func()) handle { return q.Scheduler.After(d, fn) }
func (q wheelQueue) setLimit(n uint64)              { q.Limit = n }
func (q wheelQueue) slots() int                     { return cap(q.events) }

// forEachQueue runs a behavioural test on the heap oracle and on the
// timing wheel.
func forEachQueue(t *testing.T, f func(t *testing.T, newQueue func() queue)) {
	t.Run("heap", func(t *testing.T) { f(t, func() queue { return &heapOracle{} }) })
	t.Run("wheel", func(t *testing.T) { f(t, func() queue { return wheelQueue{NewScheduler()} }) })
}

func TestTimeUnits(t *testing.T) {
	if Second != 1_000_000_000_000*Picosecond {
		t.Fatalf("second = %d ps", int64(Second))
	}
	if got := (2500 * Microsecond).Millis(); got != 2.5 {
		t.Fatalf("Millis = %v", got)
	}
	if got := (3 * Microsecond).Micros(); got != 3 {
		t.Fatalf("Micros = %v", got)
	}
	if got := (Second / 2).Seconds(); got != 0.5 {
		t.Fatalf("Seconds = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{2 * Second, "2s"},
		{3 * Millisecond, "3ms"},
		{7 * Microsecond, "7us"},
		{500 * Nanosecond, "500ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestRunOrdering(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		var got []int
		s.At(30*Nanosecond, func() { got = append(got, 3) })
		s.At(10*Nanosecond, func() { got = append(got, 1) })
		s.At(20*Nanosecond, func() { got = append(got, 2) })
		s.Run()
		want := []int{1, 2, 3}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order = %v, want %v", got, want)
			}
		}
		if s.Now() != 30*Nanosecond {
			t.Fatalf("now = %v", s.Now())
		}
	})
}

func TestFIFOTieBreak(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			s.At(5*Nanosecond, func() { got = append(got, i) })
		}
		s.Run()
		if !sort.IntsAreSorted(got) {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	})
}

func TestAfterFromWithinEvent(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		var fired Time
		s.At(10*Nanosecond, func() {
			s.After(5*Nanosecond, func() { fired = s.Now() })
		})
		s.Run()
		if fired != 15*Nanosecond {
			t.Fatalf("nested After fired at %v", fired)
		}
	})
}

func TestSchedulePastPanics(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		s.At(10*Nanosecond, func() {
			defer func() {
				if recover() == nil {
					t.Error("scheduling in the past did not panic")
				}
			}()
			s.At(5*Nanosecond, func() {})
		})
		s.Run()
	})
}

func TestNegativeAfterPanics(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		defer func() {
			if recover() == nil {
				t.Error("negative After did not panic")
			}
		}()
		s.After(-5*Nanosecond, func() {})
	})
}

// After past MaxTime must panic loudly rather than wrap the int64 clock
// into the past and corrupt event order.
func TestAfterOverflowPanics(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		s.At(Second, func() {
			defer func() {
				if recover() == nil {
					t.Error("After past MaxTime did not panic")
				}
			}()
			s.After(MaxTime, func() {})
		})
		s.Run()
		// The boundary itself is schedulable.
		fired := false
		tm := s.At(MaxTime, func() { fired = true })
		if !tm.Pending() {
			t.Fatal("MaxTime timer not pending")
		}
		s.Run()
		if !fired {
			t.Fatal("MaxTime timer never fired")
		}
	})
}

func TestTimerStop(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		ran := false
		tm := s.After(10*Nanosecond, func() { ran = true })
		if !tm.Pending() {
			t.Fatal("timer should be pending")
		}
		if !tm.Stop() {
			t.Fatal("Stop returned false for pending timer")
		}
		if tm.Stop() {
			t.Fatal("second Stop returned true")
		}
		s.Run()
		if ran {
			t.Fatal("stopped timer fired")
		}
	})
}

func TestTimerStopAfterFire(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		tm := s.After(1*Nanosecond, func() {})
		s.Run()
		if tm.Pending() {
			t.Fatal("fired timer still pending")
		}
		if tm.Stop() {
			t.Fatal("Stop on fired timer returned true")
		}
	})
}

func TestStopHaltsRun(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		var count int
		for i := 1; i <= 10; i++ {
			s.At(Time(i)*Nanosecond, func() {
				count++
				if count == 3 {
					s.Stop()
				}
			})
		}
		s.Run()
		if count != 3 {
			t.Fatalf("ran %d events after Stop, want 3", count)
		}
		if s.Pending() != 7 {
			t.Fatalf("pending = %d, want 7", s.Pending())
		}
	})
}

func TestRunUntil(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		var count int
		for i := 1; i <= 10; i++ {
			s.At(Time(i)*Microsecond, func() { count++ })
		}
		n := s.RunUntil(5 * Microsecond)
		if n != 5 || count != 5 {
			t.Fatalf("ran %d/%d events, want 5", n, count)
		}
		if s.Now() != 5*Microsecond {
			t.Fatalf("now = %v", s.Now())
		}
		s.Run()
		if count != 10 {
			t.Fatalf("total = %d, want 10", count)
		}
	})
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		s.RunUntil(3 * Millisecond)
		if s.Now() != 3*Millisecond {
			t.Fatalf("idle RunUntil left clock at %v", s.Now())
		}
	})
}

func TestEventLimit(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		s.setLimit(4)
		var count int
		for i := 1; i <= 10; i++ {
			s.At(Time(i)*Nanosecond, func() { count++ })
		}
		s.Run()
		if count != 4 {
			t.Fatalf("limit ignored: ran %d", count)
		}
	})
}

// Property: for any set of delays, events execute in nondecreasing time
// order and the executed count matches the scheduled count.
func TestPropertyOrdering(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		prop := func(delays []uint16) bool {
			if len(delays) == 0 {
				return true
			}
			s := newQueue()
			var times []Time
			for _, d := range delays {
				s.After(Time(d)*Nanosecond, func() { times = append(times, s.Now()) })
			}
			s.Run()
			if len(times) != len(delays) {
				return false
			}
			for i := 1; i < len(times); i++ {
				if times[i] < times[i-1] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: cancelling a random subset of timers fires exactly the others.
func TestPropertyCancellation(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		prop := func(seed int64, n uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			s := newQueue()
			total := int(n%64) + 1
			fired := make([]bool, total)
			timers := make([]handle, total)
			for i := 0; i < total; i++ {
				i := i
				timers[i] = s.After(Time(rng.Intn(1000))*Nanosecond, func() { fired[i] = true })
			}
			cancelled := make([]bool, total)
			for i := 0; i < total; i++ {
				if rng.Intn(2) == 0 {
					cancelled[i] = timers[i].Stop()
				}
			}
			s.Run()
			for i := 0; i < total; i++ {
				if fired[i] == cancelled[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(err)
		}
	})
}

// A zero Timer must behave like a long-dead one: not pending, Stop is a
// no-op. Protocol code relies on this instead of nil-pointer checks.
func TestZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Pending() {
		t.Fatal("zero timer pending")
	}
	if tm.Stop() {
		t.Fatal("Stop on zero timer returned true")
	}
}

// A handle from a fired event must stay dead after its slot is recycled:
// stopping it must not cancel the slot's new occupant.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		stale := s.After(1*Nanosecond, func() {})
		s.Run()
		// The wheel's freelist is LIFO and empty, so this reuses stale's
		// slot.
		ran := false
		fresh := s.After(1*Nanosecond, func() { ran = true })
		if stale.Pending() {
			t.Fatal("stale handle reports pending after slot reuse")
		}
		if stale.Stop() {
			t.Fatal("stale handle stopped the slot's new occupant")
		}
		if !fresh.Pending() {
			t.Fatal("fresh timer lost")
		}
		s.Run()
		if !ran {
			t.Fatal("fresh timer never fired")
		}
	})
}

// Same-time events must run in scheduling order even when cancellations
// in between force index churn (heap rebuilds, wheel bucket unlinks).
func TestFIFOTieBreakAcrossHeapRebuilds(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		var got []int
		var victims []handle
		for round := 0; round < 5; round++ {
			for i := 0; i < 8; i++ {
				id := round*8 + i
				s.At(5*Nanosecond, func() { got = append(got, id) })
				// Interleave far-future victims whose removal reshapes the index.
				victims = append(victims, s.At(Time(100+id)*Nanosecond, func() {
					t.Errorf("victim %d fired", id)
				}))
			}
			// Cancel the odd victims now, while the tied events are queued.
			for i := len(victims) - 1; i >= 0; i -= 2 {
				victims[i].Stop()
			}
		}
		for _, v := range victims {
			v.Stop()
		}
		s.Run()
		if len(got) != 40 || !sort.IntsAreSorted(got) {
			t.Fatalf("tied events ran out of order after rebuilds: %v", got)
		}
	})
}

// When Limit truncates a RunUntil mid-deadline, the clock must stay at
// the last executed event, not jump to the deadline: events remain.
func TestRunUntilLimitClockPlacement(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		s.setLimit(3)
		for i := 1; i <= 10; i++ {
			s.At(Time(i)*Microsecond, func() {})
		}
		s.RunUntil(8 * Microsecond)
		if s.Now() != 3*Microsecond {
			t.Fatalf("clock at %v after Limit truncation, want 3us", s.Now())
		}
		if s.Pending() != 7 {
			t.Fatalf("pending = %d, want 7", s.Pending())
		}
	})
}

// A timer must observe itself as not pending from inside its own
// callback, and re-arming from the callback must yield a live handle.
func TestTimerNotPendingDuringFire(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		var tm, rearmed handle
		tm = s.After(1*Nanosecond, func() {
			if tm.Pending() {
				t.Error("timer pending inside its own callback")
			}
			if tm.Stop() {
				t.Error("Stop inside own callback returned true")
			}
			rearmed = s.After(1*Nanosecond, func() {})
		})
		s.RunUntil(1 * Nanosecond)
		if !rearmed.Pending() {
			t.Fatal("re-armed timer not pending")
		}
	})
}

// Fired and cancelled events must give their storage back (wheel slots
// through the freelist, dead oracle entries when they surface): steady
// churn may not grow it beyond the peak number of pending events.
func TestSlotRecycling(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newQueue func() queue) {
		s := newQueue()
		for i := 0; i < 1000; i++ {
			s.After(1*Nanosecond, func() {})
			keep := s.After(2*Nanosecond, func() {})
			keep.Stop()
			s.Run()
		}
		if n := s.slots(); n > 8 {
			t.Fatalf("event storage grew to %d for 2 concurrent events", n)
		}
	})
}

func BenchmarkScheduler(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	var fn func()
	remaining := b.N
	fn = func() {
		remaining--
		if remaining > 0 {
			s.After(Nanosecond, fn)
		}
	}
	s.After(Nanosecond, fn)
	b.ResetTimer()
	s.Run()
}
