package sim

import (
	"math/rand"
	"testing"
)

// Events at the same instant must fire in scheduling order even when
// they were filed at different wheel levels: A enters at level 2, is
// cascaded down to level 1 by an intermediate pop, B then files at
// level 1 directly, C files at level 0 after a closer pop. FIFO must
// hold across all three paths.
func TestWheelSameTickFIFOAcrossCascade(t *testing.T) {
	s := NewScheduler()
	const T = 100_000 * Picosecond // 0x186A0: level 2 from cursor 0
	var got []string
	s.At(T, func() { got = append(got, "A") })
	// Popping this marker advances the cursor into A's level-2 window,
	// cascading A down to level 1.
	s.At(70_000*Picosecond, func() {
		s.At(T, func() { got = append(got, "B") }) // files at level 1
	})
	s.At(99_000*Picosecond, func() {
		s.At(T, func() { got = append(got, "C") }) // files at level 0
	})
	s.Run()
	if len(got) != 3 || got[0] != "A" || got[1] != "B" || got[2] != "C" {
		t.Fatalf("same-tick order across cascades = %v, want [A B C]", got)
	}
}

// Stopping an event that has already been cascaded to a lower level must
// still unlink it in O(1) and keep it from firing.
func TestWheelStopAfterCascade(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.At(100_000*Picosecond, func() { fired = true })
	var stopped bool
	s.At(70_000*Picosecond, func() {
		// A has been cascaded out of its original level-2 bucket by the
		// descent that reached this event.
		stopped = tm.Stop()
	})
	s.Run()
	if !stopped {
		t.Fatal("Stop after cascade returned false")
	}
	if fired {
		t.Fatal("stopped event fired after cascade")
	}
	if tm.Pending() || tm.Stop() {
		t.Fatal("dead timer came back")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Pending())
	}
}

// Timers landing exactly on level boundaries (byte carries in the time)
// must fire in time order; off-by-one filing at a boundary would reorder
// or strand them.
func TestWheelLevelBoundaryTimers(t *testing.T) {
	s := NewScheduler()
	var times []Time
	boundary := []Time{
		255, 256, 257,
		65_535, 65_536, 65_537,
		1<<24 - 1, 1 << 24, 1<<24 + 1,
		1 << 32, 1 << 40, 1 << 48, 1 << 56,
		1<<56 + 1,
	}
	// Insert in scrambled order so filing happens at several levels.
	for _, i := range []int{7, 0, 13, 3, 10, 1, 8, 5, 12, 2, 9, 4, 11, 6} {
		s.At(boundary[i], func() { times = append(times, s.Now()) })
	}
	s.Run()
	if len(times) != len(boundary) {
		t.Fatalf("fired %d of %d boundary timers", len(times), len(boundary))
	}
	for i, at := range boundary {
		if times[i] != at {
			t.Fatalf("boundary timer %d fired at %v, want %v", i, times[i], at)
		}
	}
}

// A slot's generation stamp must survive cascading: a handle that died
// before its slot's occupant was cascaded (or that fired after a
// cascade) must stay dead once the slot is reused.
func TestWheelGenerationSurvivesCascade(t *testing.T) {
	s := NewScheduler()
	stale := s.At(100_000*Picosecond, func() {})
	s.At(70_000*Picosecond, func() {}) // forces a cascade of stale's bucket
	s.Run()
	// stale's slot is now on the freelist (LIFO); this reuses it.
	ran := false
	fresh := s.After(100_000*Picosecond, func() { ran = true })
	if stale.Pending() {
		t.Fatal("stale handle pending after cascade + reuse")
	}
	if stale.Stop() {
		t.Fatal("stale handle cancelled the slot's new occupant")
	}
	if !fresh.Pending() {
		t.Fatal("fresh occupant lost")
	}
	s.At(s.Now()+70_000*Picosecond, func() {}) // cascade the fresh occupant too
	s.Run()
	if !ran {
		t.Fatal("fresh occupant never fired")
	}
}

// When RunUntil aborts a descent at its deadline, the wheel cursor can
// legitimately sit ahead of the clock. Later inserts between now and
// the cursor must still fire, in (time, seq) order, ahead of everything
// in the wheel: that is the spill path.
func TestWheelSpillAfterAbortedDescent(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(1000*Picosecond, func() { got = append(got, 1000) })
	s.At(1001*Picosecond, func() { got = append(got, 1001) })
	// 1000/1001 = 0x3E8/0x3E9 share a level-1 bucket (two occupants, so
	// the single-resident fast path does not apply); the descent toward
	// them commits the cursor to 0x300 and cascades before discovering
	// 1000 > 999 and giving up.
	if n := s.RunUntil(999 * Picosecond); n != 0 {
		t.Fatalf("ran %d events before the deadline", n)
	}
	if s.wheel.cur == 0 {
		t.Fatal("descent did not advance the cursor; spill path not exercised")
	}
	// These land behind the cursor.
	s.At(500*Picosecond, func() { got = append(got, 500) })
	s.At(500*Picosecond, func() { got = append(got, 501) }) // same-time FIFO
	s.At(600*Picosecond, func() { got = append(got, 600) })
	dead := s.At(550*Picosecond, func() { t.Error("stopped spill event fired") })
	if s.wheel.spill.head == noSlot {
		t.Fatal("inserts behind the cursor did not reach the spill list")
	}
	if !dead.Stop() {
		t.Fatal("Stop on a spill event returned false")
	}
	s.Run()
	want := []int{500, 501, 600, 1000, 1001}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// The differential test: replay a long randomized stream of mixed
// Schedule / Stop / Reschedule / RunUntil operations through the heap
// oracle and the wheel in lockstep, asserting the two produce exactly
// the same pop sequence, clocks, and Stop results. This is the strongest
// pin on the wheel's (time, seq) order: any filing, cascade, spill, or
// hot-bucket bug shows up as a divergence.
func TestWheelOracleDifferential(t *testing.T) {
	ops := 2_000_000
	if testing.Short() {
		ops = 200_000
	}
	rng := rand.New(rand.NewSource(42))
	h := &heapOracle{}
	w := NewScheduler()

	var hOrder, wOrder []uint64
	type pair struct {
		th handle
		tw Timer
	}
	var live []pair
	var token uint64

	randDelay := func() Time {
		switch rng.Intn(10) {
		case 0:
			return 0 // same-instant: hot-bucket appends
		case 1:
			return Time(1) << uint(rng.Intn(40)) // exact level boundaries
		default:
			// Log-uniform magnitudes so every wheel level sees traffic.
			return Time(rng.Int63n(int64(1)<<uint(rng.Intn(36)) + 1))
		}
	}
	schedule := func() {
		tk := token
		token++
		d := randDelay()
		at := h.Now() + d
		live = append(live, pair{
			th: h.At(at, func() { hOrder = append(hOrder, tk) }),
			tw: w.At(at, func() { wOrder = append(wOrder, tk) }),
		})
	}
	compare := func() {
		if len(hOrder) != len(wOrder) {
			t.Fatalf("pop counts diverged: oracle %d, wheel %d", len(hOrder), len(wOrder))
		}
		for i := range hOrder {
			if hOrder[i] != wOrder[i] {
				t.Fatalf("pop order diverged at %d: oracle token %d, wheel token %d",
					i, hOrder[i], wOrder[i])
			}
		}
		hOrder, wOrder = hOrder[:0], wOrder[:0]
		if h.Now() != w.Now() {
			t.Fatalf("clocks diverged: oracle %v, wheel %v", h.Now(), w.Now())
		}
		if h.Pending() != w.Pending() {
			t.Fatalf("pending diverged: oracle %d, wheel %d", h.Pending(), w.Pending())
		}
		hAt, hOK := h.NextAtBound()
		wAt, wOK := w.NextAtBound()
		if hAt != wAt || hOK != wOK {
			t.Fatalf("NextAtBound diverged: oracle (%v, %v), wheel (%v, %v)",
				hAt, hOK, wAt, wOK)
		}
	}

	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 55:
			schedule()
		case r < 70: // stop a random handle (live or stale — both must agree)
			if len(live) == 0 {
				continue
			}
			j := rng.Intn(len(live))
			p := live[j]
			sh, sw := p.th.Stop(), p.tw.Stop()
			if sh != sw {
				t.Fatalf("Stop diverged at op %d: oracle %v, wheel %v", i, sh, sw)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case r < 80: // reschedule = stop + fresh schedule
			if len(live) > 0 {
				j := rng.Intn(len(live))
				p := live[j]
				if sh, sw := p.th.Stop(), p.tw.Stop(); sh != sw {
					t.Fatalf("Stop diverged at op %d: oracle %v, wheel %v", i, sh, sw)
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			schedule()
		default: // run up to a random deadline; aborted descents feed the spill
			d := randDelay()
			nh := h.RunUntil(h.Now() + d)
			nw := w.RunUntil(w.Now() + d)
			if nh != nw {
				t.Fatalf("RunUntil executed %d on oracle, %d on wheel at op %d", nh, nw, i)
			}
			compare()
		}
		// Keep the handle table bounded; pruning by Pending keeps both
		// sides in lockstep since pendingness must already agree.
		if len(live) > 1<<16 {
			kept := live[:0]
			for _, p := range live {
				if p.th.Pending() {
					kept = append(kept, p)
				}
			}
			live = kept
		}
	}
	nh := h.Run()
	nw := w.Run()
	if nh != nw {
		t.Fatalf("final drain executed %d on oracle, %d on wheel", nh, nw)
	}
	compare()
	if h.Executed != w.Executed {
		t.Fatalf("Executed diverged: oracle %d, wheel %d", h.Executed, w.Executed)
	}
	if h.Pending() != 0 {
		t.Fatalf("events left after drain: %d", h.Pending())
	}
}

// TestNextAtBoundExactDifferential pins NextAtBound's exactness: after
// every randomized Schedule / Stop / RunUntil operation, the wheel's
// bound must equal the heap oracle's earliest pending time — not merely
// lower-bound it. Delays are drawn log-uniform so the earliest event
// regularly lives in a multi-resident higher-level bucket (the case the
// old implementation answered with the coarse window start), and
// aborted RunUntil descents exercise the spill-list branch.
func TestNextAtBoundExactDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	h := &heapOracle{}
	w := NewScheduler()

	type pair struct {
		th handle
		tw Timer
	}
	var live []pair
	check := func(op string, i int) {
		hAt, hOK := h.NextAtBound()
		wAt, wOK := w.NextAtBound()
		if hAt != wAt || hOK != wOK {
			t.Fatalf("op %d (%s): NextAtBound oracle (%v, %v) != wheel (%v, %v)",
				i, op, hAt, hOK, wAt, wOK)
		}
	}
	randDelay := func() Time {
		if rng.Intn(8) == 0 {
			return Time(1) << uint(rng.Intn(40)) // exact level boundaries
		}
		return Time(rng.Int63n(int64(1)<<uint(rng.Intn(36)) + 1))
	}

	for i := 0; i < 30_000; i++ {
		switch r := rng.Intn(100); {
		case r < 60:
			at := h.Now() + randDelay()
			live = append(live, pair{
				th: h.At(at, func() {}),
				tw: w.At(at, func() {}),
			})
			check("schedule", i)
		case r < 75:
			if len(live) == 0 {
				continue
			}
			j := rng.Intn(len(live))
			p := live[j]
			if sh, sw := p.th.Stop(), p.tw.Stop(); sh != sw {
				t.Fatalf("op %d: Stop diverged oracle %v wheel %v", i, sh, sw)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			check("stop", i)
		default:
			d := randDelay()
			if nh, nw := h.RunUntil(h.Now()+d), w.RunUntil(w.Now()+d); nh != nw {
				t.Fatalf("op %d: RunUntil ran %d on oracle, %d on wheel", i, nh, nw)
			}
			check("rununtil", i)
		}
		if len(live) > 1<<14 {
			kept := live[:0]
			for _, p := range live {
				if p.th.Pending() {
					kept = append(kept, p)
				}
			}
			live = kept
		}
	}
	if nh, nw := h.Run(), w.Run(); nh != nw {
		t.Fatalf("final drain ran %d on oracle, %d on wheel", nh, nw)
	}
	check("drain", -1)
}
