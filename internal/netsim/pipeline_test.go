package netsim

import (
	"testing"

	"ppt/internal/sim"
)

// The pipeline tests pin the on-demand departure rule (DESIGN.md §7.6).
// Most drive one packet script through two ports that differ only in
// EnableINT — one at its natural slack (a local wire decides owed
// departures as late as the in-flight packet's delivery, Delay after
// busyUntil) and one at zero slack (an INT port, whose drain timer
// decides every departure at its own instant; the script's packets
// carry no INT records) — and assert the two are observationally identical:
// same departures at the same instants, same deliveries, same counters,
// same pool behaviour. Only the event count may differ.

// pairRun drives the same script through a natural-slack and a
// zero-slack port and returns both ports, their sinks, their pools (nil
// when poolCap == 0) and the events each scheduler executed.
func pairRun(t *testing.T, cfg PortConfig, poolCap int64, script func(s *sim.Scheduler, p *Port)) (pn, pz *Port, kn, kz *sink, bn, bz *BufferPool, en, ez uint64) {
	t.Helper()
	run := func(zeroSlack bool) (*Port, *sink, *BufferPool, uint64) {
		s := sim.NewScheduler()
		var pool *BufferPool
		if poolCap > 0 {
			pool = NewBufferPool(poolCap)
		}
		c := cfg
		// An INT port whose packets carry no INT records: its drain
		// timer decides each departure at its own instant.
		c.EnableINT = zeroSlack
		p, k := newTestPort(s, c, pool)
		script(s, p)
		s.Run()
		// Mirror the run drivers: settle at the final executed horizon,
		// inclusively.
		p.SettleTx(s.Now())
		if err := p.Audit(); err != nil {
			t.Fatal(err)
		}
		if pool != nil {
			if err := pool.Audit(); err != nil {
				t.Fatal(err)
			}
		}
		return p, k, pool, s.Executed
	}
	pn, kn, bn, en = run(false)
	pz, kz, bz, ez = run(true)
	return
}

// assertSameOutcome fails unless both runs — a port that decides owed
// departures late and the zero-slack port that decides each at its
// instant — delivered the same packets at the same times with the same
// markings, and the ports (and pools) ended with identical counters.
func assertSameOutcome(t *testing.T, pn, pz *Port, kn, kz *sink, bn, bz *BufferPool) {
	t.Helper()
	if len(kn.pkts) != len(kz.pkts) {
		t.Fatalf("late-deciding port delivered %d packets, zero slack %d", len(kn.pkts), len(kz.pkts))
	}
	for i := range kn.pkts {
		a, b := kn.pkts[i], kz.pkts[i]
		if kn.at[i] != kz.at[i] {
			t.Fatalf("delivery %d: late-deciding port at %v, zero slack at %v", i, kn.at[i], kz.at[i])
		}
		if a.FlowID != b.FlowID || a.Seq != b.Seq || a.WireLen != b.WireLen ||
			a.Prio != b.Prio || a.CE != b.CE || a.Trimmed != b.Trimmed {
			t.Fatalf("delivery %d differs: late %+v, zero %+v", i, a, b)
		}
	}
	if pn.Stats != pz.Stats {
		t.Fatalf("stats differ:\nlate %+v\nzero %+v", pn.Stats, pz.Stats)
	}
	if (bn == nil) != (bz == nil) {
		t.Fatalf("pool presence differs")
	}
	if bn != nil {
		if bn.Drops != bz.Drops {
			t.Fatalf("pool drops: late-deciding port %d, zero slack %d", bn.Drops, bz.Drops)
		}
		if u1, u2 := bn.Used(), bz.Used(); u1 != u2 {
			t.Fatalf("pool used: late-deciding port %d, zero slack %d", u1, u2)
		}
	}
}

// An uncongested hop costs one event: the delivery.
func TestFastPathSingleEventPerHop(t *testing.T) {
	cfg := PortConfig{Delay: 1 * sim.Microsecond}
	script := func(s *sim.Scheduler, p *Port) {
		p.Enqueue(DataPacket(1, 0, 1, 0, 1000, 0))
	}
	pn, pz, kn, kz, bn, bz, en, ez := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pn, pz, kn, kz, bn, bz)
	if en != 1 || ez != 1 {
		t.Fatalf("events: natural slack %d, zero slack %d; want 1 each", en, ez)
	}
}

// An n-packet backlog on a local port costs n deliveries and no drain:
// each delivery starts the departure owed at its own packet's
// serialize-complete instant. At zero slack every back-to-back start
// costs one drain timer instead.
func TestFastPathBurstEventSavings(t *testing.T) {
	const n = 8
	cfg := PortConfig{Delay: 500 * sim.Nanosecond}
	script := func(s *sim.Scheduler, p *Port) {
		for i := 0; i < n; i++ {
			p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 1200, 0))
		}
	}
	pn, pz, kn, kz, bn, bz, en, ez := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pn, pz, kn, kz, bn, bz)
	if len(kn.pkts) != n {
		t.Fatalf("delivered %d, want %d", len(kn.pkts), n)
	}
	if en != n {
		t.Fatalf("natural slack executed %d events, want %d deliveries and no drain", en, n)
	}
	if ez != 2*n-1 {
		t.Fatalf("zero slack executed %d events, want %d deliveries + %d drains", ez, n, n-1)
	}
}

// Packets enqueued while a transmission is in flight wait for it and
// depart in strict-priority order at its serialize-complete instant.
func TestFastPathEnqueueDuringSerialization(t *testing.T) {
	cfg := PortConfig{Delay: 1 * sim.Microsecond}
	script := func(s *sim.Scheduler, p *Port) {
		p.Enqueue(DataPacket(1, 0, 1, 0, 1400, 3)) // occupies the link
		// Mid-serialization: low prio first, then high. High must depart
		// first at serialize-complete.
		s.At(200*sim.Nanosecond, func() { p.Enqueue(DataPacket(2, 0, 1, 0, 1000, 6)) })
		s.At(300*sim.Nanosecond, func() { p.Enqueue(DataPacket(3, 0, 1, 0, 1000, 1)) })
	}
	pn, pz, kn, kz, bn, bz, _, _ := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pn, pz, kn, kz, bn, bz)
	want := []uint32{1, 3, 2}
	for i, w := range want {
		if kn.pkts[i].FlowID != w {
			t.Fatalf("departure order: got flow %d at %d, want %d", kn.pkts[i].FlowID, i, w)
		}
	}
	// The second packet starts exactly when the first finishes
	// serializing, not earlier and not at its own enqueue time.
	txFirst := (10 * Gbps).TxTime(1464)
	wantAt := txFirst + (10 * Gbps).TxTime(1064) + cfg.Delay
	if kn.at[1] != wantAt {
		t.Fatalf("second delivery at %v, want %v", kn.at[1], wantAt)
	}
}

// The departure rule at the serialize-complete instant itself: an
// arrival at exactly busyUntil did not arrive strictly before it, so it
// waits behind a non-empty queue — even at a higher priority — and
// starts inline, with no extra event, when the queue is empty.
func TestDepartureRuleArrivalAtBusyUntil(t *testing.T) {
	cfg := PortConfig{Delay: 1 * sim.Microsecond}
	busy := (10 * Gbps).TxTime(1064)

	t.Run("queue non-empty", func(t *testing.T) {
		script := func(s *sim.Scheduler, p *Port) {
			p.Enqueue(DataPacket(1, 0, 1, 0, 1000, 0))
			p.Enqueue(DataPacket(2, 0, 1, 0, 1000, 6))
			s.At(busy, func() { p.Enqueue(DataPacket(3, 0, 1, 0, 1000, 0)) })
		}
		pn, pz, kn, kz, bn, bz, _, _ := pairRun(t, cfg, 0, script)
		assertSameOutcome(t, pn, pz, kn, kz, bn, bz)
		for i, w := range []uint32{1, 2, 3} {
			if kn.pkts[i].FlowID != w {
				t.Fatalf("departure %d: flow %d, want %d", i, kn.pkts[i].FlowID, w)
			}
		}
	})

	t.Run("queue empty", func(t *testing.T) {
		script := func(s *sim.Scheduler, p *Port) {
			p.Enqueue(DataPacket(1, 0, 1, 0, 1000, 0))
			s.At(busy, func() { p.Enqueue(DataPacket(2, 0, 1, 0, 500, 0)) })
		}
		pn, pz, kn, kz, bn, bz, en, ez := pairRun(t, cfg, 0, script)
		assertSameOutcome(t, pn, pz, kn, kz, bn, bz)
		if want := busy + (10 * Gbps).TxTime(564) + cfg.Delay; kn.at[1] != want {
			t.Fatalf("inline start delivered at %v, want %v", kn.at[1], want)
		}
		// The script event plus two deliveries: no same-instant resume.
		if en != 3 || ez != 3 {
			t.Fatalf("events: natural %d, zero %d; want 3", en, ez)
		}
	})
}

// A departure owed at busyUntil but not yet decided (a local wire
// decides it as late as busyUntil + Delay) goes to the strict-priority
// head among packets that arrived before busyUntil: a higher-priority
// arrival before the instant wins it, one after the instant does not.
func TestDepartureRuleOwedDeparture(t *testing.T) {
	cfg := PortConfig{Delay: 5 * sim.Microsecond}
	busy := (10 * Gbps).TxTime(1064)
	script := func(s *sim.Scheduler, p *Port) {
		p.Enqueue(DataPacket(1, 0, 1, 0, 1000, 0))
		p.Enqueue(DataPacket(2, 0, 1, 0, 1000, 6))
		s.At(busy-1, func() { p.Enqueue(DataPacket(3, 0, 1, 0, 1000, 2)) })
		s.At(busy+1, func() { p.Enqueue(DataPacket(4, 0, 1, 0, 1000, 0)) })
	}
	pn, pz, kn, kz, bn, bz, _, _ := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pn, pz, kn, kz, bn, bz)
	for i, w := range []uint32{1, 3, 4, 2} {
		if kn.pkts[i].FlowID != w {
			t.Fatalf("departure %d: flow %d, want %d", i, kn.pkts[i].FlowID, w)
		}
	}
	if want := 2*busy + cfg.Delay; kn.at[1] != want {
		t.Fatalf("owed departure delivered at %v, want %v (started at busyUntil)", kn.at[1], want)
	}
}

// ECN marking consults queue occupancy at enqueue time, after the
// departures owed by then have left.
func TestFastPathECNMarking(t *testing.T) {
	cfg := PortConfig{ECNHighK: 2000, ECNLowK: 4000, Delay: 1 * sim.Microsecond}
	script := func(s *sim.Scheduler, p *Port) {
		for i := 0; i < 6; i++ {
			pkt := DataPacket(uint32(i), 0, 1, 0, 1400, 0)
			pkt.ECT = true
			p.Enqueue(pkt)
		}
		for i := 6; i < 10; i++ {
			pkt := DataPacket(uint32(i), 0, 1, 0, 1400, 6)
			pkt.ECT = true
			p.Enqueue(pkt)
		}
	}
	pn, pz, kn, kz, bn, bz, _, _ := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pn, pz, kn, kz, bn, bz)
	if pn.Stats.MarksHigh == 0 || pn.Stats.MarksLow == 0 {
		t.Fatalf("expected marks in both classes, got %+v", pn.Stats)
	}
}

// NDP trimming: the trimmed header is what serializes (64B), so the
// delivery time must reflect the post-trim wire length.
func TestFastPathTrimToHeader(t *testing.T) {
	cfg := PortConfig{QueueCap: 3100, TrimToHeader: true, Delay: 1 * sim.Microsecond}
	script := func(s *sim.Scheduler, p *Port) {
		for i := 0; i < 5; i++ {
			p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 1400, 3))
		}
	}
	pn, pz, kn, kz, bn, bz, _, _ := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pn, pz, kn, kz, bn, bz)
	if pn.Stats.Trims != 2 {
		t.Fatalf("trims = %d, want 2", pn.Stats.Trims)
	}
}

// Aeolus selective drop and injected random loss both decide at Enqueue;
// the per-port PRNG must advance identically at any slack.
func TestFastPathDroppableAndLoss(t *testing.T) {
	cfg := PortConfig{DroppableThresh: 2000, LossProb: 0.3, LossSeed: 7, Delay: 1 * sim.Microsecond}
	script := func(s *sim.Scheduler, p *Port) {
		for i := 0; i < 12; i++ {
			pkt := DataPacket(uint32(i), 0, 1, 0, 1400, 6)
			pkt.Droppable = i%2 == 0
			p.Enqueue(pkt)
		}
	}
	pn, pz, kn, kz, bn, bz, _, _ := pairRun(t, cfg, 0, script)
	assertSameOutcome(t, pn, pz, kn, kz, bn, bz)
	if pn.Stats.RandomDrops == 0 {
		t.Fatalf("expected injected losses at LossProb=0.3, got %+v", pn.Stats)
	}
}

// Lazy pool release visibility: a transmit's buffer bytes are released
// strictly after its serialize-complete instant. An observer AT txDone
// still sees them reserved (strict now-1 settle); one picosecond later
// they are gone, and a tryReserve needing the full pool succeeds.
func TestFastPathLazyPoolRelease(t *testing.T) {
	s := sim.NewScheduler()
	pool := NewBufferPool(964)
	p, _ := newTestPort(s, PortConfig{Delay: 2 * sim.Microsecond}, pool)
	kq := &sink{s: s}
	q := NewPort("p1", s, PortConfig{Rate: 10 * Gbps, Delay: 2 * sim.Microsecond}, kq, pool)

	txDone := (10 * Gbps).TxTime(964)
	var atDone, afterDone int64
	s.At(txDone, func() { atDone = pool.Used() })
	// Same instant: a reservation needing the full pool must NOT see the
	// release yet.
	s.At(txDone, func() { q.Enqueue(DataPacket(2, 0, 1, 0, 900, 0)) })
	s.At(txDone+1, func() { afterDone = pool.Used() })
	s.At(txDone+1, func() { q.Enqueue(DataPacket(3, 0, 1, 0, 900, 0)) })
	p.Enqueue(DataPacket(1, 0, 1, 0, 900, 0))
	s.Run()

	if atDone != 964 {
		t.Fatalf("pool at txDone = %d, want 964 (release must stay invisible at the tied instant)", atDone)
	}
	if pool.Drops != 1 || q.Stats.Drops != 1 {
		t.Fatalf("same-instant reservation should have failed: poolDrops=%d qDrops=%d", pool.Drops, q.Stats.Drops)
	}
	if afterDone != 0 {
		t.Fatalf("pool after txDone = %d, want 0 (release settled)", afterDone)
	}
	// Flow 3's reservation one picosecond after txDone needed the whole
	// pool — only the lazy release makes it fit.
	if len(kq.pkts) != 1 || kq.pkts[0].FlowID != 3 {
		t.Fatalf("q delivered %d packets, want exactly flow 3", len(kq.pkts))
	}
	if pool.Used() != 0 {
		t.Fatalf("pool not drained at end of run: %d", pool.Used())
	}
}

// An INT port keeps one tx-complete hook per INT packet: it appends the
// hop at txDone, with QLen counting the packet departing at that instant
// and TxBytes counting the completed packet itself.
func TestINTHopRecordedAtTxDone(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{EnableINT: true, Delay: 1 * sim.Microsecond}, nil)
	for i := 0; i < 2; i++ {
		pkt := DataPacket(uint32(i), 0, 1, 0, 1000, 0)
		pkt.INT = make([]INTHop, 0, 4)
		p.Enqueue(pkt)
	}
	p.Enqueue(DataPacket(2, 0, 1, 0, 500, 0))
	s.Run()
	if len(k.pkts) != 3 || len(k.pkts[0].INT) != 1 || len(k.pkts[1].INT) != 1 || k.pkts[2].INT != nil {
		t.Fatalf("INT records missing or misplaced: %d pkts", len(k.pkts))
	}
	tx := (10 * Gbps).TxTime(1064)
	want := []INTHop{
		{QLen: 1064 + 564, TxBytes: 1064, TS: tx, Rate: 10 * Gbps},
		{QLen: 564, TxBytes: 2 * 1064, TS: 2 * tx, Rate: 10 * Gbps},
	}
	for i, w := range want {
		if got := k.pkts[i].INT[0]; got != w {
			t.Fatalf("INT hop %d = %+v, want %+v", i, got, w)
		}
	}
	// Three deliveries, two hooks, and the zero-slack drains that start
	// the second and third packets at their instants.
	if s.Executed != 3+2+2 {
		t.Fatalf("executed %d events, want 7", s.Executed)
	}
}

// A non-INT cross port puts each packet on its wire at transmit start,
// due at txDone + Delay, and arms no drain: a departure owed at the
// previous packet's serialize-complete instant waits for the next
// arrival or the end of the round (Outbox.Advance), which starts it at
// exactly that instant.
func TestCrossPortDepositsAtStart(t *testing.T) {
	s := sim.NewScheduler()
	delay := 1 * sim.Microsecond
	p, k := newTestPort(s, PortConfig{Delay: delay}, nil)
	o := NewOutbox(0)
	p.SetCross(o, NewInbox(sim.NewScheduler()))
	tx := (10 * Gbps).TxTime(1064)

	// Observers armed before the script: the one at 0 runs first; the
	// one at tx+1 sees only the inline start, because nothing decides
	// the departure owed at tx before the round ends.
	var seen []int
	for _, at := range []sim.Time{0, tx + 1} {
		s.At(at, func() { seen = append(seen, len(p.cross.out)) })
	}
	s.At(0, func() {
		for i := uint32(1); i <= 3; i++ {
			p.Enqueue(DataPacket(i, 0, 1, 0, 1000, 0))
		}
	})
	// Round 1 ends between the second departure (owed at tx) and the
	// third (owed at 2tx); round 2 covers the third.
	for _, r := range []struct{ end, owed, after sim.Time }{
		{tx + tx/2, tx, 2 * tx},
		{3 * tx, 2 * tx, sim.MaxTime},
	} {
		s.RunUntil(r.end)
		if got := o.NextDeparture(); got != r.owed {
			t.Fatalf("before the round ending at %v: next owed departure %v, want %v", r.end, got, r.owed)
		}
		o.Advance(r.end)
		if got := o.NextDeparture(); got != r.after {
			t.Fatalf("after the round ending at %v: next owed departure %v, want %v", r.end, got, r.after)
		}
	}

	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Fatalf("wire sizes over time = %v, want [0 1]", seen)
	}
	if len(k.pkts) != 0 {
		t.Fatalf("cross port delivered %d packets locally", len(k.pkts))
	}
	if len(p.cross.out) != 3 {
		t.Fatalf("%d departures on the wire, want 3", len(p.cross.out))
	}
	for i, e := range p.cross.out {
		start := sim.Time(i) * tx
		if e.at != start+tx+delay || e.pkt.FlowID != uint32(i+1) {
			t.Fatalf("departure %d = flow %d due %v, want flow %d due %v", i, e.pkt.FlowID, e.at, i+1, start+tx+delay)
		}
	}
	if s.Executed != 2+1 { // two observers and the script: no drain
		t.Fatalf("executed %d events, want 3", s.Executed)
	}

	// An INT cross port keeps its drain: the outbox does not list it,
	// and each backlogged departure is decided at its own instant.
	s = sim.NewScheduler()
	q, _ := newTestPort(s, PortConfig{Delay: delay, EnableINT: true}, nil)
	o = NewOutbox(0)
	q.SetCross(o, NewInbox(sim.NewScheduler()))
	var owed sim.Time
	s.At(1, func() { owed = o.NextDeparture() })
	s.At(tx+1, func() { seen = append(seen[:0], len(q.cross.out)) })
	s.At(0, func() {
		q.Enqueue(DataPacket(1, 0, 1, 0, 1000, 0))
		q.Enqueue(DataPacket(2, 0, 1, 0, 1000, 0))
	})
	s.Run()
	if owed != sim.MaxTime {
		t.Fatalf("outbox reports an owed departure at %v on an INT port", owed)
	}
	if seen[0] != 2 {
		t.Fatalf("INT cross port had %d departures on the wire just after tx, want 2", seen[0])
	}
	if s.Executed != 2+1+1 { // two observers, the script, one drain
		t.Fatalf("INT cross port executed %d events, want 4", s.Executed)
	}
}

// TestPendTwoEntryBound pins the deferred-accounting queue's bound: a
// port never holds more than two unsettled entries (a start first
// settles every entry before its own instant), so pend is a two-slot
// array and a third entry would panic. It steps the scheduler one event at a time
// through back-to-back (a 4096-packet saturation), idle-gap, cross-port
// and INT departures, checks the bound, the started = settled + pending
// identity and the pool audit after every call, and requires that some
// case leaves two entries pending.
func TestPendTwoEntryBound(t *testing.T) {
	tx := (10 * Gbps).TxTime(1064)
	cases := []struct {
		name  string
		cfg   PortConfig
		cross bool
		at    func(i int) sim.Time // enqueue instant of packet i
		n     int
	}{
		{"back-to-back", PortConfig{Delay: 1 * sim.Microsecond}, false, func(int) sim.Time { return 0 }, 4096},
		{"idle gaps", PortConfig{Delay: 1 * sim.Microsecond}, false, func(i int) sim.Time { return sim.Time(i/3) * 5 * tx }, 300},
		{"cross", PortConfig{Delay: 1 * sim.Microsecond}, true, func(i int) sim.Time { return sim.Time(i/4) * 3 * tx }, 300},
		{"INT", PortConfig{Delay: 1 * sim.Microsecond, EnableINT: true}, false, func(i int) sim.Time { return sim.Time(i/4) * 3 * tx }, 300},
		{"INT cross", PortConfig{Delay: 1 * sim.Microsecond, EnableINT: true}, true, func(i int) sim.Time { return sim.Time(i/4) * 3 * tx }, 300},
	}
	reached := 0
	for _, tc := range cases {
		s := sim.NewScheduler()
		pool := NewBufferPool(1 << 30)
		p, k := newTestPort(s, tc.cfg, pool)
		var o *Outbox
		if tc.cross {
			o = NewOutbox(0)
			p.SetCross(o, NewInbox(sim.NewScheduler()))
		}
		peak := 0
		check := func(after string) {
			t.Helper()
			if p.npend < 0 || p.npend > 2 {
				t.Fatalf("%s: %d pend entries after %s", tc.name, p.npend, after)
			}
			for i := 1; i < p.npend; i++ {
				if p.pend[i].txDone <= p.pend[i-1].txDone {
					t.Fatalf("%s: pend txDone %v after %v", tc.name, p.pend[i].txDone, p.pend[i-1].txDone)
				}
			}
			// Every started packet is settled or pending: Audit's
			// wire identity (its idle-transmitter check holds only
			// after a settle through now).
			delivered, onWire := p.delivered, p.wire.len()
			if w := p.cross; w != nil {
				delivered, onWire = w.delivered, w.onWire()
			}
			if p.Stats.TxPackets+int64(p.npend) != delivered+int64(onWire) {
				t.Fatalf("%s: after %s: tx %d + pending %d != delivered %d + on wire %d",
					tc.name, after, p.Stats.TxPackets, p.npend, delivered, onWire)
			}
			if err := pool.Audit(); err != nil {
				t.Fatalf("%s: after %s: %v", tc.name, after, err)
			}
			peak = max(peak, p.npend)
		}
		for i := 0; i < tc.n; i++ {
			pkt := DataPacket(uint32(i+1), 0, 1, int64(i), 1000, 0)
			if tc.cfg.EnableINT {
				pkt.INT = make([]INTHop, 0, 1)
			}
			s.At(tc.at(i), func() {
				p.Enqueue(pkt)
				check("Enqueue")
			})
		}
		for s.Pending() > 0 || (o != nil && o.NextDeparture() != sim.MaxTime) {
			if s.Pending() > 0 {
				s.Limit = s.Executed + 1
				s.RunUntil(sim.MaxTime)
				check("an event")
			}
			if o != nil {
				// A round ends at every event: the earliest each owed
				// cross departure can be decided.
				end := s.Now()
				if s.Pending() == 0 {
					end = o.NextDeparture()
				}
				o.Advance(end)
				check("Advance")
			}
		}
		p.SettleTx(sim.MaxTime - 1)
		check("the final settle")
		if err := p.Audit(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.npend != 0 {
			t.Fatalf("%s: %d pend entries after the final settle", tc.name, p.npend)
		}
		if sent := p.Stats.TxPackets; sent != int64(tc.n) {
			t.Fatalf("%s: %d packets transmitted, want %d", tc.name, sent, tc.n)
		}
		if !tc.cross && len(k.pkts) != tc.n {
			t.Fatalf("%s: delivered %d packets, want %d", tc.name, len(k.pkts), tc.n)
		}
		reached = max(reached, peak)
	}
	// A local port settles the older entry inside the very delivery
	// that starts the next packet; a cross port leaves both pending.
	if reached != 2 {
		t.Fatalf("pend peaked at %d entries between calls, want 2", reached)
	}
}

// Randomized slack differential: a deterministic pseudo-random script of
// mixed sizes, priorities, classes, ECT/droppable flags and arrival
// times, under ECN + shared pool + selective drop + injected loss at
// once. The departure trace — (flow, seq, start, txDone) per packet,
// recovered from the delivery instants — must be identical whether owed
// departures are decided as late as the slack allows or at their own
// instant, and the late-deciding port must execute fewer events. A
// non-INT cross port running the script, whose owed departures are
// decided only by arrivals and at the ends of rounds of random width,
// must put the same (due, flow, seq) sequence on its wire, with no
// drain event.
func TestSlackRandomizedDifferential(t *testing.T) {
	cfg := PortConfig{
		Rate:            40 * Gbps,
		Delay:           1500 * sim.Nanosecond,
		ECNHighK:        3000,
		ECNLowK:         6000,
		DroppableThresh: 2500,
		LossProb:        0.05,
		LossSeed:        11,
	}
	script := func(s *sim.Scheduler, p *Port) {
		rng := uint64(42)
		next := func(n uint64) uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % n
		}
		for i := 0; i < 300; i++ {
			pkt := DataPacket(uint32(i), 0, 1, int64(i), int32(1+next(MSS)), int8(next(NumPriorities)))
			pkt.ECT = next(2) == 0
			pkt.Droppable = next(4) == 0
			at := sim.Time(next(uint64(40 * sim.Microsecond)))
			s.At(at, func() { p.Enqueue(pkt) })
		}
	}
	pn, pz, kn, kz, bn, bz, en, ez := pairRun(t, cfg, 30000, script)
	assertSameOutcome(t, pn, pz, kn, kz, bn, bz)
	if len(kn.pkts) == 0 {
		t.Fatal("differential delivered nothing")
	}
	// Departures never overlap and never start before the previous one
	// finished: the trace is a valid single-server schedule.
	var prevDone sim.Time
	for i, pkt := range kn.pkts {
		txDone := kn.at[i] - cfg.Delay
		start := txDone - cfg.Rate.TxTime(int(pkt.WireLen))
		if start < prevDone {
			t.Fatalf("departure %d (flow %d seq %d) starts at %v before the previous finished at %v", i, pkt.FlowID, pkt.Seq, start, prevDone)
		}
		prevDone = txDone
	}
	if en >= ez {
		t.Fatalf("natural slack executed %d events, zero slack %d; late decisions must cost fewer", en, ez)
	}

	s := sim.NewScheduler()
	bc := NewBufferPool(30000)
	pc, _ := newTestPort(s, cfg, bc)
	o := NewOutbox(0)
	pc.SetCross(o, NewInbox(sim.NewScheduler()))
	script(s, pc)
	rng := uint64(9)
	end := sim.Time(0)
	for s.Pending() > 0 || o.NextDeparture() != sim.MaxTime {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		end += 1 + sim.Time(rng%uint64(3*sim.Microsecond))
		s.RunUntil(end)
		o.Advance(end)
	}
	out := pc.cross.out
	pc.SettleTx(out[len(out)-1].at)
	if err := pc.Audit(); err != nil {
		t.Fatal(err)
	}
	if err := bc.Audit(); err != nil {
		t.Fatal(err)
	}
	kc := &sink{}
	for _, e := range out {
		kc.pkts = append(kc.pkts, e.pkt)
		kc.at = append(kc.at, e.at)
	}
	assertSameOutcome(t, pc, pz, kc, kz, bc, bz)
	if s.Executed != 300 {
		t.Fatalf("cross port executed %d events, want the script's 300 and no drain", s.Executed)
	}
}
