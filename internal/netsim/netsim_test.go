package netsim

import (
	"testing"
	"testing/quick"

	"ppt/internal/sim"
)

// sink records delivered packets with timestamps.
type sink struct {
	s    *sim.Scheduler
	pkts []*Packet
	at   []sim.Time
}

func (k *sink) Name() string { return "sink" }
func (k *sink) Receive(p *Packet) {
	k.pkts = append(k.pkts, p)
	k.at = append(k.at, k.s.Now())
}

func newTestPort(s *sim.Scheduler, cfg PortConfig, pool *BufferPool) (*Port, *sink) {
	k := &sink{s: s}
	if cfg.Rate == 0 {
		cfg.Rate = 10 * Gbps
	}
	return NewPort("p0", s, cfg, k, pool), k
}

func TestRateTxTime(t *testing.T) {
	cases := []struct {
		r    Rate
		n    int
		want sim.Time
	}{
		{10 * Gbps, 1000, 800 * sim.Nanosecond},
		{40 * Gbps, 1500, 300 * sim.Nanosecond},
		{100 * Gbps, 1500, 120 * sim.Nanosecond},
		{400 * Gbps, 1500, 30 * sim.Nanosecond},
	}
	for _, c := range cases {
		if got := c.r.TxTime(c.n); got != c.want {
			t.Errorf("%v.TxTime(%d) = %v, want %v", c.r, c.n, got, c.want)
		}
	}
}

func TestBDPBytes(t *testing.T) {
	// 10Gbps * 80us = 100KB.
	if got := BDPBytes(10*Gbps, 80*sim.Microsecond); got != 100000 {
		t.Fatalf("BDP = %d", got)
	}
}

func TestPortSerialization(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps, Delay: 1 * sim.Microsecond}, nil)
	pkt := DataPacket(1, 0, 1, 0, 1000, 0)
	p.Enqueue(pkt)
	s.Run()
	if len(k.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(k.pkts))
	}
	// 1064 wire bytes at 10G = 851.2ns + 1us prop.
	want := (10 * Gbps).TxTime(1064) + 1*sim.Microsecond
	if k.at[0] != want {
		t.Fatalf("delivered at %v, want %v", k.at[0], want)
	}
	if p.Stats.TxBytes != 1064 || p.Stats.TxPackets != 1 {
		t.Fatalf("stats = %+v", p.Stats)
	}
}

func TestStrictPriorityOrder(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps}, nil)
	// First packet ties up the transmitter; then a low-prio and a
	// high-prio packet queue behind it. High must come out first.
	p.Enqueue(DataPacket(1, 0, 1, 0, 1000, 3))
	p.Enqueue(DataPacket(2, 0, 1, 0, 1000, 7))
	p.Enqueue(DataPacket(3, 0, 1, 0, 1000, 0))
	s.Run()
	if len(k.pkts) != 3 {
		t.Fatalf("delivered %d", len(k.pkts))
	}
	gotOrder := []uint32{k.pkts[0].FlowID, k.pkts[1].FlowID, k.pkts[2].FlowID}
	want := []uint32{1, 3, 2}
	for i := range want {
		if gotOrder[i] != want[i] {
			t.Fatalf("order = %v, want %v", gotOrder, want)
		}
	}
}

func TestQueueCapDrops(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps, QueueCap: 3000}, nil)
	for i := 0; i < 5; i++ {
		p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 1400, 0))
	}
	s.Run()
	// One transmits immediately (not queued), two fit the 3000B cap.
	if len(k.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(k.pkts))
	}
	if p.Stats.Drops != 2 {
		t.Fatalf("drops = %d, want 2", p.Stats.Drops)
	}
}

func TestSharedPoolDropsAndRelease(t *testing.T) {
	s := sim.NewScheduler()
	pool := NewBufferPool(2000)
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps}, pool)
	for i := 0; i < 4; i++ {
		p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 900, 0))
	}
	// 964B each; two fit in 2000.
	if pool.Used() != 1928 {
		t.Fatalf("pool used = %d", pool.Used())
	}
	s.Run()
	if len(k.pkts) != 2 || pool.Drops != 2 {
		t.Fatalf("delivered=%d poolDrops=%d", len(k.pkts), pool.Drops)
	}
	if pool.Used() != 0 {
		t.Fatalf("pool not drained: %d", pool.Used())
	}
}

func TestECNHighClassMarking(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps, ECNHighK: 2000}, nil)
	for i := 0; i < 5; i++ {
		pkt := DataPacket(uint32(i), 0, 1, 0, 1400, 0)
		pkt.ECT = true
		p.Enqueue(pkt)
	}
	s.Run()
	// Packet 0 transmits immediately (queue empty: no mark). Packets 1,2
	// arrive at occupancies 0 and 1464 (<2000): no mark. Packets 3,4 see
	// 2928 and 4392: marked.
	var marked int
	for _, pkt := range k.pkts {
		if pkt.CE {
			marked++
		}
	}
	if marked != 2 || p.Stats.MarksHigh != 2 {
		t.Fatalf("marked = %d (stats %d), want 2", marked, p.Stats.MarksHigh)
	}
}

func TestECNLowClassUsesTotalOccupancy(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps, ECNHighK: 1 << 30, ECNLowK: 2000}, nil)
	// Fill the high class; low-class arrival must see it.
	p.Enqueue(DataPacket(1, 0, 1, 0, 1400, 0))
	p.Enqueue(DataPacket(2, 0, 1, 0, 1400, 0))
	p.Enqueue(DataPacket(3, 0, 1, 0, 1400, 0))
	low := DataPacket(4, 0, 1, 0, 1400, 5)
	low.ECT = true
	p.Enqueue(low)
	s.Run()
	var lowPkt *Packet
	for _, pkt := range k.pkts {
		if pkt.Prio == 5 {
			lowPkt = pkt
		}
	}
	if lowPkt == nil || !lowPkt.CE {
		t.Fatalf("low-class packet not marked against total occupancy")
	}
}

func TestHighClassIgnoresLowOccupancy(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps, ECNHighK: 2000}, nil)
	// Stack up low-class bytes beyond K.
	p.Enqueue(DataPacket(1, 0, 1, 0, 1400, 7))
	p.Enqueue(DataPacket(2, 0, 1, 0, 1400, 7))
	p.Enqueue(DataPacket(3, 0, 1, 0, 1400, 7))
	hi := DataPacket(4, 0, 1, 0, 1400, 0)
	hi.ECT = true
	p.Enqueue(hi)
	s.Run()
	for _, pkt := range k.pkts {
		if pkt.Prio == 0 && pkt.CE {
			t.Fatal("high-class packet marked by low-class occupancy")
		}
	}
}

func TestNDPTrimming(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps, QueueCap: 3100, TrimToHeader: true}, nil)
	for i := 0; i < 5; i++ {
		p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 1400, 3))
	}
	s.Run()
	if len(k.pkts) != 5 {
		t.Fatalf("delivered %d, want all 5 (two trimmed)", len(k.pkts))
	}
	var trimmed int
	for _, pkt := range k.pkts {
		if pkt.Trimmed {
			trimmed++
			if pkt.WireLen != HeaderBytes || pkt.Prio != 0 {
				t.Fatalf("trimmed packet: wire=%d prio=%d", pkt.WireLen, pkt.Prio)
			}
		}
	}
	if trimmed != 2 || p.Stats.Trims != 2 {
		t.Fatalf("trimmed = %d (stats %d)", trimmed, p.Stats.Trims)
	}
}

func TestAeolusSelectiveDrop(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps, DroppableThresh: 2000}, nil)
	for i := 0; i < 5; i++ {
		pkt := DataPacket(uint32(i), 0, 1, 0, 1400, 6)
		pkt.Droppable = true
		p.Enqueue(pkt)
	}
	s.Run()
	// pkt0 transmits; pkt1 queues at 0B, pkt2 at 1464B (<2000); pkt3,4
	// see >=2000 queued and are selectively dropped.
	if len(k.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(k.pkts))
	}
	if p.Stats.Drops != 2 || p.Stats.DropsLow != 2 {
		t.Fatalf("drops = %+v", p.Stats)
	}
}

func TestRandomLossCountedSeparately(t *testing.T) {
	// Regression: injected losses must land in RandomDrops only — they
	// used to also bump Drops/DropsLow, overstating congestion loss under
	// fault injection.
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps, LossProb: 1.0, LossSeed: 1}, nil)
	for i := 0; i < 5; i++ {
		p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 1400, 6))
	}
	s.Run()
	if len(k.pkts) != 0 {
		t.Fatalf("delivered %d, want 0 at LossProb=1", len(k.pkts))
	}
	if p.Stats.RandomDrops != 5 {
		t.Fatalf("random drops = %d, want 5", p.Stats.RandomDrops)
	}
	if p.Stats.Drops != 0 || p.Stats.DropsLow != 0 {
		t.Fatalf("injected losses leaked into congestion counters: %+v", p.Stats)
	}
}

func TestLowClassCap(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps, LowClassCap: 2000}, nil)
	// High class unaffected.
	for i := 0; i < 3; i++ {
		p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 1400, 0))
	}
	for i := 3; i < 8; i++ {
		p.Enqueue(DataPacket(uint32(i), 0, 1, 0, 1400, 6))
	}
	s.Run()
	var low int
	for _, pkt := range k.pkts {
		if pkt.Prio == 6 {
			low++
		}
	}
	if low != 1 {
		t.Fatalf("low-class delivered %d, want 1 (cap 2000 holds one 1464B pkt)", low)
	}
	if p.Stats.DropsLow != 4 {
		t.Fatalf("low drops = %d", p.Stats.DropsLow)
	}
}

func TestINTAppending(t *testing.T) {
	s := sim.NewScheduler()
	p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps, EnableINT: true}, nil)
	pkt := DataPacket(1, 0, 1, 0, 1000, 0)
	pkt.INT = make([]INTHop, 0, 4)
	p.Enqueue(pkt)
	noINT := DataPacket(2, 0, 1, 0, 1000, 0)
	p.Enqueue(noINT)
	s.Run()
	if len(k.pkts[0].INT) != 1 {
		t.Fatalf("INT hops = %d", len(k.pkts[0].INT))
	}
	rec := k.pkts[0].INT[0]
	if rec.Rate != 10*Gbps || rec.TxBytes != 1064 {
		t.Fatalf("INT record = %+v", rec)
	}
	if k.pkts[1].INT != nil {
		t.Fatal("INT appended to non-INT packet")
	}
}

func TestSwitchRoutingAndECMP(t *testing.T) {
	s := sim.NewScheduler()
	sw := NewSwitch("leaf0", 7)
	k1 := &sink{s: s}
	k2 := &sink{s: s}
	p1 := NewPort("p1", s, PortConfig{Rate: 40 * Gbps}, k1, nil)
	p2 := NewPort("p2", s, PortConfig{Rate: 40 * Gbps}, k2, nil)
	i1 := sw.AddPort(p1)
	i2 := sw.AddPort(p2)
	sw.AddRoute(9, i1, i2)
	for f := uint32(0); f < 64; f++ {
		sw.Receive(DataPacket(f, 0, 9, 0, 100, 0))
	}
	s.Run()
	if len(k1.pkts)+len(k2.pkts) != 64 {
		t.Fatalf("lost packets: %d+%d", len(k1.pkts), len(k2.pkts))
	}
	if len(k1.pkts) == 0 || len(k2.pkts) == 0 {
		t.Fatalf("ECMP did not spread: %d/%d", len(k1.pkts), len(k2.pkts))
	}
	// Same flow always hashes to the same port.
	sw2 := NewSwitch("leaf1", 7)
	kA := &sink{s: s}
	pA := NewPort("pa", s, PortConfig{Rate: 40 * Gbps}, kA, nil)
	kB := &sink{s: s}
	pB := NewPort("pb", s, PortConfig{Rate: 40 * Gbps}, kB, nil)
	sw2.AddRoute(9, sw2.AddPort(pA), sw2.AddPort(pB))
	for i := 0; i < 10; i++ {
		sw2.Receive(DataPacket(42, 0, 9, 0, 100, 0))
	}
	s.Run()
	if len(kA.pkts) != 0 && len(kB.pkts) != 0 {
		t.Fatal("one flow split across ECMP paths")
	}
}

func TestHostDemux(t *testing.T) {
	s := sim.NewScheduler()
	h := NewHost(3, s)
	nic, _ := newTestPort(s, PortConfig{Rate: 10 * Gbps}, nil)
	h.SetNIC(nic)

	var dataGot, ackGot int
	h.Bind(1, true, endpointFunc(func(p *Packet) { dataGot++ }))
	h.Bind(1, false, endpointFunc(func(p *Packet) { ackGot++ }))

	h.Receive(DataPacket(1, 0, 3, 0, 100, 0))
	h.Receive(CtrlPacket(Ack, 1, 0, 3, 0))
	h.Receive(CtrlPacket(Grant, 1, 0, 3, 0))
	// Unknown flow: silently dropped.
	h.Receive(DataPacket(99, 0, 3, 0, 100, 0))

	if dataGot != 1 || ackGot != 2 {
		t.Fatalf("data=%d ack=%d", dataGot, ackGot)
	}
	if h.Delivered != 200 {
		t.Fatalf("delivered bytes = %d", h.Delivered)
	}
	h.Unbind(1, true)
	h.Receive(DataPacket(1, 0, 3, 0, 100, 0))
	if dataGot != 1 {
		t.Fatal("unbound endpoint still reached")
	}
}

type endpointFunc func(*Packet)

func (f endpointFunc) Handle(p *Packet) { f(p) }

func TestHostSendStampsTime(t *testing.T) {
	s := sim.NewScheduler()
	h := NewHost(0, s)
	nic, k := newTestPort(s, PortConfig{Rate: 10 * Gbps}, nil)
	h.SetNIC(nic)
	s.At(5*sim.Microsecond, func() {
		h.Send(DataPacket(1, 0, 1, 0, 100, 0))
	})
	s.Run()
	if k.pkts[0].SentAt != 5*sim.Microsecond {
		t.Fatalf("SentAt = %v", k.pkts[0].SentAt)
	}
}

// Property: work conservation — for any arrival pattern that fits the
// buffer, total delivered bytes equal total enqueued bytes, and the port
// is never idle while packets wait.
func TestPropertyWorkConservation(t *testing.T) {
	prop := func(sizes []uint16, prios []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		s := sim.NewScheduler()
		p, k := newTestPort(s, PortConfig{Rate: 10 * Gbps}, nil)
		var want int64
		for i, sz := range sizes {
			payload := int32(sz%MSS) + 1
			prio := int8(0)
			if i < len(prios) {
				prio = int8(prios[i] % NumPriorities)
			}
			p.Enqueue(DataPacket(uint32(i), 0, 1, 0, payload, prio))
			want += int64(payload) + HeaderBytes
		}
		s.Run()
		var got int64
		for _, pkt := range k.pkts {
			got += int64(pkt.WireLen)
		}
		// Delivery must complete in exactly the serialization time of
		// all bytes (work conservation, no prop delay configured).
		if s.Now() != (10 * Gbps).TxTime(int(want)) {
			return false
		}
		return got == want && p.Stats.Drops == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue byte accounting returns to zero after draining,
// whatever mix of priorities/drops/caps was applied.
func TestPropertyAccountingDrainsToZero(t *testing.T) {
	prop := func(sizes []uint16, capSel uint8) bool {
		s := sim.NewScheduler()
		cfg := PortConfig{Rate: 40 * Gbps, QueueCap: int64(capSel)*100 + 1500}
		p, _ := newTestPort(s, cfg, nil)
		for i, sz := range sizes {
			p.Enqueue(DataPacket(uint32(i), 0, 1, 0, int32(sz%MSS)+1, int8(i%NumPriorities)))
		}
		s.Run()
		if p.Queued() != 0 || p.QueuedLow() != 0 || p.QueuedHigh() != 0 {
			return false
		}
		for prio := int8(0); prio < NumPriorities; prio++ {
			if p.bytesQueued[prio] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPortEnqueueDequeue(b *testing.B) {
	s := sim.NewScheduler()
	p, _ := newTestPort(s, PortConfig{Rate: 40 * Gbps, ECNHighK: 96_000, QueueCap: 120_000}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := DataPacket(uint32(i), 0, 1, 0, MSS, int8(i%NumPriorities))
		pkt.ECT = true
		p.Enqueue(pkt)
		if i%8 == 7 {
			s.Run() // drain periodically
		}
	}
	s.Run()
}

func BenchmarkSwitchForwarding(b *testing.B) {
	s := sim.NewScheduler()
	sw := NewSwitch("bench", 3)
	sinks := make([]*sink, 4)
	var idx []int
	for i := range sinks {
		sinks[i] = &sink{s: s}
		idx = append(idx, sw.AddPort(NewPort("p", s, PortConfig{Rate: 100 * Gbps}, sinks[i], nil)))
	}
	sw.AddRoute(1, idx...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Receive(DataPacket(uint32(i), 0, 1, 0, MSS, 0))
		if i%16 == 15 {
			s.Run()
		}
	}
	s.Run()
}
