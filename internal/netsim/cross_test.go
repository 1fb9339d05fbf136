package netsim

import (
	"fmt"
	"testing"

	"ppt/internal/sim"
)

// One inbox fed by three source shards, connected out of shard order.
// Heads due at one instant are delivered in source-shard order, each at
// its due time, with one fire per distinct due time, across fires and
// barriers interleaved: a barrier that refills a drained wire with a
// head earlier than the armed timer re-arms it, and one that appends
// behind a wire's undelivered packets keeps them first.
func TestInboxThreeSourcesCanonicalOrder(t *testing.T) {
	s := sim.NewScheduler()
	k := &sink{s: s}
	in := NewInbox(s)
	ports := make([]*Port, 3)
	for _, src := range []int{2, 0, 1} {
		ports[src] = NewPort(fmt.Sprintf("src%d", src), sim.NewScheduler(), PortConfig{Rate: 10 * Gbps, Delay: 1}, k, nil)
		ports[src].SetCross(NewOutbox(src), in)
	}
	flow := uint32(0)
	push := func(src int, at sim.Time) {
		ports[src].cross.push(at, DataPacket(flow, 0, 1, 0, 100, 0))
		flow++
	}
	merge := func(want int) {
		t.Helper()
		if n := MergeWindows([]*Inbox{in}); n != want {
			t.Fatalf("published %d packets, want %d", n, want)
		}
	}

	// Barrier 1: a three-way tie at 10.
	push(2, 10) // flow 0
	push(0, 10) // 1
	push(1, 10) // 2
	push(0, 20) // 3
	push(1, 30) // 4
	push(0, 40) // 5
	merge(6)
	s.RunUntil(25) // wire 2 drains; wires 0 and 1 keep 40 and 30

	// Barrier 2: wire 2 refills with a head (27) before the armed 30;
	// wires 0 and 1 append behind their undelivered packets.
	push(2, 27) // 6
	push(2, 30) // 7
	push(0, 45) // 8
	push(1, 35) // 9
	merge(4)
	if in.armedAt != 27 {
		t.Fatalf("armed at %v after an earlier head arrived, want 27", in.armedAt)
	}
	s.RunUntil(35)

	// Barrier 3: two drained wires tie with wire 0's undelivered 40.
	push(2, 40) // 10
	push(1, 40) // 11
	merge(2)
	s.Run()

	type rec struct {
		flow uint32
		at   sim.Time
	}
	want := []rec{
		{1, 10}, {2, 10}, {0, 10}, {3, 20}, {6, 27}, {4, 30}, {7, 30},
		{9, 35}, {5, 40}, {11, 40}, {10, 40}, {8, 45},
	}
	if len(k.pkts) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(k.pkts), len(want))
	}
	for i, w := range want {
		if k.pkts[i].FlowID != w.flow || k.at[i] != w.at {
			t.Fatalf("delivery %d = flow %d at %v, want flow %d at %v", i, k.pkts[i].FlowID, k.at[i], w.flow, w.at)
		}
	}
	if s.Executed != 7 {
		t.Fatalf("inbox fired %d times, want one per distinct due time (7)", s.Executed)
	}
	for src, p := range ports {
		if w := p.cross; w.onWire() != 0 || w.delivered != 4 || in.heads[src] != sim.MaxTime {
			t.Fatalf("wire from shard %d: %d on wire, %d delivered, head %v; want 0, 4, MaxTime", src, w.onWire(), w.delivered, in.heads[src])
		}
	}
}

// The canonical delivery order rests on one wire per ordered shard
// pair: a second wire from one source shard into the same inbox panics,
// while wires from that shard into other inboxes are fine.
func TestSetCrossRejectsSecondWireFromOneShard(t *testing.T) {
	s := sim.NewScheduler()
	port := func(name string) *Port {
		return NewPort(name, s, PortConfig{Rate: 10 * Gbps, Delay: 1}, &sink{s: s}, nil)
	}
	in := NewInbox(s)
	o := NewOutbox(0)
	port("a").SetCross(o, in)
	port("b").SetCross(NewOutbox(1), in)
	port("c").SetCross(o, NewInbox(s))
	defer func() {
		if recover() == nil {
			t.Fatal("a second wire from shard 0 into one inbox did not panic")
		}
	}()
	port("d").SetCross(o, in)
}

// relay is a device that forwards every packet it receives onto a port.
type relay struct{ p *Port }

func (r relay) Name() string        { return "relay" }
func (r relay) Receive(pkt *Packet) { r.p.Enqueue(pkt) }

// Two shards exchange packets over a pair of cross wires while running
// their windows on two goroutines, with MergeWindows on the driver at
// each barrier — the windowed engine's threading, run under the race
// detector in CI. Every packet must make the round trip, in order, and
// both ports must pass the conservation audit.
func TestCrossWiresConcurrentShards(t *testing.T) {
	const delay = 1 * sim.Microsecond
	const n = 2000
	cfg := PortConfig{Rate: 10 * Gbps, Delay: delay}
	scheds := []*sim.Scheduler{sim.NewScheduler(), sim.NewScheduler()}
	outs := []*Outbox{NewOutbox(0), NewOutbox(1)}
	ins := []*Inbox{NewInbox(scheds[0]), NewInbox(scheds[1])}
	home := &sink{s: scheds[0]}
	back := NewPort("back", scheds[1], cfg, home, nil)
	back.SetCross(outs[1], ins[0])
	there := NewPort("there", scheds[0], cfg, relay{back}, nil)
	there.SetCross(outs[0], ins[1])

	rng := uint64(7)
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		at += sim.Time(rng % uint64(2*sim.Microsecond))
		pkt := DataPacket(uint32(i), 0, 1, 0, int32(1+rng%MSS), 0)
		scheds[0].At(at, func() { there.Enqueue(pkt) })
	}

	// Windows one wire delay wide are conservative: a departure in
	// window k is due at least a delay later, in window k+1 or beyond.
	start := []chan sim.Time{make(chan sim.Time), make(chan sim.Time)}
	done := make(chan struct{})
	for i := range scheds {
		go func(i int) {
			for end := range start[i] {
				scheds[i].RunUntil(end)
				outs[i].Advance(end)
				done <- struct{}{}
			}
		}(i)
	}
	end := delay - 1
	for ; len(home.pkts) < n && end < 1*sim.Second; end += delay {
		for _, ch := range start {
			ch <- end
		}
		<-done
		<-done
		MergeWindows(ins)
	}
	for _, ch := range start {
		close(ch)
	}

	if len(home.pkts) != n {
		t.Fatalf("%d of %d packets came back by %v", len(home.pkts), n, end)
	}
	for i, pkt := range home.pkts {
		if pkt.FlowID != uint32(i) || (i > 0 && home.at[i] <= home.at[i-1]) {
			t.Fatalf("return %d: flow %d at %v (previous at %v)", i, pkt.FlowID, home.at[i], home.at[max(i-1, 0)])
		}
	}
	for _, p := range []*Port{there, back} {
		p.SettleTx(end)
		if err := p.Audit(); err != nil {
			t.Fatal(err)
		}
	}
}

// Switch routes are a dense slice indexed by host id; an id with no
// route — beyond the table, or a hole inside it — still panics.
func TestSwitchNoRoutePanics(t *testing.T) {
	s := sim.NewScheduler()
	sw := NewSwitch("sw", 1)
	k := &sink{s: s}
	sw.AddRoute(3, sw.AddPort(NewPort("p", s, PortConfig{Rate: 10 * Gbps}, k, nil)))
	sw.Receive(DataPacket(1, 0, 3, 0, 100, 0))
	s.Run()
	if len(k.pkts) != 1 {
		t.Fatalf("routed %d packets, want 1", len(k.pkts))
	}
	for _, dst := range []int32{1, 4, 1 << 20, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for unrouted host %d", dst)
				}
			}()
			sw.Receive(DataPacket(1, 0, dst, 0, 100, 0))
		}()
	}
}
