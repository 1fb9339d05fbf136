package netsim

import (
	"math/rand"
	"sort"
	"testing"

	"ppt/internal/sim"
)

// Fires consume the inbox through a head index and barrier merges
// compact the delivered prefix away; interleaving the two with a
// non-zero head must still deliver every packet exactly once, at its due
// time, in canonical (At, Src, Seq) order.
func TestInboxInterleavedFiresAndMerges(t *testing.T) {
	s := sim.NewScheduler()
	k := &sink{s: s}
	p := NewPort("x", s, PortConfig{Rate: 10 * Gbps}, k, nil)
	in := NewInbox(s)
	outs := []*Outbox{NewOutbox(0), NewOutbox(1)}
	flow := uint32(0)
	deposit := func(src int, at sim.Time) {
		outs[src].deposit(at, DataPacket(flow, 0, 1, 0, 100, 0), p, 0)
		flow++
	}

	// Barrier 1: five entries, two sharing an instant across sources.
	deposit(0, 10)
	deposit(1, 10)
	deposit(0, 20)
	deposit(1, 30)
	deposit(0, 40)
	if n := MergeWindows(outs, []*Inbox{in}); n != 5 {
		t.Fatalf("merged %d entries, want 5", n)
	}
	s.RunUntil(25) // delivers the three entries due by 25
	if in.head != 3 || len(in.pending) != 5 {
		t.Fatalf("after partial drain: head=%d len=%d, want head=3 len=5", in.head, len(in.pending))
	}

	// Barrier 2: new deposits before, between and after the survivors,
	// out of order, merged into an inbox with a non-zero head.
	deposit(1, 45)
	deposit(0, 35)
	deposit(1, 30)
	deposit(0, 30)
	MergeWindows(outs, []*Inbox{in})
	if in.head != 0 || len(in.pending) != 6 {
		t.Fatalf("after merge: head=%d len=%d, want the delivered prefix compacted (head=0 len=6)", in.head, len(in.pending))
	}
	s.RunUntil(35)

	// Barrier 3 while the head is non-zero again, then drain everything.
	deposit(1, 40)
	MergeWindows(outs, []*Inbox{in})
	s.Run()

	type rec struct {
		flow uint32
		at   sim.Time
	}
	// Canonical order: At, then source shard, then deposit sequence.
	want := []rec{{0, 10}, {1, 10}, {2, 20}, {8, 30}, {3, 30}, {7, 30}, {6, 35}, {4, 40}, {9, 40}, {5, 45}}
	if len(k.pkts) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(k.pkts), len(want))
	}
	for i, w := range want {
		if k.pkts[i].FlowID != w.flow || k.at[i] != w.at {
			t.Fatalf("delivery %d = flow %d at %v, want flow %d at %v", i, k.pkts[i].FlowID, k.at[i], w.flow, w.at)
		}
	}
	if len(in.pending) != 0 || in.head != 0 {
		t.Fatalf("inbox not empty after the run: head=%d len=%d", in.head, len(in.pending))
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

// sortSuffix must produce the canonical order for any input: random,
// nearly sorted (the common per-source shape), reversed, and sizes on
// both sides of every block and merge boundary.
func TestSortSuffixCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := &Inbox{}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(140)
		p := make([]CrossEntry, n)
		seq := make([]uint64, 4)
		for i := range p {
			src := int32(rng.Intn(len(seq)))
			var at sim.Time
			switch trial % 3 {
			case 0: // random, with ties
				at = sim.Time(rng.Intn(20))
			case 1: // nearly sorted: a rising clock plus a small jitter
				at = sim.Time(4*i + rng.Intn(10))
			default: // reversed
				at = sim.Time(n - i)
			}
			p[i] = CrossEntry{At: at, Src: src, Seq: seq[src]}
			seq[src]++
		}
		want := append([]CrossEntry(nil), p...)
		sort.Slice(want, func(i, j int) bool { return crossLess(&want[i], &want[j]) })
		in.sortSuffix(p)
		for i := range p {
			if p[i] != want[i] {
				t.Fatalf("trial %d (n=%d): position %d = %+v, want %+v", trial, n, i, p[i], want[i])
			}
		}
	}
}
