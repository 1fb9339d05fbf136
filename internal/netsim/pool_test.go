package netsim

import (
	"testing"
	"unsafe"
)

func TestPacketPoolRecycles(t *testing.T) {
	pp := NewPacketPool()
	pkt := pp.Data(7, 1, 2, 4096, MSS, 3)
	pkt.AddRange(0, MSS)
	pkt.GrantPrio = 2
	pp.Free(pkt)
	got := pp.Get()
	if got != pkt {
		t.Fatal("freed packet not recycled")
	}
	if got.FlowID != 0 || got.Seq != 0 || got.PayloadLen != 0 || got.WireLen != 0 ||
		got.Kind != Data || got.Prio != 0 || got.NRanges != 0 || got.RangeSeq != [2]int64{} ||
		got.RangeLen != [2]int32{} || got.GrantPrio != 0 || got.INT != nil {
		t.Fatalf("recycled packet not zeroed: %+v", got)
	}
	if pp.Allocs != 1 || pp.Frees != 1 || pp.Reuses != 1 {
		t.Fatalf("counters = %d/%d/%d, want 1/1/1", pp.Allocs, pp.Frees, pp.Reuses)
	}
}

// TestPacketStaysSmall pins the packet's size: every queue, wire and
// freelist holds packets, so the control fields it carries by value
// (ranges, a granted priority) must fit in 112 bytes.
func TestPacketStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 112 {
		t.Fatalf("Packet is %d bytes, want at most 112", n)
	}
}

func TestPacketPoolDoubleFreePanics(t *testing.T) {
	pp := NewPacketPool()
	pkt := pp.Ctrl(Ack, 1, 1, 2, 0)
	pp.Free(pkt)
	defer func() {
		if recover() == nil {
			t.Error("double-free did not panic")
		}
	}()
	pp.Free(pkt)
}

func TestPacketPoolNilSafe(t *testing.T) {
	var pp *PacketPool
	pkt := pp.Data(1, 1, 2, 100, 100, 0)
	if pkt == nil || pkt.WireLen != 100+HeaderBytes {
		t.Fatalf("nil pool Data = %+v", pkt)
	}
	pp.Free(pkt) // no-op, must not crash
	if s := pp.GetINT(); cap(s) == 0 {
		t.Fatal("nil pool GetINT returned zero-cap slice")
	}
}

func TestPacketPoolRecyclesINT(t *testing.T) {
	pp := NewPacketPool()
	pkt := pp.Data(1, 1, 2, 100, 100, 0)
	pkt.INT = pp.GetINT()
	pkt.INT = append(pkt.INT, INTHop{QLen: 42})
	backing := &pkt.INT[0]
	pp.Free(pkt)
	if pkt.INT != nil {
		t.Fatal("Free left INT attached")
	}
	got := pp.GetINT()
	if len(got) != 0 {
		t.Fatalf("recycled INT slice not empty: len=%d", len(got))
	}
	if &got[:1][0] != backing {
		t.Fatal("INT backing array not recycled")
	}
}

// A run-scoped pool must keep live allocations at the high-water mark:
// churning one packet at a time through the port/host cycle must not
// allocate more than once.
func TestPacketPoolSteadyState(t *testing.T) {
	pp := NewPacketPool()
	for i := 0; i < 1000; i++ {
		pp.Free(pp.Ctrl(Ack, 1, 1, 2, 0))
	}
	if pp.Allocs != 1 {
		t.Fatalf("steady-state churn allocated %d packets, want 1", pp.Allocs)
	}
}

func TestPktRingFIFOAcrossWrapAndGrow(t *testing.T) {
	var r pktRing
	mk := func(i int) *Packet { return &Packet{Seq: int64(i)} }
	// Staggered pushes and pops make the head wander, exercising the
	// wraparound mask and mid-flight grows.
	in, out := 0, 0
	for step := 0; step < 10_000; step++ {
		if step%3 != 2 {
			r.push(mk(in))
			in++
		} else if r.len() > 0 {
			pkt := r.pop()
			if pkt.Seq != int64(out) {
				t.Fatalf("step %d: popped seq %d, want %d", step, pkt.Seq, out)
			}
			out++
		}
	}
	// Drain: every packet must come out exactly once, in order.
	for r.len() > 0 {
		if pkt := r.pop(); pkt.Seq != int64(out) {
			t.Fatalf("drain: popped seq %d, want %d", pkt.Seq, out)
		} else {
			out++
		}
	}
	if out != in {
		t.Fatalf("pushed %d packets, popped %d", in, out)
	}
}
