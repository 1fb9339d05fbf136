package netsim

import "fmt"

// PacketPool is a run-scoped packet freelist. Every experiment cell owns
// exactly one pool shared by its hosts and ports, so the steady-state
// datapath recycles packets instead of allocating them: a pool.Get per
// wire transfer is balanced by a Free at one of the three packet sinks
// (congestion drop, deliver-and-consume, injected loss; a trim is an
// in-place transform, so the trimmed header is freed at delivery like
// any other packet).
//
// This is deliberately NOT a sync.Pool. A sync.Pool is shared between
// goroutines and drained by GC, which would make allocation reuse — and
// therefore any latent aliasing bug — depend on scheduling and memory
// pressure. A plain per-run freelist keeps the simulation a pure
// function of its inputs: runs are byte-identical at any worker-pool
// width, and the race detector sees each pool touched by one goroutine
// only.
//
// All methods are nil-receiver safe and degrade to plain allocation, so
// unit tests that wire up hosts and ports by hand need no pool.
type PacketPool struct {
	free    []*Packet
	intFree [][]INTHop

	// Allocs counts packets that had to be heap-allocated; Reuses counts
	// packets served from the freelist; Frees counts packets returned.
	// In steady state Reuses dominates and Allocs stays at the high-water
	// mark of concurrently-live packets.
	Allocs int64
	Reuses int64
	Frees  int64
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a zeroed packet, recycling a freed one when possible.
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		return &Packet{}
	}
	if n := len(pp.free); n > 0 {
		pkt := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		pkt.inPool = false
		pp.Reuses++
		return pkt
	}
	pp.Allocs++
	return &Packet{}
}

// Free returns pkt to the pool. The packet must not be referenced again:
// its fields are zeroed (its INT array kept for GetINT to reuse) and
// the struct will be handed out by a future Get. Freeing the same
// packet twice panics — it means two owners think they hold it, which
// would silently corrupt a later, unrelated packet. Freeing nil is a
// no-op.
func (pp *PacketPool) Free(pkt *Packet) {
	if pp == nil || pkt == nil {
		return
	}
	if pkt.inPool {
		panic("netsim: packet double-free: " + pkt.String())
	}
	if pkt.INT != nil {
		pp.intFree = append(pp.intFree, pkt.INT[:0])
	}
	*pkt = Packet{inPool: true}
	pp.free = append(pp.free, pkt)
	pp.Frees++
}

// GetINT returns an empty telemetry slice with some capacity, recycling
// the backing array of a freed packet's INT when possible. Attaching it
// to a data packet (pkt.INT) marks the packet as INT-capable: ports with
// INT enabled append a hop record per traversal.
func (pp *PacketPool) GetINT() []INTHop {
	if pp == nil {
		return make([]INTHop, 0, 8)
	}
	if n := len(pp.intFree); n > 0 {
		s := pp.intFree[n-1]
		pp.intFree[n-1] = nil
		pp.intFree = pp.intFree[:n-1]
		return s
	}
	return make([]INTHop, 0, 8)
}

// Data builds a pooled payload-carrying packet with the wire length
// filled in. Payload must be in (0, MSS].
func (pp *PacketPool) Data(flow uint32, src, dst int32, seq int64, payload int32, prio int8) *Packet {
	if payload <= 0 || payload > MSS {
		panic(fmt.Sprintf("netsim: bad payload %d", payload))
	}
	pkt := pp.Get()
	pkt.FlowID = flow
	pkt.Src = src
	pkt.Dst = dst
	pkt.Kind = Data
	pkt.Seq = seq
	pkt.PayloadLen = payload
	pkt.WireLen = payload + HeaderBytes
	pkt.Prio = prio
	return pkt
}

// Ctrl builds a pooled header-only packet of the given kind.
func (pp *PacketPool) Ctrl(kind Kind, flow uint32, src, dst int32, prio int8) *Packet {
	pkt := pp.Get()
	pkt.FlowID = flow
	pkt.Src = src
	pkt.Dst = dst
	pkt.Kind = kind
	pkt.WireLen = HeaderBytes
	pkt.Prio = prio
	return pkt
}
