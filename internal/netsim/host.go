package netsim

import (
	"fmt"

	"ppt/internal/sim"
)

// Endpoint is one side of a transport flow living on a host. Data-plane
// packets reach the receiver endpoint; control packets (ACK/grant/pull)
// reach the sender endpoint.
type Endpoint interface {
	Handle(pkt *Packet)
}

// endpointKey demuxes by flow and direction: a flow's sender and receiver
// live on different hosts, but a host can terminate both roles of
// different flows concurrently. Packed into a uint64 (flow<<1 | dir) so
// the per-packet delivery lookup takes the runtime's fast fixed-64 map
// path instead of a hash-function call.
func endpointKey(flow uint32, receiver bool) uint64 {
	k := uint64(flow) << 1
	if receiver {
		k |= 1
	}
	return k
}

// Host is an end system: a NIC egress port plus a per-flow endpoint
// table.
type Host struct {
	id    int32
	name  string
	sched *sim.Scheduler
	nic   *Port
	pool  *PacketPool

	endpoints map[uint64]Endpoint
	// peak tracks the high-water endpoint count since the map was last
	// (re)built: Go maps never shrink, so after a burst of concurrent
	// flows the bucket array would pin peak-size memory for the rest of
	// the run. Unbind swaps in a fresh map once the table empties.
	peak int

	// Delivered counts payload bytes handed to receiver endpoints
	// (including duplicates), for transfer-efficiency accounting.
	Delivered int64

	// Orphans counts data payload bytes that arrived for a flow with no
	// bound endpoint (stragglers after completion).
	Orphans int64
	// OrphansLow is the low-loop share of Orphans.
	OrphansLow int64
}

// NewHost creates host id; topo builders attach the NIC with SetNIC.
func NewHost(id int32, s *sim.Scheduler) *Host {
	return &Host{
		id:        id,
		name:      fmt.Sprintf("h%d", id),
		sched:     s,
		endpoints: make(map[uint64]Endpoint),
	}
}

// ID returns the host id used in packet headers.
func (h *Host) ID() int32 { return h.id }

// Name implements Device.
func (h *Host) Name() string { return h.name }

// Sched returns the host's scheduler.
func (h *Host) Sched() *sim.Scheduler { return h.sched }

// SetNIC installs the egress port toward the first-hop switch.
func (h *Host) SetNIC(p *Port) { h.nic = p }

// SetPool attaches the run's packet pool: packets built with Data/Ctrl
// come from it, and delivered packets return to it after their endpoint
// handles them. Optional — without a pool the host plain-allocates.
func (h *Host) SetPool(pp *PacketPool) { h.pool = pp }

// Pool returns the host's packet pool (possibly nil; PacketPool methods
// are nil-safe).
func (h *Host) Pool() *PacketPool { return h.pool }

// Data builds a payload-carrying packet from this host, drawn from its
// pool. The endpoint-facing contract: once the packet is Sent it belongs
// to the network, which recycles it at a sink — the builder must not
// touch it again.
func (h *Host) Data(flow uint32, dst int32, seq int64, payload int32, prio int8) *Packet {
	return h.pool.Data(flow, h.id, dst, seq, payload, prio)
}

// Ctrl builds a header-only packet from this host, drawn from its pool.
// Same ownership contract as Data.
func (h *Host) Ctrl(kind Kind, flow uint32, dst int32, prio int8) *Packet {
	return h.pool.Ctrl(kind, flow, h.id, dst, prio)
}

// NIC returns the host's egress port.
func (h *Host) NIC() *Port { return h.nic }

// Rate returns the NIC line rate.
func (h *Host) Rate() Rate { return h.nic.Config().Rate }

// Bind registers an endpoint for one direction of a flow. Binding the
// same key twice is a programming error.
func (h *Host) Bind(flow uint32, receiver bool, ep Endpoint) {
	k := endpointKey(flow, receiver)
	if _, dup := h.endpoints[k]; dup {
		panic(fmt.Sprintf("netsim: host %s: duplicate endpoint for flow %d (receiver=%v)", h.name, flow, receiver))
	}
	h.endpoints[k] = ep
	if n := len(h.endpoints); n > h.peak {
		h.peak = n
	}
}

// endpointShrinkAt is the peak table size beyond which an emptied
// endpoint map is released rather than kept for reuse.
const endpointShrinkAt = 64

// Unbind removes a flow endpoint (called when a flow completes) and
// returns it so the caller can recycle the struct; nil when the key was
// not bound. When the table empties after a large burst, the map is
// rebuilt small so long runs do not hold peak-size buckets.
func (h *Host) Unbind(flow uint32, receiver bool) Endpoint {
	k := endpointKey(flow, receiver)
	ep, ok := h.endpoints[k]
	if !ok {
		return nil
	}
	delete(h.endpoints, k)
	if len(h.endpoints) == 0 && h.peak > endpointShrinkAt {
		h.endpoints = make(map[uint64]Endpoint)
		h.peak = 0
	}
	return ep
}

// Send stamps and enqueues a packet on the NIC.
func (h *Host) Send(pkt *Packet) {
	if pkt.SentAt == 0 {
		pkt.SentAt = h.sched.Now()
	}
	h.nic.Enqueue(pkt)
}

// Receive implements Device: demux to the flow endpoint. Packets for
// flows that have already completed and unbound are dropped silently —
// stragglers (late retransmissions, duplicate ACKs) are expected.
//
// Delivery is a packet sink: the packet is recycled as soon as Handle
// returns. Endpoints therefore must not retain pkt (or pkt.INT, unless
// they take ownership by nilling the field) beyond the Handle call —
// they copy out what they need, which every transport here already does.
func (h *Host) Receive(pkt *Packet) {
	if pkt.Dst != h.id {
		panic(fmt.Sprintf("netsim: host %s got packet for %d", h.name, pkt.Dst))
	}
	if pkt.Kind == Data {
		h.Delivered += int64(pkt.PayloadLen)
	}
	ep := h.endpoints[endpointKey(pkt.FlowID, pkt.Kind.ToReceiver())]
	if ep == nil {
		if pkt.Kind == Data {
			h.Orphans += int64(pkt.PayloadLen)
			if pkt.LowLoop {
				h.OrphansLow += int64(pkt.PayloadLen)
			}
		}
		h.pool.Free(pkt)
		return
	}
	ep.Handle(pkt)
	h.pool.Free(pkt)
}
