// Package netsim models the datacenter fabric: packets, egress ports with
// eight strict-priority queues, shared switch buffers with RED/ECN
// marking, ECMP switches, and hosts with per-flow endpoint demux.
//
// The model matches what the PPT paper assumes of commodity switches:
// strict-priority (SP) dequeueing, a shared packet buffer, and per-class
// instantaneous ECN marking. Two optional behaviours cover the baselines:
// NDP-style payload trimming and Aeolus-style selective dropping of
// first-RTT unscheduled packets.
package netsim

import (
	"fmt"

	"ppt/internal/sim"
)

// HeaderBytes is the wire overhead per packet (Ethernet + IP + TCP-ish),
// and also the size of a trimmed NDP header or a bare control packet.
const HeaderBytes = 64

// MSS is the maximum payload carried by one data packet.
const MSS = 1448

// Kind classifies a packet for endpoint demux. Data-plane packets flow
// toward a flow's receiver; control packets (ACK/grant/pull) flow back
// toward the sender.
type Kind uint8

const (
	// Data carries payload bytes from sender to receiver.
	Data Kind = iota
	// Ack is a (possibly ECN-echoing) acknowledgment.
	Ack
	// Grant is a Homa/Aeolus receiver credit.
	Grant
	// Pull is an NDP receiver pull.
	Pull
	// Ctrl is any other transport-specific control packet.
	Ctrl
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Grant:
		return "grant"
	case Pull:
		return "pull"
	default:
		return "ctrl"
	}
}

// ToReceiver reports whether packets of this kind are delivered to the
// flow's receiver endpoint (true) or its sender endpoint (false).
func (k Kind) ToReceiver() bool { return k == Data }

// INTHop is one in-band telemetry record appended by a port when INT is
// enabled; HPCC's window computation consumes these.
type INTHop struct {
	QLen    int64    // queue bytes at this hop on departure
	TxBytes int64    // cumulative bytes transmitted by the port
	TS      sim.Time // departure time
	Rate    Rate     // port line rate
}

// Packet is the single wire unit of the simulator. One struct covers all
// transports, and every field travels by value (DESIGN.md §7.2).
type Packet struct {
	FlowID uint32
	Src    int32 // source host id
	Dst    int32 // destination host id
	Kind   Kind

	// Seq is the byte offset of the first payload byte (Data), or the
	// transport-defined acknowledgment value (Ack).
	Seq        int64
	PayloadLen int32 // application bytes carried (0 for control)
	WireLen    int32 // bytes occupying buffers and wires

	Prio int8 // 0 (highest) .. 7 (lowest); SP dequeue order

	ECT bool // ECN-capable transport
	CE  bool // congestion experienced (set by a marking port)
	ECE bool // echo of CE on an ACK

	// LowLoop marks PPT/RC3 opportunistic traffic (data or its ACKs).
	LowLoop bool
	// Droppable marks Aeolus first-RTT unscheduled packets that the
	// switch may discard early.
	Droppable bool
	// Trimmed is set by an NDP-mode port that cut the payload.
	Trimmed bool
	// Retrans marks retransmissions (excluded from goodput accounting).
	Retrans bool

	Hops int8 // incremented per switch traversal
	// NRanges counts the valid entries of RangeSeq and RangeLen.
	NRanges int8
	// GrantPrio is the priority a Homa or Aeolus grant or RESEND tells
	// the sender to transmit at.
	GrantPrio int8
	// inPool guards against double-free: set while the packet sits in a
	// PacketPool freelist.
	inPool bool

	SentAt sim.Time // stamped by the sending host on first enqueue
	EchoTS sim.Time // on ACKs: the acknowledged data's SentAt (RTT probe)

	// INT is the telemetry a data packet gathers (nil unless the sender
	// enabled it), and on an HPCC ACK the telemetry it echoes.
	INT []INTHop

	// RangeSeq and RangeLen are the byte ranges [seq, seq+len) a control
	// packet names: the opportunistic packets a low-loop ACK covers, or
	// the bytes a RESEND, hole request, NACK or resend credit asks for.
	RangeSeq [2]int64
	RangeLen [2]int32
}

// AddRange appends [seq, seq+n) to the ranges the packet names.
func (p *Packet) AddRange(seq int64, n int32) {
	p.RangeSeq[p.NRanges], p.RangeLen[p.NRanges] = seq, n
	p.NRanges++
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s flow=%d %d->%d seq=%d len=%d prio=%d", p.Kind, p.FlowID, p.Src, p.Dst, p.Seq, p.PayloadLen, p.Prio)
}

// DataPacket builds a payload-carrying packet with the wire length filled
// in. Payload must be in (0, MSS].
func DataPacket(flow uint32, src, dst int32, seq int64, payload int32, prio int8) *Packet {
	if payload <= 0 || payload > MSS {
		panic(fmt.Sprintf("netsim: bad payload %d", payload))
	}
	return &Packet{
		FlowID:     flow,
		Src:        src,
		Dst:        dst,
		Kind:       Data,
		Seq:        seq,
		PayloadLen: payload,
		WireLen:    payload + HeaderBytes,
		Prio:       prio,
	}
}

// CtrlPacket builds a header-only packet of the given kind.
func CtrlPacket(kind Kind, flow uint32, src, dst int32, prio int8) *Packet {
	return &Packet{
		FlowID:  flow,
		Src:     src,
		Dst:     dst,
		Kind:    kind,
		WireLen: HeaderBytes,
		Prio:    prio,
	}
}

// Rate is a link speed in bits per second.
type Rate int64

// Common line rates.
const (
	Mbps Rate = 1_000_000
	Gbps Rate = 1_000_000_000
)

func (r Rate) String() string {
	if r >= Gbps && r%Gbps == 0 {
		return fmt.Sprintf("%dGbps", r/Gbps)
	}
	return fmt.Sprintf("%dMbps", r/Mbps)
}

// TxTime is the serialization delay of n bytes at rate r.
func (r Rate) TxTime(n int) sim.Time {
	if r <= 0 {
		panic("netsim: non-positive rate")
	}
	// 8e12 ps per second of bit time; for every rate used in the paper
	// (10/25/40/100/400G) this division is exact per byte.
	return sim.Time(float64(n) * 8e12 / float64(r))
}

// BDPBytes is the bandwidth-delay product of rate r over rtt, in bytes.
func BDPBytes(r Rate, rtt sim.Time) int {
	return int(float64(r) / 8 * rtt.Seconds())
}
